#include "harness/suite.hh"

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>

#include "harness/replay.hh"
#include "obs/host_prof.hh"
#include "obs/json_writer.hh"
#include "sim/logging.hh"

// Build provenance baked in by src/CMakeLists.txt; the fallbacks keep
// out-of-tree builds (tests compiling suite.cc directly) working.
#ifndef GRP_BUILD_COMPILER
#define GRP_BUILD_COMPILER "unknown"
#endif
#ifndef GRP_BUILD_TYPE
#define GRP_BUILD_TYPE "unknown"
#endif
#ifndef GRP_BUILD_FLAGS
#define GRP_BUILD_FLAGS ""
#endif

namespace grp
{

namespace
{

/** Per-job host-profile block for the timing sidecar (emitted only
 *  when the job ran with profiling on). */
void
writeHostProfJson(obs::JsonWriter &json, const obs::HostProfile &prof)
{
    json.beginObject();
    json.kv("level", prof.level);
    json.key("phases");
    json.beginObject();
    for (size_t i = 0; i < obs::kNumHostPhases; ++i) {
        const obs::HostPhaseTotals &totals = prof.phases[i];
        if (!totals.calls)
            continue;
        json.key(obs::toString(static_cast<obs::HostPhase>(i)));
        json.beginObject();
        json.kv("totalNanos", totals.totalNanos);
        json.kv("selfNanos", totals.selfNanos);
        json.kv("calls", totals.calls);
        json.endObject();
    }
    json.endObject();
    json.kv("selfSumNanos", prof.selfSumNanos());
    json.kv("allocCount", prof.allocCount);
    json.kv("allocBytes", prof.allocBytes);
    json.kv("freeCount", prof.freeCount);
    json.kv("peakRssKb", prof.peakRssKb);
    json.endObject();
}

} // namespace

std::vector<std::string>
perfSuite()
{
    std::vector<std::string> names;
    for (const std::string &name : workloadNames()) {
        if (makeWorkload(name)->info().negligibleL2)
            continue;
        names.push_back(name);
    }
    return names;
}

std::vector<std::string>
intSuite()
{
    std::vector<std::string> names;
    for (const std::string &name : perfSuite()) {
        if (!makeWorkload(name)->info().isFloat)
            names.push_back(name);
    }
    return names;
}

std::vector<std::string>
fpSuite()
{
    std::vector<std::string> names;
    for (const std::string &name : perfSuite()) {
        if (makeWorkload(name)->info().isFloat)
            names.push_back(name);
    }
    return names;
}

RunResult
runScheme(const std::string &name, PrefetchScheme scheme,
          const RunOptions &options, CompilerPolicy policy)
{
    SimConfig config;
    config.scheme = scheme;
    config.policy = policy;
    return runWorkload(name, config, options);
}

RunResult
runPerfect(const std::string &name, Perfection perfection,
           const RunOptions &options)
{
    SimConfig config;
    config.perfection = perfection;
    return runWorkload(name, config, options);
}

double
speedup(const RunResult &run, const RunResult &base)
{
    return base.ipc > 0.0 ? run.ipc / base.ipc : 0.0;
}

double
trafficRatio(const RunResult &run, const RunResult &base)
{
    return base.trafficBytes
               ? static_cast<double>(run.trafficBytes) /
                     static_cast<double>(base.trafficBytes)
               : 0.0;
}

double
gapFromPerfect(const RunResult &run, const RunResult &perfect)
{
    if (perfect.ipc <= 0.0)
        return 0.0;
    return 100.0 * (1.0 - run.ipc / perfect.ipc);
}

std::string
benchOutPath(const std::string &name)
{
    const char *env = std::getenv("GRP_BENCH_OUT");
    std::filesystem::path dir = env && *env ? env : ".";
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec)
        warn("cannot create %s: %s", dir.string().c_str(),
             ec.message().c_str());
    return (dir / (name + ".json")).string();
}

BenchSweep::BenchSweep(std::string bench_name)
    : name_(std::move(bench_name))
{
}

std::shared_ptr<SweepRecording>
BenchSweep::recordingFor(const std::string &name, uint64_t seed)
{
    auto key = std::make_pair(name, seed);
    auto it = recordings_.find(key);
    if (it != recordings_.end())
        return it->second;
    // addScheme/addPerfect always run under the default SimConfig
    // cache geometry, so the recording targets the default L2; the
    // runner re-validates the match per job. The compiler policy is
    // deliberately not part of the key: the op stream is
    // policy-independent and the recording builds per-policy hint
    // tables on demand, so a policy sweep (sens_compiler) interprets
    // each workload once instead of once per policy.
    auto rec = std::make_shared<SweepRecording>(
        name, seed, SimConfig{}.l2.sizeBytes);
    recordings_.emplace(std::move(key), rec);
    return rec;
}

size_t
BenchSweep::add(std::string label, std::function<RunResult()> job)
{
    jobs_.push_back(SweepJob{std::move(label), std::move(job)});
    return jobs_.size() - 1;
}

size_t
BenchSweep::addScheme(const std::string &name, PrefetchScheme scheme,
                      const RunOptions &options, CompilerPolicy policy)
{
    std::string label = name + "/" + toString(scheme);
    if (policy != CompilerPolicy::Default)
        label += std::string("/") + toString(policy);
    RunOptions opts = options;
    opts.recording = recordingFor(name, opts.seed);
    return add(std::move(label),
               [name, scheme, opts = std::move(opts), policy] {
                   return runScheme(name, scheme, opts, policy);
               });
}

size_t
BenchSweep::addPerfect(const std::string &name, Perfection perfection,
                       const RunOptions &options)
{
    RunOptions opts = options;
    opts.recording = recordingFor(name, opts.seed);
    return add(name + "/" + toString(perfection),
               [name, perfection, opts = std::move(opts)] {
                   return runPerfect(name, perfection, opts);
               });
}

size_t
BenchSweep::addConfig(std::string label, const std::string &name,
                      const SimConfig &config,
                      const RunOptions &options)
{
    RunOptions opts = options;
    if (config.l2.sizeBytes == SimConfig{}.l2.sizeBytes)
        opts.recording = recordingFor(name, opts.seed);
    return add(std::move(label),
               [name, config, opts = std::move(opts)] {
                   return runWorkload(name, config, opts);
               });
}

void
BenchSweep::run()
{
    threads_ = defaultSweepThreads();
    const auto start = std::chrono::steady_clock::now();
    outcomes_ = runSweep(std::move(jobs_), threads_);
    totalWallSeconds_ =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    jobs_.clear();
    recordings_.clear(); // Drop the shared streams' memory.
    for (size_t i = 0; i < outcomes_.size(); ++i) {
        fatal_if(outcomes_[i].failed, "bench %s job %zu failed: %s",
                 name_.c_str(), i, outcomes_[i].error.c_str());
    }
    writeTimings();
}

const RunResult &
BenchSweep::result(size_t index) const
{
    fatal_if(index >= outcomes_.size(),
             "bench %s: result(%zu) out of range (ran %zu jobs)",
             name_.c_str(), index, outcomes_.size());
    return outcomes_[index].result;
}

void
BenchSweep::writeTimings() const
{
    // Timing is non-deterministic by nature, so it lives in a sidecar
    // next to (never inside) the bench's comparable artefact;
    // bench_manifest.py finish folds the sidecars into manifest.json.
    const char *env = std::getenv("GRP_BENCH_OUT");
    std::filesystem::path dir = env && *env ? env : ".";
    dir /= "timings";
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec) {
        warn("cannot create %s: %s", dir.string().c_str(),
             ec.message().c_str());
        return;
    }
    const std::filesystem::path path = dir / (name_ + ".json");
    std::ofstream file(path);
    if (!file) {
        warn("cannot write %s", path.string().c_str());
        return;
    }

    uint64_t instructions = 0;
    for (const SweepOutcome &outcome : outcomes_)
        instructions += outcome.result.instructions;

    obs::JsonWriter json(file);
    json.beginObject();
    json.kv("schema", "grp-bench-timing-v2");
    json.kv("bench", name_);
    json.kv("threads", threads_);
    // Host provenance: timing numbers are only comparable between
    // sidecars that agree here (perf_compare.py downgrades failures
    // to warnings across provenance mismatches).
    json.key("provenance");
    json.beginObject();
    json.kv("compiler", GRP_BUILD_COMPILER);
    json.kv("buildType", GRP_BUILD_TYPE);
    json.kv("cxxFlags", GRP_BUILD_FLAGS);
    json.kv("hostProfMaxLevel", GRP_HOST_PROF_MAX_LEVEL);
    json.kv("hostProfLevel", obs::HostProfiler::envLevel());
    // Present only when GRP_TRACE_ALL forced tracing on (overhead
    // measurement runs); absent means tracing-off, so committed
    // baselines keep matching unforced runs byte-for-byte.
    if (const std::optional<ForcedTrace> forced = forcedTrace())
        json.kv("traceMode", "bin-L" + std::to_string(forced->level));
    json.endObject();
    json.kv("totalWallSeconds", totalWallSeconds_);
    json.kv("simulatedInstructions", instructions);
    json.kv("instructionsPerSecond",
            totalWallSeconds_ > 0.0
                ? static_cast<double>(instructions) / totalWallSeconds_
                : 0.0);
    json.key("jobs");
    json.beginArray();
    for (const SweepOutcome &outcome : outcomes_) {
        json.beginObject();
        json.kv("label", outcome.label);
        json.kv("wallSeconds", outcome.wallSeconds);
        json.kv("instructions", outcome.result.instructions);
        json.kv("instructionsPerSecond",
                outcome.wallSeconds > 0.0
                    ? static_cast<double>(outcome.result.instructions) /
                          outcome.wallSeconds
                    : 0.0);
        if (outcome.hostProf.enabled()) {
            json.key("hostProf");
            writeHostProfJson(json, outcome.hostProf);
        }
        json.endObject();
    }
    json.endArray();
    json.endObject();
}

} // namespace grp
