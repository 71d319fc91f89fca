/**
 * @file
 * grpbench: the repository benchmark.
 *
 * Runs one named workload — a closed list of simulation jobs — over
 * and over for a fixed host-time budget, checks every job's outputs,
 * and prints the end-to-end metrics (or, with --trace 1, the
 * per-layer metrics) as a table followed by one JSON line. The seed
 * reaches the simulator only through RunOptions::seed. README.md in
 * this directory maps each layer metric to the end-to-end metric and
 * workload it should move.
 */

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cpu/trace.hh"
#include "harness/replay.hh"
#include "harness/runner.hh"
#include "harness/suite.hh"
#include "harness/sweep.hh"
#include "obs/json_writer.hh"
#include "probes.hh"
#include "spans.hh"

namespace grpbench
{

namespace
{

using grp::Perfection;
using grp::PrefetchScheme;
using grp::RunResult;
using grp::SweepOutcome;
using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/**
 * Host speed. The benchmark runs on shared hosts whose speed drifts by
 * half over minutes (other tenants on the same cores and caches), far
 * more than the regressions it must catch. Every job therefore first
 * times a fixed calibration loop on its own worker thread; the loop's
 * time over its nominal time is the job's speed factor, and the
 * end-to-end host times are divided by it. The loop is the benchmark's
 * own code, so a change to the simulator moves the job time but not
 * the factor.
 */
constexpr double kCalibrationNominalNs = 15.0; ///< Per iteration.

/**
 * Host seconds the calling thread takes for @p iters iterations of a
 * set-associative LRU tag lookup over a mixed sequential and random
 * block stream (the simulator's kind of work).
 */
double
calibrate(uint64_t iters)
{
    constexpr unsigned kSets = 4096, kWays = 8;
    std::vector<uint64_t> tags(kSets * kWays, ~0ull);
    std::vector<uint32_t> stamps(kSets * kWays, 0);
    uint64_t x = 0x9e3779b97f4a7c15ull, seq = 0, hits = 0;
    uint32_t now = 0;
    const auto start = Clock::now();
    for (uint64_t i = 0; i < iters; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        const uint64_t block = (x & 3) ? ++seq : (x >> 40);
        uint64_t *tag = &tags[(block % kSets) * kWays];
        uint32_t *stamp = &stamps[(block % kSets) * kWays];
        unsigned victim = 0;
        unsigned way = 0;
        for (; way < kWays && tag[way] != block; ++way) {
            if (stamp[way] < stamp[victim])
                victim = way;
        }
        if (way < kWays)
            ++hits;
        else
            tag[way = victim] = block;
        stamp[way] = ++now;
    }
    const double seconds = secondsSince(start);
    static std::atomic<uint64_t> sink;
    sink.fetch_add(hits, std::memory_order_relaxed);
    return seconds;
}

struct JobSpec
{
    std::string kernel;
    PrefetchScheme scheme = PrefetchScheme::None;
    Perfection perfection = Perfection::None;

    std::string
    label() const
    {
        return kernel + "/" +
               (perfection != Perfection::None
                    ? grp::toString(perfection)
                    : grp::toString(scheme));
    }
};

/** One benchmark workload: a closed job list and how to run it. */
struct WorkloadSpec
{
    std::string name;
    std::string dram;      ///< DRAM backend of every job.
    uint64_t window = 0;   ///< Measured instructions per job.
    bool replay = false;   ///< Share one SweepRecording per kernel.
    unsigned threads = 1;  ///< Workers for the measured passes.
    std::vector<std::string> kernels;
    std::vector<JobSpec> jobs;
};

unsigned
hostThreads()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return std::clamp(hw, 1u, 4u);
}

std::optional<WorkloadSpec>
makeSpec(const std::string &name)
{
    WorkloadSpec spec;
    spec.name = name;
    std::vector<PrefetchScheme> schemes;
    if (name == "serial-legacy") {
        spec.dram = "legacy";
        spec.window = 2'000'000;
        spec.kernels = {"mcf", "swim", "bzip2", "art"};
        schemes = {PrefetchScheme::None, PrefetchScheme::Srp,
                   PrefetchScheme::GrpVar};
    } else if (name == "serial-ddr4") {
        spec.dram = "ddr4-2400";
        spec.window = 1'000'000;
        spec.kernels = {"mcf", "swim", "bzip2", "art"};
        schemes = {PrefetchScheme::None, PrefetchScheme::GrpVar,
                   PrefetchScheme::GrpAdaptive};
    } else if (name == "grid-replay") {
        spec.dram = "legacy";
        spec.window = 500'000;
        spec.replay = true;
        spec.threads = hostThreads();
        spec.kernels = grp::perfSuite();
        schemes = {PrefetchScheme::None, PrefetchScheme::Stride,
                   PrefetchScheme::Srp, PrefetchScheme::GrpFix,
                   PrefetchScheme::GrpVar};
    } else {
        return std::nullopt;
    }
    for (const std::string &kernel : spec.kernels) {
        for (PrefetchScheme scheme : schemes)
            spec.jobs.push_back({kernel, scheme, Perfection::None});
        if (spec.replay) {
            spec.jobs.push_back(
                {kernel, PrefetchScheme::None, Perfection::PerfectL2});
        }
    }
    return spec;
}

/** Host-profiler phases read back from RunResult::stats. */
const char *const kPhases[] = {
    "run",    "setup",        "simLoop",      "events",
    "cpuTick", "interp",      "memTick",      "memAccess",
    "l2Access", "mshr",       "engineNotify", "dramServe",
    "prefetchIssue", "engineDequeue", "adaptive",
};

uint64_t
phaseStat(const RunResult &r, const std::string &phase,
          const char *field)
{
    return r.stats.value("hostProf." + phase + field);
}

/** One pass: every job of the workload once. */
struct PassResult
{
    std::vector<SweepOutcome> jobs;   ///< In WorkloadSpec::jobs order.
    std::vector<double> jobS;         ///< Each job's host seconds.
    std::vector<double> jobSimS;      ///< The same after set-up.
    std::vector<double> recordingS;   ///< Per kernel (replay only).
    uint64_t recordedOps = 0;
    unsigned threads = 1;
    double wallS = 0.0;  ///< First job's start to last job's end.
    double setupS = 0.0; ///< Summed over jobs (and recordings).
    double busyS = 0.0;  ///< Summed job time, recordings included.
    uint64_t retired = 0; ///< Warm-up plus measured instructions.
    /** Mean speed factor over the pass's jobs and recordings. */
    double speed = 1.0;
    /** The host times above divided by their speed factors: per job,
     *  by its own; the pass wall time, by the pass's mean. */
    std::vector<double> jobSimNominalS;
    double wallNominalS = 0.0;
    double setupNominalS = 0.0;
};

/**
 * Run every job of @p spec once on @p threads workers at host
 * profiling level @p prof_level. Replay workloads first build one
 * recording per kernel and extend its stream to the length recorded
 * in @p extend_to (so the jobs replay and do not interpret), then
 * raise @p extend_to to what the jobs actually read. With a @p log,
 * every recording and job is a span and every job's host-profiler
 * phases are phase records.
 */
PassResult
runPass(const WorkloadSpec &spec, uint64_t seed, unsigned threads,
        int prof_level, std::map<std::string, uint64_t> &extend_to,
        SpanLog *log)
{
    PassResult pass;
    pass.threads = threads;
    const uint64_t warmup = spec.window / 4;
    const uint64_t pass_job = log ? log->newId() : 0;
    ScopedSpan pass_span(log, "harness.pass", 0, pass_job, spec.name);
    const uint64_t parent = pass_span.id();
    const auto start = Clock::now();
    // Calibration seconds, one slot per job, each written by its job.
    const uint64_t calibration_iters = spec.window;
    const double nominal_s = static_cast<double>(calibration_iters) *
                             kCalibrationNominalNs * 1e-9;
    const auto rec_cal = std::make_shared<std::vector<double>>();
    const auto job_cal =
        std::make_shared<std::vector<double>>(spec.jobs.size());
    double calibration_s = 0.0;
    double speed_sum = 0.0;

    std::map<std::string, std::shared_ptr<grp::SweepRecording>> recs;
    if (spec.replay) {
        std::vector<grp::SweepJob> rec_jobs;
        rec_cal->resize(spec.kernels.size());
        for (const std::string &kernel : spec.kernels) {
            const size_t index = rec_jobs.size();
            auto rec = std::make_shared<grp::SweepRecording>(
                kernel, seed, grp::SimConfig{}.l2.sizeBytes);
            recs[kernel] = rec;
            const auto it = extend_to.find(kernel);
            const uint64_t target = it != extend_to.end()
                                        ? it->second
                                        : warmup + spec.window;
            const uint64_t job = log ? log->newId() : 0;
            rec_jobs.push_back({kernel + "/recording", [=] {
                (*rec_cal)[index] = calibrate(calibration_iters);
                ScopedSpan span(log, "harness.recording", parent, job,
                                rec->workload());
                rec->memory();
                rec->hints(grp::CompilerPolicy::Default);
                const grp::TraceOp *ops = nullptr;
                for (uint64_t pos = 0; pos < target;) {
                    const size_t n = rec->fetchSpan(pos, &ops);
                    if (n == 0)
                        break;
                    pos += n;
                }
                return RunResult{};
            }});
        }
        const std::vector<SweepOutcome> built =
            grp::runSweep(std::move(rec_jobs), threads);
        for (size_t i = 0; i < built.size(); ++i) {
            const SweepOutcome &o = built[i];
            if (o.failed)
                std::fprintf(stderr, "grpbench: %s failed: %s\n",
                             o.label.c_str(), o.error.c_str());
            const double cal = (*rec_cal)[i];
            const double k = cal / nominal_s;
            const double seconds = o.wallSeconds - cal;
            calibration_s += cal;
            speed_sum += k;
            pass.recordingS.push_back(seconds);
            pass.busyS += seconds;
            pass.setupS += seconds;
            pass.setupNominalS += seconds / k;
        }
    }

    std::vector<grp::SweepJob> jobs;
    for (const JobSpec &spec_job : spec.jobs) {
        grp::SimConfig config;
        config.scheme = spec_job.scheme;
        config.perfection = spec_job.perfection;
        config.dram.backend = spec.dram;
        grp::RunOptions opts;
        opts.maxInstructions = spec.window;
        opts.seed = seed;
        opts.obs.hostProfLevel = prof_level;
        if (spec.replay)
            opts.recording = recs.at(spec_job.kernel);
        const std::string label = spec_job.label();
        const std::string kernel = spec_job.kernel;
        const uint64_t job = log ? log->newId() : 0;
        const size_t index = jobs.size();
        jobs.push_back({label, [=] {
            (*job_cal)[index] = calibrate(calibration_iters);
            ScopedSpan span(log, "harness.job", parent, job, label);
            RunResult r = grp::runWorkload(kernel, config, opts);
            if (log) {
                for (const char *phase : kPhases) {
                    const uint64_t calls = phaseStat(r, phase, "Calls");
                    if (!calls)
                        continue;
                    log->addPhase({job, phase,
                                   phaseStat(r, phase, "SelfNanos"),
                                   phaseStat(r, phase, "TotalNanos"),
                                   calls});
                }
            }
            return r;
        }});
    }
    pass.jobs = grp::runSweep(std::move(jobs), threads);
    const double wall_s = secondsSince(start);

    for (size_t i = 0; i < pass.jobs.size(); ++i) {
        const SweepOutcome &o = pass.jobs[i];
        const double cal = (*job_cal)[i];
        const double k = cal / nominal_s;
        const double seconds = o.wallSeconds - cal;
        const double setup =
            static_cast<double>(phaseStat(o.result, "setup",
                                          "TotalNanos")) *
            1e-9;
        calibration_s += cal;
        speed_sum += k;
        pass.jobS.push_back(seconds);
        pass.busyS += seconds;
        pass.setupS += setup;
        pass.jobSimS.push_back(seconds - setup);
        pass.setupNominalS += setup / k;
        pass.jobSimNominalS.push_back((seconds - setup) / k);
        if (!o.failed)
            pass.retired += o.result.instructions + warmup;
    }
    pass.speed = speed_sum /
                 static_cast<double>(job_cal->size() + rec_cal->size());
    // The calibration loops ran inside the jobs, spread over the workers.
    pass.wallS = wall_s - calibration_s / threads;
    pass.wallNominalS = pass.wallS / pass.speed;
    for (const auto &[kernel, rec] : recs) {
        const uint64_t ops = rec->opsRecorded();
        pass.recordedOps += ops;
        extend_to[kernel] = std::max(extend_to[kernel], ops);
    }
    recs.clear();
    // Hand the pass's freed memory back to the system, so each pass's
    // peak RSS is its own and not the allocator's fragmentation from
    // earlier passes (workers of different passes use different
    // arenas).
    malloc_trim(0);
    return pass;
}

/** Why @p o fails its output checks (empty when it passes). */
std::vector<std::string>
checkJob(const SweepOutcome &o, const WorkloadSpec &spec)
{
    std::vector<std::string> bad;
    if (o.failed) {
        bad.push_back("threw: " + o.error);
        return bad;
    }
    const RunResult &r = o.result;
    const grp::obs::StatSnapshot &s = r.stats;
    char buf[160];
    if (r.partial)
        bad.push_back("partial run");
    const uint64_t gap = r.instructions > spec.window
                             ? r.instructions - spec.window
                             : spec.window - r.instructions;
    if (gap >= grp::SimConfig{}.cpu.retireWidth) {
        std::snprintf(buf, sizeof(buf), "retired %llu of a %llu window",
                      (unsigned long long)r.instructions,
                      (unsigned long long)spec.window);
        bad.push_back(buf);
    }
    if (s.value("mem.accuracyClampEvents") != 0)
        bad.push_back("mem.accuracyClampEvents != 0");
    const uint64_t blocks = s.value("mem.demandFills") +
                            s.value("mem.prefetchFills") +
                            s.value("mem.writebacks");
    if (r.trafficBytes != grp::kBlockBytes * blocks)
        bad.push_back("trafficBytes != 64 x (fills + writebacks)");
    unsigned channels = 0;
    for (;; ++channels) {
        const std::string ch = "dram.ch" + std::to_string(channels);
        if (!s.hasCounter(ch + "Cycles"))
            break;
        const uint64_t total = s.value(ch + "Cycles");
        if (s.value(ch + "DemandCycles") + s.value(ch + "PrefetchCycles") +
                s.value(ch + "WritebackCycles") +
                s.value(ch + "IdleCycles") !=
            total)
            bad.push_back(ch + " class cycles do not sum to its cycles");
        if (spec.dram == "legacy")
            continue;
        unsigned banks = 0;
        for (;; ++banks) {
            const std::string b = ch + "bank" + std::to_string(banks);
            if (!s.hasCounter(b + "IdleCycles"))
                break;
            if (s.value(b + "IdleCycles") + s.value(b + "OpenCycles") +
                    s.value(b + "ActivatingCycles") +
                    s.value(b + "PrechargingCycles") +
                    s.value(b + "RefreshingCycles") !=
                total)
                bad.push_back(b + " state cycles do not sum");
        }
        if (banks == 0)
            bad.push_back(ch + " has no per-bank state cycles");
    }
    if (channels == 0)
        bad.push_back("no dram channel cycle stats");
    return bad;
}

constexpr uint64_t kFnvOffset = 14695981039346656037ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

uint64_t
fnv(uint64_t h, const void *data, size_t len)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (size_t i = 0; i < len; ++i)
        h = (h ^ p[i]) * kFnvPrime;
    return h;
}

uint64_t
mix(uint64_t h, const std::string &key, uint64_t value)
{
    h = fnv(h, key.data(), key.size());
    return fnv(h, &value, sizeof(value));
}

/** Hash of every simulated output of one job (hostProf.* excluded:
 *  host time is not part of the modelled machine). */
uint64_t
jobDigest(const RunResult &r)
{
    uint64_t h = kFnvOffset;
    h = mix(h, "instructions", r.instructions);
    h = mix(h, "cycles", r.cycles);
    for (const auto &[name, value] : r.stats.counters) {
        if (!name.starts_with("hostProf."))
            h = mix(h, name, value);
    }
    for (const auto &[name, d] : r.stats.distributions) {
        if (name.starts_with("hostProf."))
            continue;
        h = mix(h, name + ".samples", d.samples);
        h = mix(h, name + ".sum", d.sum);
        h = mix(h, name + ".mean", std::bit_cast<uint64_t>(d.mean));
        h = mix(h, name + ".max", d.maxValue);
        h = mix(h, name + ".p50", d.p50);
        h = mix(h, name + ".p90", d.p90);
        h = mix(h, name + ".p99", d.p99);
    }
    return h;
}

/** Median and quartiles with Python's statistics.quantiles(n=4)
 *  (exclusive method), so the table matches how runs are judged. */
struct Summary
{
    double median = 0.0;
    double q1 = 0.0;
    double q3 = 0.0;
    size_t n = 0;
};

Summary
summarize(std::vector<double> v)
{
    Summary s;
    s.n = v.size();
    if (v.empty())
        return s;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    s.median = n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
    if (n < 2) {
        s.q1 = s.q3 = s.median;
        return s;
    }
    const auto quartile = [&](size_t i) {
        const size_t m = n + 1;
        size_t j = i * m / 4;
        j = std::clamp<size_t>(j, 1, n - 1);
        const double delta = static_cast<double>(i * m) - 4.0 * j;
        return (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    };
    s.q1 = quartile(1);
    s.q3 = quartile(3);
    return s;
}

/** Linear-interpolated percentile of @p v (0 when empty). */
double
percentile(std::vector<double> v, double pct)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = pct / 100.0 * static_cast<double>(v.size() - 1);
    const size_t lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

std::string
number(double v)
{
    if (!std::isfinite(v))
        v = 0.0;
    char buf[64];
    const auto res = std::to_chars(buf, buf + sizeof(buf), v);
    return std::string(buf, res.ptr);
}

struct Metric
{
    std::string name;
    std::string unit;
    double value = 0.0;
};

/** The result line: one compact JSON object. */
void
printJson(bool correct, uint64_t attempted, uint64_t failed,
          const std::vector<Metric> &metrics)
{
    std::ostringstream os;
    grp::obs::JsonWriter json(os, false);
    json.beginObject();
    json.kv("correct", correct);
    json.kv("attempted", attempted);
    json.kv("failed", failed);
    json.key("metrics");
    json.beginObject();
    for (const Metric &m : metrics) {
        json.key(m.name);
        json.beginObject();
        json.kv("value", std::isfinite(m.value) ? m.value : 0.0);
        json.kv("unit", m.unit);
        json.endObject();
    }
    json.endObject();
    json.endObject();
    std::printf("%s\n", os.str().c_str());
}

double
peakRssMb()
{
    struct rusage usage;
    if (getrusage(RUSAGE_SELF, &usage) != 0)
        return 0.0;
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KB -> MB
}

/** Geomeans over kernels of grp-var vs none: IPC ratio and traffic
 *  ratio (and the same traffic ratio for srp when present). */
struct Shape
{
    double speedup = 0.0;
    double traffic = 0.0;
    double srpTraffic = 0.0;
    size_t kernels = 0;
};

Shape
shapeOf(const WorkloadSpec &spec, const PassResult &pass)
{
    std::map<std::string, const RunResult *> by_label;
    for (size_t i = 0; i < spec.jobs.size(); ++i) {
        if (!pass.jobs[i].failed)
            by_label[spec.jobs[i].label()] = &pass.jobs[i].result;
    }
    double log_speedup = 0.0, log_traffic = 0.0, log_srp = 0.0;
    size_t srp_kernels = 0;
    Shape shape;
    for (const std::string &kernel : spec.kernels) {
        const auto base = by_label.find(kernel + "/none");
        const auto grp = by_label.find(kernel + "/grp-var");
        if (base == by_label.end() || grp == by_label.end())
            continue;
        log_speedup += std::log(grp::speedup(*grp->second, *base->second));
        log_traffic +=
            std::log(grp::trafficRatio(*grp->second, *base->second));
        ++shape.kernels;
        const auto srp = by_label.find(kernel + "/srp");
        if (srp != by_label.end()) {
            log_srp +=
                std::log(grp::trafficRatio(*srp->second, *base->second));
            ++srp_kernels;
        }
    }
    if (shape.kernels) {
        shape.speedup = std::exp(log_speedup / shape.kernels);
        shape.traffic = std::exp(log_traffic / shape.kernels);
    }
    if (srp_kernels)
        shape.srpTraffic = std::exp(log_srp / srp_kernels);
    return shape;
}

/** Per-layer metrics: name, unit, and what each should move. The
 *  order and names match BENCHMARK.json's per_layer list. */
struct LayerMetricDef
{
    const char *name;
    const char *unit;
    const char *moves;
};

const LayerMetricDef kLayerMetrics[] = {
    {"workloads.build_ms", "ms", "setup_s on serial-*"},
    {"compiler.hints_ms", "ms", "setup_s on serial-*"},
    {"workloads.interp_ns_per_op", "ns", "sim_inst_per_s on serial-*"},
    {"workloads.interp_share_pct", "%", "sim_inst_per_s on serial-*"},
    {"harness.recording_s", "s", "setup_s on grid-replay"},
    {"harness.recorded_ops", "count", "peak_rss_mb on grid-replay"},
    {"harness.recorded_mb", "MB", "peak_rss_mb on grid-replay"},
    {"harness.job_s_p50", "s", "wall_s on grid-replay"},
    {"harness.job_s_p90", "s", "wall_s on grid-replay"},
    {"harness.worker_busy_frac", "ratio", "wall_s on grid-replay"},
    {"cpu.tick_ns", "ns", "sim_inst_per_s on all"},
    {"cpu.ticks_per_inst", "ratio", "sim_inst_per_s on all"},
    {"mem.cache_access_ns", "ns", "sim_inst_per_s on all"},
    {"mem.access_ns", "ns", "sim_inst_per_s on all"},
    {"mem.tick_ns", "ns", "sim_inst_per_s on all"},
    {"mem.mshr_ns", "ns", "sim_inst_per_s on all"},
    {"mem.l2_miss_rate", "ratio", "simulated; sim_inst_per_s on all"},
    {"prefetch.dequeue_ns", "ns",
     "sim_inst_per_s on serial-legacy and grid-replay"},
    {"prefetch.dequeue_ns.srp", "ns", "sim_inst_per_s on serial-legacy"},
    {"prefetch.dequeue_ns.grp-var", "ns",
     "sim_inst_per_s on serial-legacy"},
    {"prefetch.queue_probe_ns", "ns",
     "sim_inst_per_s on serial-legacy and grid-replay"},
    {"prefetch.issue_ns", "ns",
     "sim_inst_per_s on serial-legacy and grid-replay"},
    {"prefetch.notify_ns", "ns",
     "sim_inst_per_s on serial-legacy and grid-replay"},
    {"prefetch.accuracy", "ratio", "simulated"},
    {"prefetch.coverage_pct", "%", "simulated"},
    {"prefetch.queue_high_water", "count", "simulated"},
    {"dram.serve_ns.legacy", "ns", "sim_inst_per_s on legacy workloads"},
    {"dram.serve_ns.ddr4-2400", "ns", "sim_inst_per_s on serial-ddr4"},
    {"dram.tick_ns.ddr4-2400", "ns", "sim_inst_per_s on serial-ddr4"},
    {"dram.row_hit_rate", "ratio", "simulated"},
    {"dram.idle_frac", "ratio", "simulated"},
    {"adaptive.epoch_ns", "ns", "sim_inst_per_s on serial-ddr4"},
    {"adaptive.transitions", "count", "simulated"},
    {"sim.events_ns", "ns", "sim_inst_per_s on all"},
    {"obs.trace_overhead_pct", "%", "cost of the traced run"},
};

struct Args
{
    std::string workload;
    uint64_t seed = 42;
    double seconds = 10.0;
    bool trace = false;
    std::string spansPath;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "grpbench: %s\n"
                 "usage: grpbench --workload serial-legacy|serial-ddr4|"
                 "grid-replay [--seed N] [--seconds S] [--trace 0|1] "
                 "[--spans PATH]\n",
                 why);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        std::string value;
        if (const size_t eq = flag.find('='); eq != std::string::npos) {
            value = flag.substr(eq + 1);
            flag.resize(eq);
        } else if (i + 1 < argc) {
            value = argv[++i];
        } else {
            usage(("missing value for " + flag).c_str());
        }
        char *end = nullptr;
        if (flag == "--workload") {
            args.workload = value;
        } else if (flag == "--seed") {
            args.seed = std::strtoull(value.c_str(), &end, 10);
        } else if (flag == "--seconds") {
            args.seconds = std::strtod(value.c_str(), &end);
        } else if (flag == "--trace") {
            args.trace = value == "1";
            if (value != "0" && value != "1")
                usage("--trace takes 0 or 1");
        } else if (flag == "--spans") {
            args.spansPath = value;
        } else {
            usage(("unknown flag " + flag).c_str());
        }
        if (end && (*end || value.empty()))
            usage(("bad number for " + flag).c_str());
    }
    if (args.workload.empty())
        usage("--workload is required");
    if (!(args.seconds > 0.0))
        usage("--seconds must be positive");
    return args;
}

/** Checks and digests every pass against the reference pass. */
class Verifier
{
  public:
    explicit Verifier(const WorkloadSpec &spec) : spec_(spec) {}

    /** Check @p pass; the first pass checked becomes the reference
     *  whose per-job digests every later pass must reproduce. */
    void
    check(const PassResult &pass, const char *what)
    {
        const bool reference = digests_.empty();
        for (size_t i = 0; i < pass.jobs.size(); ++i) {
            ++attempted_;
            std::vector<std::string> bad = checkJob(pass.jobs[i], spec_);
            const uint64_t digest = pass.jobs[i].failed
                                        ? 0
                                        : jobDigest(pass.jobs[i].result);
            if (reference)
                digests_.push_back(digest);
            else if (digest != digests_[i])
                bad.push_back(std::string("digest differs from the "
                                          "reference pass (") +
                              what + ")");
            if (bad.empty())
                continue;
            ++failed_;
            for (const std::string &why : bad) {
                std::fprintf(stderr, "grpbench: job %s failed: %s\n",
                             pass.jobs[i].label.c_str(), why.c_str());
            }
        }
    }

    uint64_t
    workloadDigest() const
    {
        uint64_t h = kFnvOffset;
        for (uint64_t d : digests_)
            h = fnv(h, &d, sizeof(d));
        return h;
    }

    uint64_t attempted() const { return attempted_; }
    uint64_t failed() const { return failed_; }

  private:
    const WorkloadSpec &spec_;
    std::vector<uint64_t> digests_;
    uint64_t attempted_ = 0;
    uint64_t failed_ = 0;
};

void
printSummaryLine(const char *name, const Summary &s, const char *unit)
{
    std::printf("  %-18s %14s %-6s [q1 %s, q3 %s] n=%zu\n", name,
                number(s.median).c_str(), unit, number(s.q1).c_str(),
                number(s.q3).c_str(), s.n);
}

/** Paper Table 1, GRP/Var row. */
constexpr double kPaperGrpVarSpeedup = 1.212;
constexpr double kPaperGrpVarTraffic = 1.23;

void
printShape(const WorkloadSpec &spec, const Shape &shape, uint64_t seed)
{
    if (spec.name == "grid-replay") {
        std::printf("  reference: paper Table 1 GRP/Var speedup %.3f "
                    "(difference %+.4f), traffic %.2f (difference "
                    "%+.4f); the kernels are synthetic stand-ins for "
                    "SPEC CPU2000, so the difference is not a "
                    "validated error\n",
                    kPaperGrpVarSpeedup, shape.speedup - kPaperGrpVarSpeedup,
                    kPaperGrpVarTraffic, shape.traffic - kPaperGrpVarTraffic);
    } else {
        std::printf("  reference: no reference (the paper has no "
                    "%s configuration)\n",
                    spec.name.c_str());
    }
    std::printf("  shape at seed %llu: grp_speedup > 1 %s",
                (unsigned long long)seed,
                shape.speedup > 1.0 ? "holds" : "FAILS");
    if (shape.srpTraffic > 0.0) {
        std::printf("; grp-var traffic %.4f < srp traffic %.4f %s",
                    shape.traffic, shape.srpTraffic,
                    shape.traffic < shape.srpTraffic ? "holds" : "FAILS");
    }
    std::printf("\n");
}

/** Sums of host-profiler phases over the jobs of traced passes,
 *  keyed by phase and by "phase/scheme". */
struct PhaseTotals
{
    std::map<std::string, double> self, total, calls;

    void
    add(const SweepOutcome &o)
    {
        if (o.failed)
            return;
        const std::string scheme = grp::toString(o.result.scheme);
        for (const char *phase : kPhases) {
            for (const std::string &key :
                 {std::string(phase), phase + ("/" + scheme)}) {
                self[key] += phaseStat(o.result, phase, "SelfNanos");
                total[key] += phaseStat(o.result, phase, "TotalNanos");
                calls[key] += phaseStat(o.result, phase, "Calls");
            }
        }
    }

    /** Self nanoseconds per call of @p key (0 when never called). */
    double
    nsPerCall(const std::string &key)
    {
        return ratio(self[key], calls[key]);
    }
};

/** Simulated per-layer figures of the reference pass. */
std::map<std::string, double>
simulatedLayers(const WorkloadSpec &spec, const PassResult &ref)
{
    double l2_access = 0, l2_miss = 0, fills = 0, useful = 0;
    double row_hits = 0, row_conflicts = 0, idle = 0, busy = 0;
    double high_water = 0, transitions = 0, coverage = 0;
    size_t covered = 0;
    std::map<std::string, const RunResult *> base;
    for (size_t i = 0; i < spec.jobs.size(); ++i) {
        const JobSpec &job = spec.jobs[i];
        if (job.scheme == PrefetchScheme::None &&
            job.perfection == Perfection::None && !ref.jobs[i].failed)
            base[job.kernel] = &ref.jobs[i].result;
    }
    for (size_t i = 0; i < spec.jobs.size(); ++i) {
        if (ref.jobs[i].failed)
            continue;
        const RunResult &r = ref.jobs[i].result;
        const grp::obs::StatSnapshot &s = r.stats;
        l2_access += r.l2DemandAccesses;
        l2_miss += r.l2MissesTotal;
        row_hits += s.value("dram.rowHits");
        row_conflicts += s.value("dram.rowConflicts");
        idle += s.value("dram.contentionIdleCycles");
        busy += s.value("dram.contentionDemandCycles") +
                s.value("dram.contentionPrefetchCycles") +
                s.value("dram.contentionWritebackCycles");
        high_water = std::max<double>(
            high_water, s.value("regionQueue.occupancyHighWater"));
        for (const auto &[name, value] : s.counters) {
            if (name.starts_with("adaptive.transitions"))
                transitions += value;
        }
        const JobSpec &job = spec.jobs[i];
        if (job.scheme == PrefetchScheme::None ||
            job.perfection != Perfection::None)
            continue;
        fills += r.prefetchFills;
        useful += r.usefulPrefetches;
        if (const auto it = base.find(job.kernel); it != base.end()) {
            coverage += r.coveragePct(*it->second);
            ++covered;
        }
    }
    return {
        {"mem.l2_miss_rate", ratio(l2_miss, l2_access)},
        {"prefetch.accuracy", ratio(useful, fills)},
        {"prefetch.coverage_pct",
         ratio(coverage, static_cast<double>(covered))},
        {"prefetch.queue_high_water", high_water},
        {"dram.row_hit_rate", ratio(row_hits, row_hits + row_conflicts)},
        {"dram.idle_frac", ratio(idle, idle + busy)},
        {"adaptive.transitions", transitions},
    };
}

int
run(const Args &args)
{
    const std::optional<WorkloadSpec> maybe_spec = makeSpec(args.workload);
    if (!maybe_spec)
        usage(("unknown workload " + args.workload).c_str());
    const WorkloadSpec &spec = *maybe_spec;
    const uint64_t seed = args.seed;

    std::printf("grpbench %s, seed %llu: %zu jobs per pass (%zu "
                "kernels), %s DRAM, %llu-instruction window after a "
                "%llu-instruction warm-up, %s on %u thread(s)\n",
                spec.name.c_str(), (unsigned long long)seed,
                spec.jobs.size(), spec.kernels.size(), spec.dram.c_str(),
                (unsigned long long)spec.window,
                (unsigned long long)(spec.window / 4),
                spec.replay ? "replaying one shared recording per kernel"
                            : "each job standalone",
                spec.threads);

    // The reference pass runs on one thread: its per-job digests are
    // what every later pass, at any thread count, must reproduce. It
    // also warms the process up, so it is not timed.
    std::map<std::string, uint64_t> extend_to;
    Verifier verifier(spec);
    const PassResult ref = runPass(spec, seed, 1, 1, extend_to, nullptr);
    verifier.check(ref, "1 thread");
    const Shape shape = shapeOf(spec, ref);

    // Timed passes keep only their timings: their outcomes are checked
    // (and folded into @p phases) and then dropped, so the process's
    // peak RSS does not grow with the number of passes.
    const auto run_passes = [&](double budget_s, size_t min_passes,
                                int prof_level, SpanLog *log,
                                PhaseTotals *phases) {
        std::vector<PassResult> passes;
        const auto start = Clock::now();
        while (passes.size() < min_passes ||
               secondsSince(start) < budget_s) {
            passes.push_back(runPass(spec, seed, spec.threads,
                                     prof_level, extend_to, log));
            verifier.check(passes.back(), "repeat");
            if (phases) {
                for (const SweepOutcome &o : passes.back().jobs)
                    phases->add(o);
            }
            passes.back().jobs = {};
        }
        return passes;
    };
    // Retired instructions over the sum of each job's median
    // simulation time across passes (at the nominal host speed, or as
    // measured): a host hiccup slows one job of one pass, and the
    // per-job median discards it.
    using JobTimes = std::vector<double> PassResult::*;
    const auto throughput = [](const std::vector<PassResult> &passes,
                               JobTimes times) {
        double sim_s = 0.0;
        for (size_t j = 0; j < (passes.front().*times).size(); ++j) {
            std::vector<double> v;
            for (const PassResult &p : passes)
                v.push_back((p.*times)[j]);
            sim_s += summarize(v).median;
        }
        return ratio(static_cast<double>(passes.front().retired), sim_s);
    };
    const auto pass_throughput = [](const std::vector<PassResult> &passes) {
        std::vector<double> v;
        for (const PassResult &p : passes) {
            double sim_s = 0.0;
            for (double s : p.jobSimNominalS)
                sim_s += s;
            v.push_back(ratio(static_cast<double>(p.retired), sim_s));
        }
        return summarize(v);
    };

    std::vector<Metric> metrics;
    if (!args.trace) {
        const std::vector<PassResult> passes =
            run_passes(args.seconds, 3, 1, nullptr, nullptr);
        std::vector<double> wall, setup, raw_wall, raw_setup, speed;
        for (const PassResult &p : passes) {
            wall.push_back(p.wallNominalS);
            setup.push_back(p.setupNominalS);
            raw_wall.push_back(p.wallS);
            raw_setup.push_back(p.setupS);
            speed.push_back(p.speed);
        }
        const double ips = throughput(passes, &PassResult::jobSimNominalS);
        const Summary pass_ips = pass_throughput(passes);
        const Summary wall_s = summarize(wall);
        const Summary setup_s = summarize(setup);
        const Summary speed_k = summarize(speed);
        const double rss = peakRssMb();
        std::printf("end-to-end metrics (median over %zu timed passes; "
                    "host clock at the nominal host speed unless marked "
                    "simulated):\n",
                    passes.size());
        std::printf("  %-18s %14s %-6s per-job medians; per pass [q1 "
                    "%s, q3 %s] n=%zu\n",
                    "sim_inst_per_s", number(ips).c_str(), "inst/s",
                    number(pass_ips.q1).c_str(),
                    number(pass_ips.q3).c_str(), pass_ips.n);
        printSummaryLine("wall_s", wall_s, "s");
        printSummaryLine("setup_s", setup_s, "s");
        std::printf("  %-18s %14s %-6s process high-water, n=1\n",
                    "peak_rss_mb", number(rss).c_str(), "MB");
        std::printf("  %-18s %14s %-6s simulated, geomean over %zu "
                    "kernels, exact\n",
                    "grp_speedup", number(shape.speedup).c_str(), "ratio",
                    shape.kernels);
        std::printf("  %-18s %14s %-6s simulated, geomean over %zu "
                    "kernels, exact\n",
                    "grp_traffic_ratio", number(shape.traffic).c_str(),
                    "ratio", shape.kernels);
        std::printf("  %-18s %14s %-6s %llu failed / %llu attempted "
                    "jobs\n",
                    "job_fail_ratio",
                    number(ratio(static_cast<double>(verifier.failed()),
                                 static_cast<double>(
                                     verifier.attempted())))
                        .c_str(),
                    "ratio", (unsigned long long)verifier.failed(),
                    (unsigned long long)verifier.attempted());
        std::printf("  host speed factor %s [q1 %s, q3 %s] (calibration "
                    "time / nominal; 1 = %g ns per iteration); as "
                    "measured: sim_inst_per_s %s, wall_s %s, setup_s %s\n",
                    number(speed_k.median).c_str(),
                    number(speed_k.q1).c_str(), number(speed_k.q3).c_str(),
                    kCalibrationNominalNs,
                    number(throughput(passes, &PassResult::jobSimS)).c_str(),
                    number(summarize(raw_wall).median).c_str(),
                    number(summarize(raw_setup).median).c_str());
        metrics = {
            {"sim_inst_per_s", "inst/s", ips},
            {"wall_s", "s", wall_s.median},
            {"setup_s", "s", setup_s.median},
            {"peak_rss_mb", "MB", rss},
            {"grp_speedup", "ratio", shape.speedup},
            {"grp_traffic_ratio", "ratio", shape.traffic},
        };
    } else {
        // Untraced passes first: raising the profiling level is sticky
        // process-wide (obs/host_prof.hh), so they must not follow the
        // traced ones.
        const std::vector<PassResult> plain =
            run_passes(0.4 * args.seconds, 2, 1, nullptr, nullptr);
        SpanLog log;
        PhaseTotals phases;
        const std::vector<PassResult> traced =
            run_passes(0.4 * args.seconds, 2, 2, &log, &phases);

        std::vector<KernelProbe> probes;
        const uint64_t probe_ops = spec.window + spec.window / 4;
        for (const std::string &kernel : spec.kernels) {
            const uint64_t job = log.newId();
            ScopedSpan span(&log, "probe", 0, job, kernel);
            probes.push_back(probeKernel(kernel, seed, probe_ops,
                                         spec.dram, log, span.id(), job));
        }

        std::vector<double> job_s, recording_s, busy;
        double recorded_ops = 0;
        for (const PassResult &p : plain) {
            job_s.insert(job_s.end(), p.jobS.begin(), p.jobS.end());
            double rec = 0;
            for (double r : p.recordingS)
                rec += r;
            recording_s.push_back(rec);
            busy.push_back(ratio(p.busyS, p.threads * p.wallS));
            recorded_ops = static_cast<double>(p.recordedOps);
        }
        KernelProbe sum;
        for (const KernelProbe &k : probes) {
            sum.buildMs += k.buildMs;
            sum.hintsMs += k.hintsMs;
            sum.interpOps += k.interpOps;
            sum.interpNs += k.interpNs;
            sum.l2Accesses += k.l2Accesses;
            sum.cacheNs += k.cacheNs;
            sum.queueCalls += k.queueCalls;
            sum.queueNs += k.queueNs;
            sum.serves += k.serves;
            sum.serveNs += k.serveNs;
            sum.ticks += k.ticks;
            sum.tickNs += k.tickNs;
        }
        const double kernels = static_cast<double>(probes.size());
        const double serve_ns = ratio(sum.serveNs, sum.serves);
        const bool legacy = spec.dram == "legacy";
        uint64_t traced_retired = 0;
        for (const PassResult &p : traced)
            traced_retired += p.retired;
        const double plain_ips =
            throughput(plain, &PassResult::jobSimNominalS);
        const double traced_ips =
            throughput(traced, &PassResult::jobSimNominalS);

        std::map<std::string, double> values = simulatedLayers(spec, ref);
        values.insert({
            {"workloads.build_ms", ratio(sum.buildMs, kernels)},
            {"compiler.hints_ms", ratio(sum.hintsMs, kernels)},
            {"workloads.interp_ns_per_op",
             ratio(sum.interpNs, static_cast<double>(sum.interpOps))},
            {"workloads.interp_share_pct",
             100.0 * ratio(phases.self["interp"], phases.total["run"])},
            {"harness.recording_s", summarize(recording_s).median},
            {"harness.recorded_ops", recorded_ops},
            {"harness.recorded_mb",
             recorded_ops * sizeof(grp::TraceOp) / (1024.0 * 1024.0)},
            {"harness.job_s_p50", percentile(job_s, 50)},
            {"harness.job_s_p90", percentile(job_s, 90)},
            {"harness.worker_busy_frac", summarize(busy).median},
            {"cpu.tick_ns", phases.nsPerCall("cpuTick")},
            {"cpu.ticks_per_inst",
             ratio(phases.calls["cpuTick"],
                   static_cast<double>(traced_retired))},
            {"mem.cache_access_ns",
             ratio(sum.cacheNs, static_cast<double>(sum.l2Accesses))},
            {"mem.access_ns", phases.nsPerCall("memAccess")},
            {"mem.tick_ns", phases.nsPerCall("memTick")},
            {"mem.mshr_ns", phases.nsPerCall("mshr")},
            {"prefetch.dequeue_ns", phases.nsPerCall("engineDequeue")},
            {"prefetch.dequeue_ns.srp",
             phases.nsPerCall("engineDequeue/srp")},
            {"prefetch.dequeue_ns.grp-var",
             phases.nsPerCall("engineDequeue/grp-var")},
            {"prefetch.queue_probe_ns",
             ratio(sum.queueNs, static_cast<double>(sum.queueCalls))},
            {"prefetch.issue_ns", phases.nsPerCall("prefetchIssue")},
            {"prefetch.notify_ns", phases.nsPerCall("engineNotify")},
            {"dram.serve_ns.legacy", legacy ? serve_ns : 0.0},
            {"dram.serve_ns.ddr4-2400",
             spec.dram == "ddr4-2400" ? serve_ns : 0.0},
            {"dram.tick_ns.ddr4-2400",
             spec.dram == "ddr4-2400"
                 ? ratio(sum.tickNs, static_cast<double>(sum.ticks))
                 : 0.0},
            {"adaptive.epoch_ns", phases.nsPerCall("adaptive")},
            {"sim.events_ns", phases.nsPerCall("events")},
            {"obs.trace_overhead_pct",
             100.0 * ratio(plain_ips - traced_ips, plain_ips)},
        });

        std::printf("per-layer metrics (%zu untraced + %zu traced "
                    "passes, %zu kernel probes, %zu spans):\n",
                    plain.size(), traced.size(), probes.size(),
                    log.spanCount());
        for (const LayerMetricDef &def : kLayerMetrics) {
            const double value = values.at(def.name);
            std::printf("  %-28s %14s %-6s moves %s\n", def.name,
                        number(value).c_str(), def.unit, def.moves);
            metrics.push_back({def.name, def.unit, value});
        }
        std::printf("  untraced %s inst/s, traced %s inst/s; peak RSS "
                    "%s MB, of which the recorded streams are %s MB\n",
                    number(plain_ips).c_str(), number(traced_ips).c_str(),
                    number(peakRssMb()).c_str(),
                    number(values.at("harness.recorded_mb")).c_str());

        if (!args.spansPath.empty()) {
            const std::filesystem::path path(args.spansPath);
            if (path.has_parent_path())
                std::filesystem::create_directories(path.parent_path());
            std::ofstream out(path);
            log.write(out);
            out.close();
            if (!out) {
                std::fprintf(stderr, "grpbench: cannot write %s\n",
                             args.spansPath.c_str());
                return 1;
            }
            std::printf("  spans: %s\n", args.spansPath.c_str());
        }
    }

    printShape(spec, shape, seed);
    std::printf("  digest %016llx over %zu jobs (hostProf.* excluded); "
                "%llu of %llu job runs failed\n",
                (unsigned long long)verifier.workloadDigest(),
                spec.jobs.size(), (unsigned long long)verifier.failed(),
                (unsigned long long)verifier.attempted());
    printJson(verifier.failed() == 0, verifier.attempted(),
              verifier.failed(), metrics);
    return 0;
}

} // namespace
} // namespace grpbench

int
main(int argc, char **argv)
{
    const grpbench::Args args = grpbench::parseArgs(argc, argv);
    try {
        return grpbench::run(args);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "grpbench: %s\n", e.what());
        return 1;
    }
}
