/**
 * @file
 * grpsim — a command-line driver for the simulator.
 *
 *   grpsim --workload mcf --scheme grp-var --instructions 1000000
 *          [--policy default|conservative|aggressive]
 *          [--seed N] [--warmup N] [--dump-stats] [--list]
 *          [--stats-json PATH] [--stats-csv PATH]
 *          [--trace PATH] [--trace-level N]
 *          [--timeseries PATH] [--timeseries-bucket N]
 *          [--site-profile PATH] [--site-report N]
 *          [--shadow] [--cost-report] [--adaptive-report]
 *          [--host-prof PATH] [--host-prof-level N]
 *          [--pulse PATH] [--pulse-interval N] [--provenance]
 *
 * Runs one (workload, scheme) pair through the harness and prints
 * the headline metrics. --pulse appends live progress beats
 * (obs/pulse.hh JSONL) that `grpmon PATH --follow` can tail while
 * the run is alive; --pulse-interval overrides the beat cadence
 * (default ~1% of the instruction budget). SIGINT/SIGTERM stop the
 * run cleanly at the next beat boundary: every requested artefact is
 * still exported, marked "partial": true, and grpsim exits 130 (a
 * second signal aborts immediately). --provenance prints the build
 * identity (git SHA, compiler, build type, flags) plus the config
 * hash for the parsed command line and exits; the same block is
 * embedded in every --stats-json export. The observability flags export the full
 * statistics registry as JSON/CSV, record the prefetch lifecycle
 * trace (a .grpbin flight-recorder file, rejected up front unless
 * the path ends in .grpbin; --trace - streams it to stdout for
 * piping into grptrace, and grptrace --jsonl renders it as text),
 * sample queue/channel/MSHR time series and profile per-hint-site
 * behaviour; --shadow runs the counterfactual shadow
 * tags (pollution/coverage classification, mem.pollution* counters)
 * and --cost-report additionally prints the cost report (implies
 * --shadow). --host-prof writes the host-side self-profile (where
 * the simulator's own wall time went, by phase) as JSON; it implies
 * profiling level 2 unless --host-prof-level or GRP_HOST_PROF says
 * otherwise. Every flag accepts both "--flag value" and
 * "--flag=value"; a numeric flag whose value is not a plain
 * non-negative decimal integer is rejected with the flag's name.
 * Output paths are validated up front: a path
 * whose parent directory does not exist is rejected before the
 * simulation spends any time — except the sentinel "-", which
 * streams the artefact to stdout (--stats-json, --stats-csv,
 * --host-prof).
 */

#include <climits>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>

#include "harness/provenance.hh"
#include "harness/runner.hh"
#include "mem/dram_backend/factory.hh"
#include "obs/host_prof.hh"
#include "obs/json_writer.hh"
#include "obs/pulse.hh"
#include "obs/trace.hh"
#include "sim/env.hh"
#include "sim/logging.hh"
#include "workloads/workload.hh"

using namespace grp;

namespace
{

/** First SIGINT/SIGTERM: request a clean stop at the next beat
 *  boundary (partial artefacts still get exported). A second signal
 *  means the wind-down itself is stuck — exit immediately. */
extern "C" void
onStopSignal(int)
{
    if (obs::stopRequested())
        std::_Exit(130);
    obs::requestStop();
}

PrefetchScheme
parseScheme(const std::string &name)
{
    const PrefetchScheme all[] = {
        PrefetchScheme::None,         PrefetchScheme::Stride,
        PrefetchScheme::Srp,          PrefetchScheme::GrpFix,
        PrefetchScheme::GrpVar,       PrefetchScheme::PointerHw,
        PrefetchScheme::PointerHwRec, PrefetchScheme::SrpPlusPointer,
        PrefetchScheme::SrpThrottled, PrefetchScheme::GrpAdaptive,
    };
    for (PrefetchScheme scheme : all) {
        if (name == toString(scheme))
            return scheme;
    }
    fatal("unknown scheme '%s'", name.c_str());
}

CompilerPolicy
parsePolicy(const std::string &name)
{
    for (CompilerPolicy policy :
         {CompilerPolicy::Conservative, CompilerPolicy::Default,
          CompilerPolicy::Aggressive}) {
        if (name == toString(policy))
            return policy;
    }
    fatal("unknown policy '%s'", name.c_str());
}

/** Reject an output path whose parent directory does not exist —
 *  otherwise a long simulation runs to completion and then silently
 *  (Tracer) or fatally (exports) fails to write its one artifact. */
std::string
outputPath(const std::string &flag, const std::string &path)
{
    if (path == "-") // stdout sentinel: nothing to validate
        return path;
    const std::filesystem::path parent =
        std::filesystem::path(path).parent_path();
    if (!parent.empty() && !std::filesystem::is_directory(parent)) {
        fatal("%s '%s': parent directory '%s' does not exist",
              flag.c_str(), path.c_str(), parent.string().c_str());
    }
    return path;
}

void
usage()
{
    std::printf(
        "usage: grpsim [--workload NAME] [--scheme SCHEME]\n"
        "              [--instructions N] [--warmup N] [--seed N]\n"
        "              [--policy POLICY] [--dram BACKEND]\n"
        "              [--dump-stats] [--list]\n"
        "              [--stats-json PATH] [--stats-csv PATH]\n"
        "              [--trace PATH.grpbin|-] [--trace-level N]\n"
        "              [--timeseries PATH] [--timeseries-bucket N]\n"
        "              [--site-profile PATH] [--site-report N]\n"
        "              [--shadow] [--cost-report] [--adaptive-report]\n"
        "              [--host-prof PATH] [--host-prof-level N]\n"
        "              [--pulse PATH] [--pulse-interval N]\n"
        "              [--provenance]\n"
        "schemes: none stride srp grp-fix grp-var grp-adaptive ptr-hw "
        "ptr-hw-rec srp+ptr srp-throttled\n"
        "policies: conservative default aggressive\n"
        "dram backends: legacy ddr4-2400 hbm2 lpddr4 (or GRP_DRAM)\n");
}

} // namespace

int
main(int argc, char **argv)
try {
    std::string workload_name = "equake";
    SimConfig config;
    config.scheme = PrefetchScheme::GrpVar;
    RunOptions options;
    options.obs.traceLevel = 2;
    bool show_provenance = false;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        // Accept both "--flag value" and "--flag=value".
        std::string inline_value;
        bool has_inline = false;
        if (const size_t eq = arg.find('='); eq != std::string::npos) {
            inline_value = arg.substr(eq + 1);
            arg = arg.substr(0, eq);
            has_inline = true;
        }
        auto value = [&]() -> std::string {
            if (has_inline)
                return inline_value;
            if (i + 1 >= argc) {
                usage();
                fatal("%s needs a value", arg.c_str());
            }
            return argv[++i];
        };
        auto number = [&](uint64_t max = UINT64_MAX) {
            return parseUint(arg.c_str(), value().c_str(), max);
        };
        if (arg == "--workload") {
            workload_name = value();
        } else if (arg == "--scheme") {
            config.scheme = parseScheme(value());
        } else if (arg == "--policy") {
            config.policy = parsePolicy(value());
        } else if (arg == "--dram") {
            // Validated (and preset geometry applied) by the run's
            // resolveDramBackend; fatal early on an unknown name so
            // the error names the flag, not the config field.
            config.dram.backend = resolveDramBackendName(value());
        } else if (arg == "--instructions") {
            options.maxInstructions = number();
        } else if (arg == "--warmup") {
            options.warmupInstructions = number();
        } else if (arg == "--seed") {
            options.seed = number();
        } else if (arg == "--dump-stats") {
            options.obs.dumpStats = true;
        } else if (arg == "--stats-json") {
            options.obs.statsJsonPath = outputPath(arg, value());
        } else if (arg == "--stats-csv") {
            options.obs.statsCsvPath = outputPath(arg, value());
        } else if (arg == "--trace") {
            options.obs.tracePath = outputPath(arg, value());
            fatal_if(!obs::isTracePath(options.obs.tracePath),
                     "--trace '%s': lifecycle traces are .grpbin files "
                     "(or '-' for stdout); grptrace --jsonl renders "
                     "one as text",
                     options.obs.tracePath.c_str());
        } else if (arg == "--trace-level") {
            options.obs.traceLevel = static_cast<int>(number(INT_MAX));
        } else if (arg == "--timeseries") {
            options.obs.timeseriesPath = outputPath(arg, value());
        } else if (arg == "--timeseries-bucket") {
            options.obs.timeseriesBucket = number();
        } else if (arg == "--site-profile") {
            options.obs.siteProfilePath = outputPath(arg, value());
        } else if (arg == "--site-report") {
            options.obs.siteReportTop = static_cast<int>(number(INT_MAX));
        } else if (arg == "--shadow") {
            options.obs.shadow = true;
        } else if (arg == "--cost-report") {
            options.obs.costReport = true;
        } else if (arg == "--adaptive-report") {
            options.obs.adaptiveReport = true;
        } else if (arg == "--host-prof") {
            options.obs.hostProfPath = outputPath(arg, value());
        } else if (arg == "--host-prof-level") {
            options.obs.hostProfLevel =
                static_cast<int>(number(INT_MAX));
        } else if (arg == "--pulse") {
            options.obs.pulsePath = outputPath(arg, value());
        } else if (arg == "--pulse-interval") {
            options.obs.pulse.intervalInstructions = number();
        } else if (arg == "--provenance") {
            show_provenance = true;
        } else if (arg == "--list") {
            for (const auto &name : workloadNames())
                std::printf("%s\n", name.c_str());
            return 0;
        } else {
            usage();
            return arg == "--help" ? 0 : 1;
        }
    }

    // A report was asked for but nothing enables profiling: default
    // to the full hot-loop attribution level rather than emitting an
    // empty report.
    if (!options.obs.hostProfPath.empty() &&
        options.obs.hostProfLevel < 0 &&
        obs::HostProfiler::envLevel() == 0) {
        options.obs.hostProfLevel = 2;
    }

    if (show_provenance) {
        // Reflects the full command line (scheme/policy feed the
        // config hash), so parse first, print, and skip the run.
        obs::JsonWriter json(std::cout);
        json.beginObject();
        json.kv("schema", "grp-provenance-v1");
        json.key("provenance");
        writeProvenance(json, config);
        json.endObject();
        std::cout << "\n";
        return 0;
    }

    std::signal(SIGINT, onStopSignal);
    std::signal(SIGTERM, onStopSignal);

    const RunResult result = runWorkload(workload_name, config, options);
    const uint64_t warmup =
        options.warmupInstructions == ~0ull
            ? options.maxInstructions / 4
            : options.warmupInstructions;

    // When a machine-readable report streams to stdout ("-"), the
    // human summary moves to stderr so `grpsim --stats-json - | jq`
    // sees a clean document.
    FILE *const out = (options.obs.statsJsonPath == "-" ||
                       options.obs.statsCsvPath == "-" ||
                       options.obs.hostProfPath == "-" ||
                       options.obs.tracePath == "-")
                          ? stderr
                          : stdout;
    std::fprintf(out, "workload      %s (%s)\n", workload_name.c_str(),
                 result.info.missCause.c_str());
    std::fprintf(out, "scheme        %s, policy %s, seed %llu\n",
                 toString(config.scheme), toString(config.policy),
                 (unsigned long long)options.seed);
    std::fprintf(out, "dram          %s\n",
                 resolveDramBackendName(config.dram.backend).c_str());
    std::fprintf(out,
                 "hints         %u refs: %u spatial, %u pointer, %u "
                 "recursive, %u indirect\n",
                 result.hints.memInsts, result.hints.spatial,
                 result.hints.pointer, result.hints.recursive,
                 result.hints.indirect);
    std::fprintf(out, "instructions  %llu (after %llu warmup)\n",
                 (unsigned long long)result.instructions,
                 (unsigned long long)warmup);
    std::fprintf(out, "cycles        %llu\n",
                 (unsigned long long)result.cycles);
    std::fprintf(out, "IPC           %.4f\n", result.ipc);
    std::fprintf(out,
                 "traffic       %llu bytes (%llu fills + %llu "
                 "prefetches + %llu writebacks)\n",
                 (unsigned long long)result.trafficBytes,
                 (unsigned long long)result.stats.value(
                     "mem.demandFills"),
                 (unsigned long long)result.prefetchFills,
                 (unsigned long long)result.stats.value(
                     "mem.writebacks"));
    std::fprintf(out,
                 "L2 misses     %llu to memory, %llu total demand\n",
                 (unsigned long long)result.l2MissesToMemory,
                 (unsigned long long)result.l2MissesTotal);
    if (result.prefetchFills) {
        std::fprintf(out,
                     "accuracy      %.4f (%llu useful / %llu fills, "
                     "+%llu warmup carryover)\n",
                     result.accuracy(),
                     (unsigned long long)result.usefulPrefetches,
                     (unsigned long long)result.prefetchFills,
                     (unsigned long long)result.warmupUsefulPrefetches);
    }
    if (result.partial) {
        std::fprintf(out,
                     "PARTIAL       stopped early on request; "
                     "exported artefacts carry \"partial\": true\n");
        return 130;
    }
    return 0;
} catch (const std::exception &) {
    // fatal() already printed the message with its location.
    return 1;
}
