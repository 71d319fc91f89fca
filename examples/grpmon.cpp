/**
 * @file
 * grpmon — attach to a pulse stream (obs/pulse.hh) and watch a run.
 *
 *   grpmon PATH            one-shot summary of a live/finished stream
 *   grpmon PATH --follow   re-read and redraw until the stream seals
 *   grpmon PATH --check    validate; exit code encodes the verdict
 *
 * The stream is the `--pulse` sidecar of one grpsim run, or the
 * $GRP_PULSE multiplexed stream of a whole bench sweep — grpmon
 * shows one row per job either way: progress, rolling host inst/s,
 * an ETA from the recent-beat window, queue occupancy, DRAM idle
 * fraction and watchdog warnings.
 *
 * --check exit codes (monitoring scripts branch on these):
 *   0 healthy    sealed, no watchdog warnings (a *partial* seal from
 *                a clean SIGINT stop is still healthy)
 *   1 stalled    sealed or live, but stall/slowdown warnings present
 *   2 truncated  no seal record — the writer is still running, or
 *                died without winding down
 *   3 malformed  structural corruption (bad seq/clock ordering,
 *                unparseable interior records, data after the seal)
 *
 * Attaching needs no coordination with the writer: records are
 * appended one complete line at a time and the final seal republishes
 * the file atomically, so each poll simply re-reads the path (a torn
 * last line counts as truncation-in-progress, not corruption).
 */

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>

#include "obs/pulse.hh"
#include "sim/env.hh"
#include "sim/logging.hh"

using namespace grp;

namespace
{

void
usage()
{
    std::printf(
        "usage: grpmon PATH [--follow] [--check] [--interval-ms N]\n"
        "  --follow       poll PATH until the stream seals\n"
        "  --check        validate only; exit 0 healthy, 1 stalled,\n"
        "                 2 truncated, 3 malformed\n"
        "  --interval-ms  poll period for --follow (default 500)\n");
}

/** "1234567" -> "1.2M"-style compact count for the progress rows. */
std::string
compact(double value)
{
    char text[32];
    if (value >= 1e9)
        std::snprintf(text, sizeof(text), "%.2fG", value / 1e9);
    else if (value >= 1e6)
        std::snprintf(text, sizeof(text), "%.2fM", value / 1e6);
    else if (value >= 1e3)
        std::snprintf(text, sizeof(text), "%.1fk", value / 1e3);
    else
        std::snprintf(text, sizeof(text), "%.0f", value);
    return text;
}

obs::PulseAnalysis
analyzeFile(const std::string &path, bool *readable)
{
    std::ifstream file(path);
    *readable = file.good();
    return obs::analyzePulse(file);
}

void
printSummary(const obs::PulseAnalysis &analysis)
{
    for (const auto &[name, job] : analysis.jobs) {
        const double target =
            static_cast<double>(job.targetInstructions);
        const double done = static_cast<double>(job.instructions);
        const double pct = target > 0.0 ? 100.0 * done / target : 0.0;
        std::string eta = "-";
        if (!job.ended && job.rollingInstPerSec > 0.0 &&
            target > done) {
            char text[32];
            std::snprintf(text, sizeof(text), "%.0fs",
                          (target - done) / job.rollingInstPerSec);
            eta = text;
        }
        std::printf(
            "  %-24s %6.1f%%  %9s/%-9s inst  %8s inst/s  eta %-6s "
            "q %3.0f%%  idle %3.0f%%  warn %llu%s%s\n",
            (name.empty() ? job.workload + "/" + job.scheme : name)
                .c_str(),
            pct, compact(done).c_str(), compact(target).c_str(),
            compact(job.rollingInstPerSec).c_str(), eta.c_str(),
            100.0 * job.queueOccupancy, 100.0 * job.dramIdleFrac,
            (unsigned long long)job.warnings,
            job.ended ? (job.partial ? "  [partial]" : "  [done]")
                      : "",
            job.ended || job.beats ? "" : "  [starting]");
    }
    std::printf("stream: %s, %llu beats, %llu warnings%s%s\n",
                obs::toString(analysis.verdict),
                (unsigned long long)analysis.beats,
                (unsigned long long)analysis.warnings,
                analysis.sealed
                    ? (analysis.partial ? ", sealed partial"
                                        : ", sealed")
                    : ", live/unsealed",
                analysis.tornTail ? ", torn tail" : "");
}

} // namespace

int
main(int argc, char **argv)
try {
    std::string path;
    bool follow = false;
    bool check = false;
    uint64_t interval_ms = 500;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--follow") {
            follow = true;
        } else if (arg == "--check") {
            check = true;
        } else if (arg == "--interval-ms") {
            if (i + 1 >= argc) {
                usage();
                fatal("--interval-ms needs a value");
            }
            interval_ms = parseUint("--interval-ms", argv[++i]);
        } else if (arg == "--help") {
            usage();
            return 0;
        } else if (!arg.empty() && arg[0] == '-') {
            usage();
            return 1;
        } else if (path.empty()) {
            path = arg;
        } else {
            usage();
            return 1;
        }
    }
    if (path.empty()) {
        usage();
        return 1;
    }

    if (check) {
        bool readable = false;
        const obs::PulseAnalysis analysis =
            analyzeFile(path, &readable);
        if (!readable)
            fatal("cannot read pulse stream '%s'", path.c_str());
        std::printf("%s\n", obs::toString(analysis.verdict));
        for (const std::string &problem : analysis.problems)
            std::printf("  %s\n", problem.c_str());
        if (analysis.sealed && analysis.partial)
            std::printf("  sealed partial (clean early stop)\n");
        return static_cast<int>(analysis.verdict);
    }

    for (;;) {
        bool readable = false;
        const obs::PulseAnalysis analysis =
            analyzeFile(path, &readable);
        if (!readable) {
            if (!follow)
                fatal("cannot read pulse stream '%s'", path.c_str());
            // The writer may not have opened the file yet.
            std::printf("waiting for %s ...\n", path.c_str());
        } else {
            printSummary(analysis);
        }
        if (!follow || (readable && analysis.sealed))
            return 0;
        std::fflush(stdout);
        std::this_thread::sleep_for(
            std::chrono::milliseconds(interval_ms));
    }
} catch (const std::exception &) {
    // fatal() already printed the message with its location.
    return 1;
}
