/**
 * @file
 * Quickstart: simulate one benchmark kernel under every prefetching
 * scheme of the paper and print speedups and traffic side by side.
 *
 *   ./quickstart [workload] [instructions]
 *
 * Defaults: equake, 400000 instructions.
 */

#include <cstdio>

#include "harness/suite.hh"
#include "sim/env.hh"
#include "sim/logging.hh"

using namespace grp;

int
main(int argc, char **argv)
try {
    setQuiet(true);
    const std::string name = argc > 1 ? argv[1] : "equake";
    RunOptions opts;
    opts.maxInstructions =
        argc > 2 ? parseUint("instructions", argv[2]) : 400'000;

    std::printf("Guided Region Prefetching quickstart: %s, %llu "
                "instructions\n\n",
                name.c_str(),
                (unsigned long long)opts.maxInstructions);

    const RunResult base = runScheme(name, PrefetchScheme::None,
                                     opts);
    const RunResult perfect =
        runPerfect(name, Perfection::PerfectL2, opts);

    std::printf("baseline IPC %.3f | perfect-L2 IPC %.3f (gap "
                "%.1f%%) | L2 miss rate %.1f%%\n\n",
                base.ipc, perfect.ipc, gapFromPerfect(base, perfect),
                base.missRatePct());

    std::printf("%-10s %8s %9s %9s %9s\n", "scheme", "speedup",
                "traffic", "coverage", "accuracy");
    const PrefetchScheme schemes[] = {
        PrefetchScheme::Stride, PrefetchScheme::Srp,
        PrefetchScheme::GrpFix, PrefetchScheme::GrpVar,
    };
    for (PrefetchScheme scheme : schemes) {
        const RunResult run = runScheme(name, scheme, opts);
        std::printf("%-10s %8.3f %8.2fx %8.1f%% %8.1f%%\n",
                    toString(scheme), speedup(run, base),
                    trafficRatio(run, base), run.coveragePct(base),
                    100.0 * run.accuracy());
    }
    std::printf("\nGRP's goal (paper, Table 1): match SRP's speedup "
                "at a fraction of its traffic.\n");
    return 0;
} catch (const std::exception &) {
    // fatal() already printed the message with its location.
    return 1;
}
