/**
 * @file
 * The experiment runner: executes one (workload, configuration)
 * pair end-to-end — build the kernel, run the compiler pipeline,
 * wire CPU + memory + prefetch engine, simulate a fixed instruction
 * window — and collects the metrics the paper reports.
 */

#ifndef GRP_HARNESS_RUNNER_HH
#define GRP_HARNESS_RUNNER_HH

#include <map>
#include <memory>
#include <optional>
#include <string>

#include "compiler/hint_generator.hh"
#include "obs/stat_registry.hh"
#include "obs/trace.hh"
#include "sim/config.hh"
#include "sim/logging.hh"
#include "workloads/workload.hh"

namespace grp
{

class SweepRecording;

/** Metrics from one simulation run. */
struct RunResult
{
    std::string workload;
    PrefetchScheme scheme = PrefetchScheme::None;
    Perfection perfection = Perfection::None;

    uint64_t instructions = 0;
    uint64_t cycles = 0;
    double ipc = 0.0;

    /** The run stopped early at a beat boundary (SIGINT/SIGTERM via
     *  obs::requestStop()); every exported artefact carries a
     *  matching partial marker. */
    bool partial = false;

    uint64_t trafficBytes = 0;     ///< Fills + writebacks, in bytes.
    uint64_t l2DemandAccesses = 0;
    uint64_t l2MissesTotal = 0;    ///< All L2 demand misses.
    uint64_t l2MissesToMemory = 0; ///< Misses that paid DRAM latency.
    uint64_t prefetchFills = 0;    ///< Prefetch-class DRAM transfers.
    uint64_t usefulPrefetches = 0; ///< Prefetched blocks later used.
    /** First-uses of blocks prefetched before the warmup boundary;
     *  excluded from usefulPrefetches and thus from accuracy(). */
    uint64_t warmupUsefulPrefetches = 0;

    /** Every counter and distribution summary the simulation
     *  registered, keyed "group.stat". */
    obs::StatSnapshot stats;

    /**
     * Useful / issued (0 when nothing was issued). Warmup-era fills
     * are attributed separately (warmupUsefulPrefetches), so the
     * ratio is structurally <= 1. The harness checks the invariant
     * once per run when it populates the result — violations bump
     * mem.accuracyClampEvents (exported as 0 in healthy runs) and
     * abort debug builds — so the clamp here is a silent last resort
     * for hand-built results.
     */
    double
    accuracy() const
    {
        if (!prefetchFills)
            return 0.0;
        const double ratio = static_cast<double>(usefulPrefetches) /
                             static_cast<double>(prefetchFills);
        return ratio > 1.0 ? 1.0 : ratio;
    }

    /** L2 miss rate over demand accesses, percent. */
    double
    missRatePct() const
    {
        return l2DemandAccesses
                   ? 100.0 * static_cast<double>(l2MissesTotal) /
                         static_cast<double>(l2DemandAccesses)
                   : 0.0;
    }

    /** Coverage vs a baseline run, percent (paper's Table 5). */
    double
    coveragePct(const RunResult &base) const
    {
        if (base.l2MissesToMemory == 0)
            return 0.0;
        return 100.0 *
               (1.0 - static_cast<double>(l2MissesToMemory) /
                          static_cast<double>(base.l2MissesToMemory));
    }

    /** Allocated variable-region sizes (blocks -> count). */
    std::map<unsigned, uint64_t> regionSizes;

    HintStats hints; ///< Static compiler statistics (Table 3).
    WorkloadInfo info;
};

/** Observability outputs for a run; empty paths disable each one. */
struct ObsOptions
{
    std::string statsJsonPath;   ///< Registry JSON export.
    std::string statsCsvPath;    ///< Registry CSV export.
    std::string tracePath;       ///< Lifecycle trace (.grpbin or "-").
    int traceLevel = 1;          ///< Levels <= this are emitted.
    std::string timeseriesPath;  ///< Queue/channel/MSHR trajectories.
    uint64_t timeseriesBucket = 4096; ///< Cycles between samples.
    std::string siteProfilePath; ///< Per-hint-site profile JSON.
    /** Print the top-N worst-offender sites to stdout (0 = off). */
    int siteReportTop = 0;
    bool dumpStats = false;      ///< Text dump to stdout at the end.
    /** Run the counterfactual shadow tags: classify every demand L2
     *  access as baseline miss / pollution miss / coverage hit and
     *  attribute pollution to the causing (site, hint class). Pure
     *  bookkeeping — never changes timing. */
    bool shadow = false;
    /** Print the counterfactual cost report (classification totals,
     *  per-channel cycle breakdown, worst sites by net cycles) to
     *  stdout; implies shadow and enables the site profiler. */
    bool costReport = false;
    /** Print the adaptive controller's end-of-run state report
     *  (epochs, transitions per knob, time-in-state per class).
     *  Rejected (fatal) when the scheme has no controller. */
    bool adaptiveReport = false;
    /** Host-profiler JSON report path ("-" writes to stdout); empty
     *  disables the report (profiling may still be on via
     *  GRP_HOST_PROF, surfacing through the hostProf.* stat group). */
    std::string hostProfPath;
    /** Runtime host-profiling level for this run (0 disables, 1 run
     *  lifecycle, 2 adds the hot-loop phases); -1 inherits the
     *  thread's level, seeded from GRP_HOST_PROF. */
    int hostProfLevel = -1;
    /** Live-telemetry sidecar (obs/pulse.hh) owned by this run;
     *  empty disables it. Independent of $GRP_PULSE, which instead
     *  multiplexes every run in the process onto one shared
     *  stream. */
    std::string pulsePath;
    /** Beat cadence and watchdog thresholds for the pulse stream. */
    PulseConfig pulse;
};

/** Options for a run. */
struct RunOptions
{
    uint64_t maxInstructions = 1'000'000;
    /** Instructions executed before statistics are reset (cold-start
     *  discard, the role SimPoint plays in the paper). Defaults to
     *  maxInstructions / 4 when left at ~0. */
    uint64_t warmupInstructions = ~0ull;
    uint64_t seed = 42;
    /**
     * Shared in-memory run context (harness/replay.hh): the run
     * reuses the recording's built workload, functional memory, hint
     * table and recorded access stream instead of rebuilding them.
     * The recording's (workload, seed, L2 size) key must match this
     * run's, or the run aborts. BenchSweep injects this for grid
     * jobs; null builds everything and interprets the program.
     */
    std::shared_ptr<SweepRecording> recording;
    ObsOptions obs;
};

/**
 * Simulate @p workload under @p config: warm up, reset the
 * statistics, then run the measured window.
 *
 * The compiler pipeline always runs (its statistics are reported
 * regardless), but the CPU executes the hinted binary only for
 * hint-consuming schemes, matching the paper's methodology of
 * separate binaries. A workload that is not in the registry (an
 * example's own kernel) runs through this form.
 */
RunResult runWorkload(Workload &workload, SimConfig config,
                      const RunOptions &options);

/** Simulate the registered workload @p workload_name. */
RunResult runWorkload(const std::string &workload_name,
                      SimConfig config, const RunOptions &options);

/** Read GRP_INSTRUCTIONS from the environment (default @p fallback);
 *  lets bench binaries scale their windows without recompiling. */
uint64_t instructionBudget(uint64_t fallback = 1'000'000);

/** Environment-forced tracing, for pricing always-on flight recording
 *  without teaching every bench binary a trace flag. */
struct ForcedTrace
{
    std::string dir; ///< GRP_TRACE_ALL: where each run's .grpbin goes.
    int level = 1;   ///< GRP_TRACE_LEVEL (default 1).
};

/** The forced-trace request, or nullopt when GRP_TRACE_ALL is unset
 *  or empty. */
std::optional<ForcedTrace> forcedTrace();

} // namespace grp

#endif // GRP_HARNESS_RUNNER_HH
