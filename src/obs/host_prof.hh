/**
 * @file
 * Host-side self-profiling: where does the simulator's own wall
 * time go?
 *
 * The ROADMAP's 10-100x inst/s goal needs an attribution substrate
 * before any tuning: this profiler carves one simulation run into a
 * static tree of phases (setup, the main cycle loop, interpreter
 * dispatch, cache probes, MSHR bookkeeping, DRAM service, prefetch
 * engine work, stats/trace overhead, export) and accumulates
 * total/self host time and call counts per phase, per thread. A
 * malloc/free counter pair plus a peak-RSS probe make allocation
 * churn in the hot loop visible next to the time it costs.
 *
 * Overhead control is at run time: while profiling is off (level 0,
 * the default), every GRP_HOST_SCOPE site costs one load of the
 * process-wide ceiling and one predictable compare (see
 * docs/PERFORMANCE.md, "Overhead budget", for what that costs on the
 * per-cycle sites).
 *
 * Phase levels:
 *  1 — run lifecycle: Run, Setup, SimLoop, Adaptive, Timeseries,
 *      Finish, StatsExport. Per-run granularity; cheap enough to
 *      leave enabled for whole bench sweeps (the timing sidecars).
 *  2 — hot loop: Events, CpuTick, Interp, MemTick, MemAccess,
 *      L2Access, Mshr, EngineNotify, DramServe, PrefetchIssue,
 *      TraceEmit, SiteProfile. Per-cycle / per-access scopes; only
 *      for attribution runs (grpsim --host-prof), where the profiler
 *      itself becomes a visible phase cost.
 *
 * Timing uses the CPU's raw cycle counter (rdtsc / cntvct_el0) and
 * calibrates ticks to nanoseconds against steady_clock over the
 * process lifetime, so a scope costs two register reads, not two
 * clock_gettime calls. Self time is exact by construction: each
 * scope subtracts its children's elapsed ticks, so the self times of
 * all phases partition the root's total.
 *
 * Accumulation is thread-local (like Tracer and SiteProfiler), so
 * concurrent sweep jobs profile independently and need no locks;
 * the sweep executor snapshots the worker's profiler around each job
 * and stores the delta in the job's outcome.
 */

#ifndef GRP_OBS_HOST_PROF_HH
#define GRP_OBS_HOST_PROF_HH

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <ostream>
#include <string>

namespace grp
{
namespace obs
{

/** Phases host time is attributed to (a static tree; parents are
 *  display metadata — actual nesting follows the runtime scope
 *  stack). */
enum class HostPhase : uint8_t
{
    Run = 0,       ///< One whole runWorkload() call (the root).
    Setup,         ///< Workload build, compiler pipeline, wiring.
    SimLoop,       ///< The main cycle loop.
    Events,        ///< EventQueue::advanceTo (DRAM fill callbacks).
    CpuTick,       ///< Cpu::tick — retire + issue.
    Interp,        ///< Interpreter dispatch (next op).
    MemTick,       ///< MemorySystem::tick — channel arbitration.
    MemAccess,     ///< L1/L2 demand path (load/store).
    L2Access,      ///< L2 probe + miss classification on L1 miss.
    Mshr,          ///< MSHR find/allocate/target/deallocate.
    EngineNotify,  ///< Engine observes a demand access/miss/fill.
    DramServe,     ///< DRAM bank/row timing for one request.
    PrefetchIssue, ///< Prefetch arbitration incl. engine dequeue.
    EngineDequeue, ///< Engine dequeues/filters one candidate.
    TraceEmit,     ///< Tracer::record formatting + buffering.
    SiteProfile,   ///< SiteProfiler table updates.
    Adaptive,      ///< Adaptive controller epoch.
    Timeseries,    ///< Time-series sampling.
    Finish,        ///< Result assembly + invariant checks.
    StatsExport,   ///< Registry/trace/profile exports + reports.
    NumPhases
};

constexpr size_t kNumHostPhases =
    static_cast<size_t>(HostPhase::NumPhases);

const char *toString(HostPhase phase);

/** Profiling level of each phase (see file comment). */
int hostProfLevelOf(HostPhase phase);

/** Nominal parent for display trees (Run for top-level phases;
 *  Run maps to itself). */
HostPhase hostPhaseParent(HostPhase phase);

/** Accumulated host time for one phase. */
struct HostPhaseTotals
{
    uint64_t totalNanos = 0; ///< Wall time inside the phase.
    uint64_t selfNanos = 0;  ///< totalNanos minus child phases.
    uint64_t calls = 0;      ///< Scope entries.
};

/** A plain-data snapshot of one thread's profiler. Snapshots
 *  subtract (delta()) so callers can attribute a window — one sweep
 *  job, one run — out of a long-lived thread profiler. */
struct HostProfile
{
    std::array<HostPhaseTotals, kNumHostPhases> phases{};
    uint64_t allocCount = 0; ///< operator new calls.
    uint64_t allocBytes = 0; ///< Bytes requested from operator new.
    uint64_t freeCount = 0;  ///< operator delete calls.
    uint64_t peakRssKb = 0;  ///< Process peak RSS (not windowed).
    int level = 0;           ///< Runtime level during the window.

    const HostPhaseTotals &
    phase(HostPhase p) const
    {
        return phases[static_cast<size_t>(p)];
    }

    bool enabled() const { return level > 0; }

    /** Sum of every phase's selfNanos; equals the root phases'
     *  total elapsed time by construction. */
    uint64_t selfSumNanos() const;

    /** Counters in *this minus @p since (peak RSS and level are
     *  taken from *this — they are not windowed quantities). */
    HostProfile delta(const HostProfile &since) const;

    /** One JSON object: {"level", "phases": {name: {totalNanos,
     *  selfNanos, calls}}, "allocCount", ...}. Phases with zero
     *  calls are omitted. */
    void writeJson(std::ostream &os) const;
};

/**
 * Process-wide high-water mark of every thread's profiling level: a
 * scope site first compares its level against this plain shared load
 * and only touches the thread-local profiler (a function call plus a
 * TLS access) when some thread could want it. The mark only rises —
 * lowering a thread's level keeps sites at the slower exact check —
 * so the fast path can use a relaxed load with no downward races.
 * With profiling off (the perf-gate default is level 1) this is what
 * makes the per-op/per-cycle level-2 sites nearly free.
 */
extern std::atomic<int> hostProfCeiling;

/** The per-thread host profiler. */
class HostProfiler
{
  public:
    /** The calling thread's profiler. Seeded with the GRP_HOST_PROF
     *  environment level, so bench sweeps profile without flag
     *  plumbing. */
    static HostProfiler &instance();

    HostProfiler();
    HostProfiler(const HostProfiler &) = delete;
    HostProfiler &operator=(const HostProfiler &) = delete;

    int level() const { return level_; }

    void
    setLevel(int level)
    {
        level_ = level;
        // Raise (never lower) the process-wide ceiling so scope
        // sites on every thread notice the new level.
        int ceiling = hostProfCeiling.load(std::memory_order_relaxed);
        while (ceiling < level_ &&
               !hostProfCeiling.compare_exchange_weak(
                   ceiling, level_, std::memory_order_relaxed)) {
        }
    }

    /** Parse GRP_HOST_PROF once per process (0 when unset). */
    static int envLevel();

    /** Current totals, including the elapsed-so-far contribution of
     *  scopes still open on this thread (so a snapshot taken inside
     *  the run still partitions: self times sum to root total). */
    HostProfile snapshot() const;

    /** Zero every accumulator (open scopes keep their start times:
     *  their full elapsed will be re-accounted at exit, so reset
     *  only between runs, not inside one). */
    void reset();

    /** @name Scope-internal interface (used by HostScope). */
    ///@{
    struct PhaseAccum
    {
        uint64_t ticks = 0;
        uint64_t selfTicks = 0;
        uint64_t calls = 0;
    };

    struct OpenScope
    {
        OpenScope *parent;
        uint64_t startTicks;
        uint64_t childTicks;
        HostPhase phase;
    };

    OpenScope *currentScope() const { return current_; }
    void setCurrentScope(OpenScope *scope) { current_ = scope; }

    void
    close(const OpenScope &scope, uint64_t end_ticks)
    {
        const uint64_t elapsed = end_ticks - scope.startTicks;
        PhaseAccum &acc = accum_[static_cast<size_t>(scope.phase)];
        acc.ticks += elapsed;
        acc.selfTicks += elapsed - scope.childTicks;
        ++acc.calls;
        if (scope.parent)
            scope.parent->childTicks += elapsed;
        current_ = scope.parent;
    }
    ///@}

  private:
    std::array<PhaseAccum, kNumHostPhases> accum_{};
    OpenScope *current_ = nullptr;
    int level_ = 0;
};

/** Raw host tick counter (rdtsc / cntvct_el0 / steady_clock). */
uint64_t hostTicksNow();

/** Convert a host-tick delta to nanoseconds using the process-wide
 *  calibration (tick source vs steady_clock). */
uint64_t hostTicksToNanos(uint64_t ticks);

/** Thread-local allocation counters maintained by the global
 *  operator new/delete replacements in host_prof.cc. */
struct HostAllocCounters
{
    uint64_t allocCount = 0;
    uint64_t allocBytes = 0;
    uint64_t freeCount = 0;
};

HostAllocCounters hostAllocCounters();

/** Process peak RSS in KB (getrusage), 0 when unavailable. */
uint64_t hostPeakRssKb();

/** RAII phase scope (see GRP_HOST_SCOPE). */
class HostScope
{
  public:
    HostScope(HostPhase phase, int lvl)
    {
        if (lvl > hostProfCeiling.load(std::memory_order_relaxed))
            return;
        HostProfiler &prof = HostProfiler::instance();
        if (lvl > prof.level())
            return;
        prof_ = &prof;
        scope_.parent = prof.currentScope();
        scope_.startTicks = hostTicksNow();
        scope_.childTicks = 0;
        scope_.phase = phase;
        prof.setCurrentScope(&scope_);
    }

    ~HostScope() { stop(); }

    /** Close the scope before the enclosing block ends (phases that
     *  follow each other in one function body). */
    void
    stop()
    {
        if (prof_) {
            prof_->close(scope_, hostTicksNow());
            prof_ = nullptr;
        }
    }

    HostScope(const HostScope &) = delete;
    HostScope &operator=(const HostScope &) = delete;

  private:
    HostProfiler *prof_ = nullptr;
    /** Written by an enabled scope's constructor and read only while
     *  prof_ is set: a disabled scope stores nothing but prof_
     *  (zeroing the record cost the per-cycle sites several percent,
     *  see docs/PERFORMANCE.md, "Overhead budget"). */
    HostProfiler::OpenScope scope_;
};

} // namespace obs
} // namespace grp

#define GRP_HOST_SCOPE_CAT2(a, b) a##b
#define GRP_HOST_SCOPE_CAT(a, b) GRP_HOST_SCOPE_CAT2(a, b)

/** Attribute the enclosing block to @p phase at profiling level
 *  @p lvl; a single branch when profiling is off. */
#define GRP_HOST_SCOPE(lvl, phase)                                    \
    GRP_HOST_SCOPE_NAMED(                                             \
        GRP_HOST_SCOPE_CAT(grp_host_scope_, __COUNTER__), lvl, phase)

/** Like GRP_HOST_SCOPE, but names the scope object so the caller can
 *  stop() it before the block ends (sequential phases in one
 *  function body). */
#define GRP_HOST_SCOPE_NAMED(name, lvl, phase)                        \
    ::grp::obs::HostScope name(::grp::obs::HostPhase::phase, (lvl))

#endif // GRP_OBS_HOST_PROF_HH
