#include "harness/runner.hh"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <optional>
#include <sstream>
#include <vector>

#include <unistd.h>

#include "adaptive/controller.hh"
#include "core/engine_factory.hh"
#include "cpu/cpu.hh"
#include "harness/provenance.hh"
#include "harness/replay.hh"
#include "mem/dram_backend/factory.hh"
#include "mem/memory_system.hh"
#include "obs/atomic_file.hh"
#include "obs/host_prof.hh"
#include "obs/json_writer.hh"
#include "obs/pulse.hh"
#include "obs/site_profile.hh"
#include "obs/timeseries.hh"
#include "obs/trace.hh"
#include "prefetch/region_engine.hh"
#include "sim/env.hh"
#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "workloads/predecode.hh"

namespace grp
{

namespace
{

/** Opens the global tracer for one run and guarantees it is closed
 *  (and unhooked from the run's clock) when the run ends. */
class ScopedTrace
{
  public:
    ScopedTrace(const ObsOptions &obs, const EventQueue &events,
                bool warming)
    {
        if (obs.tracePath.empty())
            return;
        obs::Tracer &tracer = obs::Tracer::instance();
        // open() warns on failure
        if (!tracer.open(obs.tracePath))
            return;
        active_ = true;
        tracer.setLevel(obs.traceLevel);
        tracer.setClock(&events);
        tracer.setWarmup(warming);
    }

    ~ScopedTrace()
    {
        if (!active_)
            return;
        obs::Tracer &tracer = obs::Tracer::instance();
        tracer.setClock(nullptr);
        tracer.close();
    }

    ScopedTrace(const ScopedTrace &) = delete;
    ScopedTrace &operator=(const ScopedTrace &) = delete;

  private:
    bool active_ = false;
};

/** Enables the thread's site profiler for one run, registers its
 *  aggregate StatGroup into the run's registry so exports carry the
 *  totals, and disables + wipes it when the run ends. */
class ScopedSiteProfile
{
  public:
    ScopedSiteProfile(const ObsOptions &obs,
                      obs::StatRegistry &registry)
        : active_(!obs.siteProfilePath.empty() ||
                  obs.siteReportTop > 0 || obs.costReport)
    {
        if (!active_)
            return;
        obs::SiteProfiler &prof = obs::SiteProfiler::instance();
        prof.clear();
        prof.setEnabled(true);
        reg_.emplace(prof.stats(), registry);
    }

    ~ScopedSiteProfile()
    {
        if (!active_)
            return;
        obs::SiteProfiler &prof = obs::SiteProfiler::instance();
        prof.setEnabled(false);
        prof.clear();
    }

    ScopedSiteProfile(const ScopedSiteProfile &) = delete;
    ScopedSiteProfile &operator=(const ScopedSiteProfile &) = delete;

    bool active() const { return active_; }

  private:
    bool active_ = false;
    std::optional<obs::ScopedStatRegistration> reg_;
};

/** Applies one run's host-profiling level (an explicit
 *  ObsOptions::hostProfLevel overrides the thread's inherited level)
 *  and captures a baseline snapshot, so profile() reports this run's
 *  delta even when earlier runs on the thread already accumulated
 *  time. Restores the previous level on destruction. */
class ScopedHostProf
{
  public:
    explicit ScopedHostProf(const ObsOptions &obs)
        : prevLevel_(obs::HostProfiler::instance().level())
    {
        obs::HostProfiler &prof = obs::HostProfiler::instance();
        if (obs.hostProfLevel >= 0)
            prof.setLevel(obs.hostProfLevel);
        active_ = prof.level() > 0;
        if (active_)
            base_ = prof.snapshot();
    }

    ~ScopedHostProf()
    {
        obs::HostProfiler::instance().setLevel(prevLevel_);
    }

    ScopedHostProf(const ScopedHostProf &) = delete;
    ScopedHostProf &operator=(const ScopedHostProf &) = delete;

    bool active() const { return active_; }

    /** The profiler's delta since this run began. */
    obs::HostProfile
    profile() const
    {
        return obs::HostProfiler::instance().snapshot().delta(base_);
    }

  private:
    int prevLevel_;
    bool active_ = false;
    obs::HostProfile base_;
};

/** Folds a host profile into a registry-visible stat group: per-phase
 *  <phase>TotalNanos / <phase>SelfNanos / <phase>Calls for every
 *  phase that fired, plus the allocation and RSS aggregates. */
void
fillHostProfStats(StatGroup &group, const obs::HostProfile &profile)
{
    for (size_t i = 0; i < obs::kNumHostPhases; ++i) {
        const obs::HostPhaseTotals &totals = profile.phases[i];
        if (!totals.calls)
            continue;
        const std::string name =
            obs::toString(static_cast<obs::HostPhase>(i));
        group.counter(name + "TotalNanos") += totals.totalNanos;
        group.counter(name + "SelfNanos") += totals.selfNanos;
        group.counter(name + "Calls") += totals.calls;
    }
    group.counter("selfSumNanos") += profile.selfSumNanos();
    group.counter("allocCount") += profile.allocCount;
    group.counter("allocBytes") += profile.allocBytes;
    group.counter("freeCount") += profile.freeCount;
    group.counter("peakRssKb") += profile.peakRssKb;
    group.counter("level") += static_cast<uint64_t>(profile.level);
}

/** Writes the --host-prof JSON report ("-" streams to stdout). */
void
writeHostProfReport(const std::string &path,
                    const obs::HostProfile &profile)
{
    if (path == "-") {
        profile.writeJson(std::cout);
        std::cout << "\n";
        return;
    }
    obs::atomicWriteFile(
        path, [&profile](std::ostream &os) { profile.writeJson(os); },
        "host profile");
}

/** The counterfactual cost report: what prefetching destroyed
 *  (pollution, channel contention) next to what it earned
 *  (coverage), with per-site attribution when the profiler ran. */
void
printCostReport(std::ostream &os, MemorySystem &mem,
                const SimConfig &config, bool profiler_active)
{
    const StatGroup &ms = mem.stats();
    const uint64_t both = ms.value("pollutionBothHits");
    const uint64_t baseline = ms.value("pollutionBaselineMisses");
    const uint64_t pollution = ms.value("pollutionMisses");
    const uint64_t coverage = ms.value("pollutionCoverageHits");
    const uint64_t shadow_misses = ms.value("pollutionShadowMisses");
    const uint64_t real_misses = ms.value("l2DemandMissesTotal");

    os << "counterfactual cost report (shadow tags)\n";
    os << "  demand L2 accesses " << ms.value("l2DemandAccesses")
       << ": hit both " << both << ", baseline misses " << baseline
       << ", coverage hits " << coverage << ", pollution misses "
       << pollution << "\n";
    os << "  pollution attribution: " << ms.value("pollutionAttributed")
       << " charged to a site, " << ms.value("pollutionUnattributed")
       << " unattributed; victim table recorded "
       << ms.value("pollutionVictimsRecorded") << ", dropped "
       << ms.value("pollutionVictimDrops") << " (capacity "
       << mem.victimTable().capacity() << ")\n";
    os << "  identity: coverage - pollution = "
       << (static_cast<int64_t>(coverage) -
           static_cast<int64_t>(pollution))
       << ", shadow misses - real misses = "
       << (static_cast<int64_t>(shadow_misses) -
           static_cast<int64_t>(real_misses)) << "\n";

    os << "  channel cycles (demand/prefetch/writeback/idle):\n";
    for (unsigned ch = 0; ch < config.dram.channels; ++ch) {
        const DramBackend::ChannelCycles c = mem.dram().channelCycles(ch);
        os << "    ch" << ch << ": " << c.demand << " / " << c.prefetch
           << " / " << c.writeback << " / " << c.idle << " (total "
           << c.total() << ")\n";
    }
    os << "  demand request-cycles stalled behind prefetch transfers: "
       << mem.dram().stats().value("contentionDemandStallCycles")
       << "\n";

    if (!profiler_active)
        return;
    const obs::SiteProfiler &prof = obs::SiteProfiler::instance();
    const uint64_t penalty = prof.missPenalty();
    std::vector<
        const std::map<obs::SiteKey, obs::SiteCounters>::value_type *>
        order;
    for (const auto &item : prof.sites())
        order.push_back(&item);
    std::stable_sort(order.begin(), order.end(),
                     [penalty](const auto *a, const auto *b) {
                         return a->second.netCycles(penalty) <
                                b->second.netCycles(penalty);
                     });
    os << "  worst sites by net cycles (useful - pollution) * "
       << penalty << " - contention:\n";
    size_t shown = 0;
    for (const auto *item : order) {
        if (shown++ == 10)
            break;
        const obs::SiteKey &key = item->first;
        const obs::SiteCounters &site = item->second;
        os << "    site " << key.site() << " (" << toString(key.hint)
           << "): useful " << site.useful << ", pollution "
           << site.pollutionCaused << ", contention "
           << site.contentionCycles << ", net "
           << site.netCycles(penalty) << "\n";
    }
}

/** With GRP_TRACE_ALL set, a run that did not ask for a trace writes
 *  one anyway. Filenames carry the pid plus a process-wide counter so
 *  concurrent sweep jobs and repeated runs never collide. */
void
applyForcedTrace(ObsOptions &obs)
{
    const std::optional<ForcedTrace> forced = forcedTrace();
    if (!forced || !obs.tracePath.empty())
        return;
    static std::atomic<uint64_t> counter{0};
    std::error_code ec;
    std::filesystem::create_directories(forced->dir, ec);
    std::ostringstream path;
    path << forced->dir << "/trace-" << getpid() << '-'
         << counter.fetch_add(1) << ".grpbin";
    obs.tracePath = path.str();
    obs.traceLevel = forced->level;
}

} // namespace

uint64_t
instructionBudget(uint64_t fallback)
{
    const uint64_t budget = envInt("GRP_INSTRUCTIONS", 0);
    return budget > 0 ? budget : fallback;
}

std::optional<ForcedTrace>
forcedTrace()
{
    const char *dir = std::getenv("GRP_TRACE_ALL");
    if (!dir || !*dir)
        return std::nullopt;
    return ForcedTrace{dir,
                       static_cast<int>(envInt("GRP_TRACE_LEVEL", 1))};
}

RunResult
runWorkload(const std::string &workload_name, SimConfig config,
            const RunOptions &options)
{
    return runWorkload(*makeWorkload(workload_name), std::move(config),
                       options);
}

RunResult
runWorkload(Workload &workload, SimConfig config,
            const RunOptions &options_in)
{
    RunOptions options = options_in;
    applyForcedTrace(options.obs);
    ScopedHostProf host_prof(options.obs);
    GRP_HOST_SCOPE_NAMED(run_scope, 1, Run);
    GRP_HOST_SCOPE_NAMED(setup_scope, 1, Setup);
    const WorkloadInfo info = workload.info();
    const std::string &workload_name = info.name;
    if (info.recursiveDepthOverride != 0)
        config.region.recursiveDepth = info.recursiveDepthOverride;
    // Resolve the DRAM backend up front so everything downstream —
    // the provenance config hash, the cost report's channel walk and
    // the memory system's queue sizing — sees the same resolved name
    // and preset geometry.
    resolveDramBackend(config.dram);
    config.validate();

    // Workload context: built fresh for standalone runs, shared
    // through the sweep recording for grid jobs (harness/replay.hh).
    // The recording's key must match this run exactly — its program,
    // memory image and hint table were computed for that key.
    SweepRecording *rec = options.recording.get();
    if (rec) {
        fatal_if(rec->workload() != workload_name,
                 "sweep recording is for workload '%s', not '%s'",
                 rec->workload().c_str(), workload_name.c_str());
        fatal_if(rec->seed() != options.seed,
                 "sweep recording is for seed %llu, not %llu",
                 (unsigned long long)rec->seed(),
                 (unsigned long long)options.seed);
        fatal_if(rec->l2Bytes() != config.l2.sizeBytes,
                 "sweep recording targets a %llu-byte L2, not %llu",
                 (unsigned long long)rec->l2Bytes(),
                 (unsigned long long)config.l2.sizeBytes);
    }
    FunctionalMemory own_fmem;
    std::optional<Program> own_prog;
    HintTable own_table;
    HintStats hint_stats;
    if (rec) {
        hint_stats = rec->hintStats(config.policy);
    } else {
        own_prog.emplace(workload.build(own_fmem, options.seed));
        HintGenerator generator(config.policy, config.l2.sizeBytes);
        hint_stats = generator.run(*own_prog, own_table);
    }
    FunctionalMemory &fmem = rec ? rec->memory() : own_fmem;
    const HintTable &table =
        rec ? rec->hints(config.policy) : own_table;

    // Every component of this run registers into a run-local registry,
    // so concurrent sweep jobs (and same-thread nested runs) never
    // share or clobber each other's statistics.
    obs::StatRegistry registry;
    EventQueue events;
    MemorySystem mem(config, events, registry);
    if (options.obs.shadow || options.obs.costReport)
        mem.enableShadowTags();
    auto engine = makePrefetchEngine(config, fmem, mem, registry);

    // The feedback controller is a run-local layer above the engine:
    // it samples only this run's registry-backed counters, so sweep
    // determinism is untouched. A null plane everywhere else means
    // the hardware behaves exactly as before.
    fatal_if(options.obs.adaptiveReport &&
                 !config.usesAdaptiveController(),
             "--adaptive-report requires the grp-adaptive scheme");
    std::optional<adaptive::AdaptiveController> controller;
    if (config.usesAdaptiveController()) {
        controller.emplace(config.adaptive, config.region.recursiveDepth,
                           adaptive::memorySource(mem, engine.get()),
                           registry);
        mem.setControlPlane(&controller->plane());
        if (auto *region = dynamic_cast<RegionEngine *>(engine.get()))
            region->setControlPlane(&controller->plane());
    }

    // The CPU's op source: the sweep recording's stream for a grid
    // job, the interpreter for a standalone run.
    const std::unique_ptr<TraceSource> source =
        rec ? SweepRecording::makeReader(options.recording)
            : makeTraceSource(*own_prog, fmem, options.seed);
    const HintTable *cpu_hints = config.usesHints() ? &table : nullptr;
    Cpu cpu(config, mem, events, *source, cpu_hints, registry);

    const uint64_t warmup =
        options.warmupInstructions == ~0ull
            ? options.maxInstructions / 4
            : options.warmupInstructions;

    // Live telemetry: a run-owned sidecar (--pulse) or the shared
    // process-wide stream ($GRP_PULSE) that multiplexes every sweep
    // job. With neither, the optional stays empty and the sim loop
    // pays one branch per cycle.
    std::shared_ptr<obs::PulseSink> pulse_sink;
    bool owns_pulse = false;
    if (!options.obs.pulsePath.empty()) {
        pulse_sink =
            std::make_shared<obs::PulseSink>(options.obs.pulsePath);
        owns_pulse = true;
    } else {
        pulse_sink = obs::PulseSink::process();
    }
    std::optional<obs::PulseMeter> pulse;
    if (pulse_sink && pulse_sink->ok()) {
        obs::PulseRunMeta meta;
        if (!owns_pulse) {
            meta.job = !obs::pulseJobLabel().empty()
                           ? obs::pulseJobLabel()
                           : workload_name + "/" +
                                 toString(config.scheme);
        }
        meta.workload = workload_name;
        meta.scheme = toString(config.scheme);
        meta.seed = options.seed;
        meta.targetInstructions = options.maxInstructions + warmup;
        pulse.emplace(pulse_sink, owns_pulse, options.obs.pulse,
                      std::move(meta));
    }
    // Beat-cadence snapshot of the run's key rates; string stat
    // lookups are fine here — this runs a few hundred times per run,
    // not per cycle.
    const auto sample_pulse = [&](Tick now) {
        obs::PulseSample s;
        s.instructions = cpu.retiredInstructions();
        s.cycles = now;
        const StatGroup &ms = mem.stats();
        s.prefetchesIssued = ms.value("prefetchesIssued");
        s.prefetchFills = ms.value("prefetchFills");
        s.usefulPrefetches = ms.value("usefulPrefetches");
        s.pollutionMisses = ms.value("pollutionMisses");
        if (engine) {
            s.queueDepth = engine->queueDepth();
            s.queueCapacity = engine->queueCapacity();
        }
        const StatGroup &ds = mem.dram().stats();
        s.dramIdleCycles = ds.value("contentionIdleCycles");
        s.dramTotalCycles = s.dramIdleCycles +
                            ds.value("contentionDemandCycles") +
                            ds.value("contentionPrefetchCycles") +
                            ds.value("contentionWritebackCycles");
        return s;
    };

    ScopedTrace trace(options.obs, events, warmup > 0);
    ScopedSiteProfile site_profile(options.obs, registry);
    if (site_profile.active()) {
        // Net-cycles prices one avoided/suffered miss at a full
        // memory round trip under this run's DRAM timing.
        obs::SiteProfiler::instance().setMissPenalty(
            config.dram.rowConflictCycles + config.dram.transferCycles);
    }
    std::optional<obs::TimeSeries> series;
    if (!options.obs.timeseriesPath.empty())
        series.emplace(options.obs.timeseriesBucket);

    // Stall fast-forward (see docs/PERFORMANCE.md): when the CPU is
    // provably stalled and the memory system has no per-cycle work,
    // jump time straight to the next tick at which anything can
    // change, batch-applying the skipped cycles' accounting. The
    // memory system defers its idle cycles' stall notes under the
    // same decision. Level-3 tracing records a Stall event per
    // throttled cycle, which cannot be batched, so it forces
    // per-cycle stepping and the full arbitration walk.
    const bool fast_forward =
        envInt("GRP_FAST_FORWARD", 1) != 0 &&
        !obs::Tracer::instance().enabled(
            obs::traceLevelOf(obs::TraceEvent::Stall));
    mem.setDeferral(fast_forward);

    // The periodic observers, each with the one tick at which it is
    // next due (kMaxTick when the run has no such observer): the
    // controller epoch at E, 2E, ..., the time-series bucket at 0, B,
    // 2B, ..., and the stop/wall-floor poll. The poll reads an atomic
    // and the clock, so it runs once per kPollCycles, in the
    // iterations for ticks 0x3FFF, 0x7FFF, ...
    constexpr Tick kPollCycles = 0x4000;
    const Tick epoch_cycles = config.adaptive.epochCycles;
    Tick next_epoch = controller ? epoch_cycles : kMaxTick;
    Tick next_bucket = series ? 0 : kMaxTick;
    Tick next_poll = kPollCycles - 1;
    const auto next_due = [&] {
        return std::min({next_epoch, next_bucket, next_poll});
    };
    // Fires every observer due at tick @p now, the epoch before the
    // bucket that samples the controller; true when the poll found a
    // stop request. The stop check is deliberately independent of
    // pulse enablement — SIGINT winds down cleanly with telemetry off.
    const auto fire_due = [&](Tick now) {
        if (now == next_epoch) {
            GRP_HOST_SCOPE(1, Adaptive);
            controller->onEpoch(now);
            next_epoch += epoch_cycles;
        }
        if (now == next_bucket) {
            GRP_HOST_SCOPE(1, Timeseries);
            next_bucket += series->bucket();
            series->record("prefetchQueueDepth", now,
                           engine ? static_cast<double>(
                                        engine->queueDepth())
                                  : 0.0);
            series->record("busyChannels", now,
                           mem.dram().busyChannels(now));
            // Bank prep visibility exists only on queued backends;
            // gating the track keeps legacy time-series artefacts
            // byte-identical.
            if (mem.dram().queued()) {
                series->record("activeBanks", now,
                               mem.dram().activeBanks(now));
            }
            series->record("l2MshrInFlight", now,
                           mem.l2Mshrs().inFlight());
            series->record("demandQueueDepth", now,
                           static_cast<double>(
                               mem.demandQueueDepth()));
            series->record("writebackQueueDepth", now,
                           static_cast<double>(
                               mem.writebackQueueDepth()));
            if (controller) {
                series->record("adaptiveSpatialRegionBlocks", now,
                               static_cast<double>(
                                   controller->spatialRegionBlocks()));
                series->record("adaptiveTransitions", now,
                               static_cast<double>(
                                   controller->totalTransitions()));
            }
        }
        if (now != next_poll)
            return false;
        next_poll += kPollCycles;
        if (obs::stopRequested())
            return true;
        // Beats sample the clock after their tick, as the loop's does.
        if (pulse && pulse->wallFloorDue())
            pulse->beat(sample_pulse(now + 1));
        return false;
    };

    // Simulates until @p target instructions have retired, the CPU
    // runs out of ops or the poll finds a stop request (returns true).
    // It returns at its target before any fast forward, so no skip
    // runs past the last instruction.
    Tick cycle = 0;
    const auto run_until = [&](uint64_t target) {
        if (cpu.done() || cpu.retiredInstructions() >= target)
            return false;
        Tick now = cycle;
        Tick due = next_due();
        bool stop = false;
        for (;;) {
            {
                GRP_HOST_SCOPE(2, Events);
                events.advanceTo(now);
            }
            {
                GRP_HOST_SCOPE(2, CpuTick);
                cpu.tick();
            }
            {
                GRP_HOST_SCOPE(2, MemTick);
                mem.tick();
            }
            if (now == due) {
                stop = fire_due(now);
                due = next_due();
            }
            ++now;
            if (stop || cpu.done() ||
                cpu.retiredInstructions() >= target)
                break;
            // The instruction-driven beat: one compare per cycle.
            if (pulse && pulse->due(cpu.retiredInstructions()))
                pulse->beat(sample_pulse(now));
            if (!fast_forward)
                continue;
            // The iteration for tick now-1 just completed. Every
            // skipped tick must be one where (a) the CPU can only
            // repeat its stall accounting, (b) no event fires, (c)
            // the memory system only repeats its prefetch stall
            // notes (the DRAM backend books channel cycles itself),
            // and (d) neither a periodic observer nor the deadlock
            // watchdog would trigger.
            const Cpu::StallState st = cpu.stallState(now - 1);
            if (!st.stalled)
                continue;
            GRP_HOST_SCOPE(2, Events);
            const Tick skip_to =
                std::min({events.nextEventTick(), st.readyTick,
                          mem.nextWorkTick(now - 1),
                          cpu.deadlockTick(), due});
            if (skip_to > now) {
                cpu.fastForward(skip_to - now, st.robFullPath);
                mem.fastForwardTicks(now, skip_to);
                now = skip_to;
            }
        }
        cycle = now;
        return stop;
    };
    setup_scope.stop();

    GRP_HOST_SCOPE_NAMED(loop_scope, 1, SimLoop);
    bool stopped = run_until(warmup);
    uint64_t warm_instructions = 0;
    uint64_t warm_cycles = 0;
    if (warmup > 0 && cpu.retiredInstructions() >= warmup) {
        // End of warmup: discard cold-start statistics.
        mem.resetStats();
        if (engine.get())
            engine->resetStats();
        obs::Tracer::instance().setWarmup(false);
        // Restart the site table with the measured window so its
        // column sums reconcile with the post-reset registry
        // totals (warmup-era fills still in flight attribute to
        // the warmup columns via FillRecord::warm).
        obs::SiteProfiler::instance().clear();
        if (controller)
            controller->onWarmupBoundary();
        warm_instructions = cpu.retiredInstructions();
        warm_cycles = cycle;
    }
    if (!stopped)
        stopped = run_until(warmup + options.maxInstructions);
    loop_scope.stop();
    if (pulse) {
        pulse->finish(sample_pulse(cycle), stopped,
                      stopped ? "interrupted" : "completed");
    }

    GRP_HOST_SCOPE_NAMED(finish_scope, 1, Finish);
    RunResult result;
    result.workload = workload_name;
    result.scheme = config.scheme;
    result.perfection = config.perfection;
    result.partial = stopped;
    result.info = info;
    result.instructions = cpu.retiredInstructions() - warm_instructions;
    result.cycles = cpu.cycles() - warm_cycles;
    result.ipc = result.cycles
                     ? static_cast<double>(result.instructions) /
                           static_cast<double>(result.cycles)
                     : 0.0;
    result.trafficBytes = mem.trafficBytes();
    result.l2DemandAccesses = mem.stats().value("l2DemandAccesses");
    result.l2MissesTotal = mem.stats().value("l2DemandMissesTotal");
    result.l2MissesToMemory = mem.l2DemandMisses();
    result.prefetchFills = mem.stats().value("prefetchFills");
    // Measured-window first-uses only; warmup-era fills consumed
    // after the boundary are attributed separately so accuracy()
    // compares fills and uses over the same window.
    result.usefulPrefetches = mem.stats().value("usefulPrefetches");
    result.warmupUsefulPrefetches =
        mem.stats().value("usefulPrefetchWarmupCarryover");
    // Structural invariant behind RunResult::accuracy(): warmup
    // carryover is attributed separately, so measured-window uses
    // cannot exceed measured-window fills. A violation is an
    // attribution bug — count it (the stat exports as 0 in healthy
    // runs) and abort debug builds.
    if (result.usefulPrefetches > result.prefetchFills) {
        ++mem.stats().counter("accuracyClampEvents");
        warn("accuracy invariant violated: useful %llu > fills %llu",
             (unsigned long long)result.usefulPrefetches,
             (unsigned long long)result.prefetchFills);
        assert(!"useful prefetches exceeded prefetch fills");
    }
    result.hints = hint_stats;

    // When profiling is on, fold the run's host-time attribution into
    // the registry as a hostProf group so every exporter (JSON, CSV,
    // text dump, result.stats) carries it. The group exists only when
    // the profiler is active: GRP_HOST_PROF=0 artefacts stay
    // byte-identical to unprofiled runs.
    std::optional<StatGroup> host_stats;
    std::optional<obs::ScopedStatRegistration> host_stats_reg;
    if (host_prof.active()) {
        host_stats.emplace("hostProf");
        fillHostProfStats(*host_stats, host_prof.profile());
        host_stats_reg.emplace(*host_stats, registry);
    }
    result.stats = registry.snapshot();

    if (auto *region = dynamic_cast<RegionEngine *>(engine.get())) {
        const Distribution &sizes = region->regionSizes();
        for (unsigned blocks = 1; blocks <= kBlocksPerRegion;
             blocks <<= 1) {
            const uint64_t count = sizes.count(blocks);
            if (count)
                result.regionSizes[blocks] = count;
        }
    }

    finish_scope.stop();

    GRP_HOST_SCOPE_NAMED(export_scope, 1, StatsExport);
    const ObsOptions &obs = options.obs;
    // Top-level additions to the stats JSON: the partial-run marker
    // (only on interrupted runs) and the provenance block.
    const auto stats_extra = [&](obs::JsonWriter &json) {
        if (result.partial)
            json.kv("partial", true);
        json.key("provenance");
        writeProvenance(json, config);
    };
    const auto partial_extra = [&](obs::JsonWriter &json) {
        if (result.partial)
            json.kv("partial", true);
    };
    if (!obs.statsJsonPath.empty())
        registry.exportJsonFile(obs.statsJsonPath, stats_extra);
    if (!obs.statsCsvPath.empty())
        registry.exportCsvFile(obs.statsCsvPath);
    if (series)
        series->exportJsonFile(obs.timeseriesPath);
    if (site_profile.active()) {
        obs::SiteProfiler &prof = obs::SiteProfiler::instance();
        if (!obs.siteProfilePath.empty())
            prof.exportJsonFile(obs.siteProfilePath, partial_extra);
        if (obs.siteReportTop > 0)
            prof.writeReport(std::cout,
                             static_cast<size_t>(obs.siteReportTop));
    }
    if (obs.costReport)
        printCostReport(std::cout, mem, config, site_profile.active());
    if (obs.adaptiveReport && controller)
        controller->writeReport(std::cout);
    if (obs.dumpStats)
        registry.dumpText(std::cout);
    export_scope.stop();
    run_scope.stop();

    // Written after the run scope closes so the report prices
    // everything but its own serialization.
    if (host_prof.active() && !obs.hostProfPath.empty())
        writeHostProfReport(obs.hostProfPath, host_prof.profile());
    return result;
}

} // namespace grp
