#include "probes.hh"

#include <algorithm>
#include <chrono>
#include <memory>
#include <optional>
#include <vector>

#include "compiler/hint_generator.hh"
#include "core/hint_table.hh"
#include "cpu/trace.hh"
#include "mem/cache.hh"
#include "mem/dram_backend/factory.hh"
#include "mem/functional_memory.hh"
#include "obs/host_prof.hh"
#include "obs/stat_registry.hh"
#include "prefetch/region_queue.hh"
#include "sim/config.hh"
#include "workloads/predecode.hh"
#include "workloads/workload.hh"

namespace grpbench
{

namespace
{

using Clock = std::chrono::steady_clock;

double
nanosSince(Clock::time_point start)
{
    return std::chrono::duration<double, std::nano>(Clock::now() - start)
        .count();
}

struct L2Access
{
    grp::Addr addr;
    bool write;
};

/** Upper bound on cycles spent draining a queued backend, so a
 *  backend that never goes idle ends the probe instead of hanging. */
constexpr grp::Tick kDrainCycleLimit = 50'000'000;

/** Stores probe results so the timed loops cannot be elided. */
volatile uint64_t probeSink = 0;

} // namespace

KernelProbe
probeKernel(const std::string &kernel, uint64_t seed, uint64_t ops,
            const std::string &dram, SpanLog &log, uint64_t parent,
            uint64_t job)
{
    KernelProbe probe;
    const grp::SimConfig config;
    // The probed components register stats somewhere; a local registry
    // keeps them out of every simulation's.
    grp::obs::StatRegistry registry;

    grp::FunctionalMemory fmem;
    auto workload = grp::makeWorkload(kernel);
    std::optional<grp::Program> prog;
    {
        ScopedSpan span(&log, "workloads.build", parent, job, kernel);
        const auto start = Clock::now();
        prog.emplace(workload->build(fmem, seed));
        probe.buildMs = nanosSince(start) * 1e-6;
    }
    grp::HintTable table;
    {
        ScopedSpan span(&log, "compiler.hints", parent, job, kernel);
        const auto start = Clock::now();
        grp::HintGenerator generator(grp::CompilerPolicy::Default,
                                     config.l2.sizeBytes);
        generator.run(*prog, table);
        probe.hintsMs = nanosSince(start) * 1e-6;
    }

    {
        auto source = grp::makeTraceSource(*prog, fmem, seed);
        ScopedSpan span(&log, "workloads.interp", parent, job, kernel);
        uint64_t fold = 0;
        const auto start = Clock::now();
        while (probe.interpOps < ops) {
            const grp::TraceOp *batch = nullptr;
            const size_t n = source->nextBatch(&batch);
            if (n == 0)
                break;
            for (size_t i = 0; i < n; ++i)
                fold += batch[i].addr;
            probe.interpOps += n;
        }
        probe.interpNs = nanosSince(start);
        probeSink = fold;
    }

    // The L2 address stream: the same ops again (untimed), filtered
    // through an L1 with the simulated geometry.
    std::vector<L2Access> l2_stream;
    {
        auto source = grp::makeTraceSource(*prog, fmem, seed);
        grp::Cache l1(config.l1d, "probe.l1d", true, registry);
        uint64_t seen = 0;
        while (seen < ops) {
            const grp::TraceOp *batch = nullptr;
            const size_t n = source->nextBatch(&batch);
            if (n == 0)
                break;
            seen += n;
            for (size_t i = 0; i < n; ++i) {
                const grp::TraceOp &op = batch[i];
                if (op.kind != grp::OpKind::Load &&
                    op.kind != grp::OpKind::Store)
                    continue;
                const bool write = op.kind == grp::OpKind::Store;
                if (!l1.access(op.addr, write).hit) {
                    l1.insert(op.addr, false, write);
                    l2_stream.push_back({op.addr, write});
                }
            }
        }
    }

    std::vector<grp::Addr> misses;
    misses.reserve(l2_stream.size());
    {
        grp::Cache l2(config.l2, "probe.l2", true, registry);
        ScopedSpan span(&log, "mem.cache", parent, job, kernel);
        const auto start = Clock::now();
        for (const L2Access &a : l2_stream) {
            if (!l2.access(a.addr, a.write).hit) {
                l2.insert(a.addr, false, a.write);
                misses.push_back(a.addr);
            }
        }
        probe.cacheNs = nanosSince(start);
        probe.l2Accesses = l2_stream.size();
    }

    grp::DramConfig dram_config = config.dram;
    dram_config.backend = dram;
    {
        // Every miss opens a full-region window, then each channel
        // takes one candidate: the SRP queue's steady-state pattern.
        auto backend = grp::makeDramBackend(dram_config, registry);
        const unsigned channels = backend->config().channels;
        grp::RegionQueue queue(config.region.queueEntries,
                               config.region.lifo,
                               config.region.bankAware, registry);
        ScopedSpan span(&log, "prefetch.queue", parent, job, kernel);
        uint64_t dequeued = 0;
        const auto start = Clock::now();
        for (const grp::Addr addr : misses) {
            queue.noteSpatialMiss(addr, grp::kBlocksPerRegion, 0,
                                  grp::kInvalidRefId);
            for (unsigned ch = 0; ch < channels; ++ch)
                dequeued += queue.dequeue(*backend, ch).has_value();
        }
        probe.queueNs = nanosSince(start);
        probe.queueCalls = misses.size() * (1 + channels);
        probeSink = dequeued;
    }

    {
        auto backend = grp::makeDramBackend(dram_config, registry);
        ScopedSpan span(&log, "dram.serve", parent, job,
                        kernel + "/" + backend->name());
        uint64_t serve_ticks = 0;
        uint64_t tick_ticks = 0;
        grp::Tick now = 0;
        const auto timed_tick = [&] {
            const uint64_t t0 = grp::obs::hostTicksNow();
            backend->tick(now);
            tick_ticks += grp::obs::hostTicksNow() - t0;
            ++probe.ticks;
            while (backend->popCompleted(now)) {
            }
        };
        for (const grp::Addr addr : misses) {
            const unsigned ch = backend->channelOf(addr);
            if (!backend->queued()) {
                // Immediate backend: issue as soon as the channel is
                // free, as the memory system's arbiter does.
                now = std::max(now, backend->channelBusyUntil(ch));
            } else {
                // Queued backend: one arrival per cycle, ticking until
                // the channel's command queue has room.
                for (;;) {
                    timed_tick();
                    if (backend->canAccept(ch, now))
                        break;
                    ++now;
                }
            }
            const uint64_t t0 = grp::obs::hostTicksNow();
            backend->serve(addr, now, grp::ReqClass::Demand);
            serve_ticks += grp::obs::hostTicksNow() - t0;
            ++probe.serves;
            ++now;
        }
        const grp::Tick limit = now + kDrainCycleLimit;
        while (backend->queued() && !backend->allIdle(now) &&
               now < limit) {
            timed_tick();
            ++now;
        }
        probe.serveNs =
            static_cast<double>(grp::obs::hostTicksToNanos(serve_ticks));
        probe.tickNs =
            static_cast<double>(grp::obs::hostTicksToNanos(tick_ticks));
    }
    return probe;
}

} // namespace grpbench
