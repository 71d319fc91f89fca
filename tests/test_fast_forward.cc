/**
 * @file
 * The stall fast-forward equivalence contract: with GRP_FAST_FORWARD
 * on (the default) the runner batch-applies skipped stall cycles and
 * the memory system defers the stall notes of its idle cycles, and
 * every exported statistic must come out exactly as if each cycle had
 * been ticked individually. These tests run the same configurations
 * with the fast-forward enabled and disabled, for every scheme on the
 * legacy DRAM model and every timing preset, and require the full
 * counter snapshots and the time-series exports to be equal. They
 * also check the per-bank accounting identity on the timing presets,
 * that a level-3 trace (which keeps per-cycle stepping) holds one
 * stall record per counted stall, and that the deadlock watchdog
 * still fires from a fast-forwarded stall.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/engine_factory.hh"
#include "cpu/cpu.hh"
#include "harness/suite.hh"
#include "obs/trace_reader.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"

namespace grp
{
namespace
{

/** Counter snapshot without the hostProf group (wall-clock phase
 *  accounting legitimately differs between the two stepping modes). */
std::map<std::string, uint64_t>
simCounters(const RunResult &result)
{
    std::map<std::string, uint64_t> out;
    for (const auto &[name, value] : result.stats.counters) {
        if (name.rfind("hostProf.", 0) != 0)
            out.emplace(name, value);
    }
    return out;
}

/** On timing backends, each bank's five state counters sum to its
 *  channel's accounted cycles. */
void
expectBankCyclesSumToChannelCycles(
    const std::map<std::string, uint64_t> &counters)
{
    static const char *kStates[5] = {
        "Idle", "Open", "Activating", "Precharging", "Refreshing",
    };
    unsigned banks = 0;
    for (unsigned ch = 0;; ++ch) {
        const std::string channel = "dram.ch" + std::to_string(ch);
        const auto total = counters.find(channel + "Cycles");
        if (total == counters.end())
            break;
        for (unsigned b = 0;; ++b) {
            const std::string bank = channel + "bank" + std::to_string(b);
            if (!counters.count(bank + "IdleCycles"))
                break;
            uint64_t sum = 0;
            for (const char *state : kStates)
                sum += counters.at(bank + state + "Cycles");
            EXPECT_EQ(sum, total->second) << bank;
            ++banks;
        }
    }
    EXPECT_GT(banks, 0u);
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

/** A gtest parameter name for @p scheme on @p dram ("srp+ptr" on
 *  "ddr4-2400" gives "srp_ptr_ddr4_2400"). */
std::string
paramName(const std::string &scheme, const std::string &dram)
{
    std::string name = scheme + "_" + dram;
    for (char &c : name)
        if (!std::isalnum(static_cast<unsigned char>(c)))
            c = '_';
    return name;
}

/** One input: a workload and its window. */
struct Window
{
    const char *workload;
    uint64_t instructions;
    uint64_t warmup; ///< ~0 keeps the default quarter warm-up.
};

const Window kWindows[] = {
    {"mcf", 30'000, 5'000},
    {"art", 30'000, 5'000},
    // This run ends inside a stall: a skip past the last instruction
    // once added 16 cycles under none (10,824 against 10,808).
    {"apsi", 33'331, ~0ull},
};

/** A scheme and the DRAM backend (GRP_DRAM) it runs on. */
using SchemeOnDram = std::tuple<PrefetchScheme, const char *>;

class FastForwardEquivalence
    : public ::testing::TestWithParam<SchemeOnDram>
{
  protected:
    void
    SetUp() override
    {
        setQuiet(true);
        setenv("GRP_DRAM", dram(), 1);
    }

    void
    TearDown() override
    {
        unsetenv("GRP_FAST_FORWARD");
        unsetenv("GRP_DRAM");
    }

    const char *dram() const { return std::get<1>(GetParam()); }
    bool timing() const { return std::string(dram()) != "legacy"; }

    RunResult
    runWith(const Window &window, const char *fast_forward)
    {
        setenv("GRP_FAST_FORWARD", fast_forward, 1);
        opts.maxInstructions = window.instructions;
        opts.warmupInstructions = window.warmup;
        return runScheme(window.workload, std::get<0>(GetParam()), opts);
    }

    RunOptions opts;
};

TEST_P(FastForwardEquivalence, StatsAreIdenticalToPerCycleStepping)
{
    for (const Window &window : kWindows) {
        const RunResult ff = runWith(window, "1");
        const RunResult step = runWith(window, "0");
        const char *workload = window.workload;
        EXPECT_EQ(ff.instructions, step.instructions) << workload;
        EXPECT_EQ(ff.cycles, step.cycles) << workload;
        EXPECT_EQ(ff.trafficBytes, step.trafficBytes) << workload;
        EXPECT_EQ(simCounters(ff), simCounters(step)) << workload;
        if (timing()) {
            SCOPED_TRACE(workload);
            expectBankCyclesSumToChannelCycles(simCounters(ff));
        }
    }
}

/** Every bucket sample lands on the same tick with the same values:
 *  fast forward never skips a bucket boundary. */
TEST_P(FastForwardEquivalence, TimeSeriesIsIdenticalToPerCycleStepping)
{
    opts.obs.timeseriesPath = ::testing::TempDir() + "ff_series.json";
    opts.obs.timeseriesBucket = 1'000;
    for (const Window &window : kWindows) {
        const RunResult ff = runWith(window, "1");
        const std::string ff_series = slurp(opts.obs.timeseriesPath);
        const RunResult step = runWith(window, "0");
        const std::string step_series = slurp(opts.obs.timeseriesPath);
        const char *workload = window.workload;
        EXPECT_NE(ff_series.find("\"busyChannels\""), std::string::npos)
            << workload;
        EXPECT_EQ(ff_series, step_series) << workload;
        EXPECT_EQ(simCounters(ff), simCounters(step)) << workload;
    }
    std::remove(opts.obs.timeseriesPath.c_str());
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, FastForwardEquivalence,
    ::testing::Combine(
        // Each engine changes its queue at its own points: an L2 hit
        // (stride), a fill (the pointer schemes), a dequeue or a miss
        // (the srp-throttled governor pauses and resumes there).
        ::testing::Values(PrefetchScheme::None, PrefetchScheme::Stride,
                          PrefetchScheme::Srp, PrefetchScheme::PointerHw,
                          PrefetchScheme::PointerHwRec,
                          PrefetchScheme::SrpPlusPointer,
                          PrefetchScheme::SrpThrottled,
                          PrefetchScheme::GrpFix, PrefetchScheme::GrpVar,
                          PrefetchScheme::GrpAdaptive),
        ::testing::Values("legacy", "ddr4-2400", "hbm2", "lpddr4")),
    [](const ::testing::TestParamInfo<SchemeOnDram> &info) {
        return paramName(toString(std::get<0>(info.param)),
                         std::get<1>(info.param));
    });

/** What one hand drive of a memory system produced. */
struct DriveResult
{
    std::vector<std::pair<uint64_t, Tick>> loads; ///< (token, tick).
    std::map<std::string, uint64_t> counters;
};

/**
 * Drive a memory system by hand over 64 KB of heap pointers, through
 * a 4 KB L1 and a 4 KB L2 so that dirty victims queue writebacks (the
 * runs above never fill their L2): random loads and stores in busy
 * phases, indirect prefetch ops in quiet ones. Some cycles are not
 * ticked at all, and some read the "mem" group mid-run.
 */
DriveResult
driveByHand(PrefetchScheme scheme, const char *dram, bool defer)
{
    SimConfig config;
    config.scheme = scheme;
    config.dram.backend = dram;
    config.l1d.sizeBytes = 4 * 1024;
    config.l2.sizeBytes = 4 * 1024;
    // Every word points back into the footprint, so the pointer
    // scanner finds targets in each fill.
    constexpr Addr kBytes = 64 * 1024;
    FunctionalMemory fmem;
    const Addr base = fmem.heapAlloc(kBytes, kRegionBytes);
    Rng fill(7);
    for (Addr a = base; a < base + kBytes; a += 8)
        fmem.write64(a, base + fill.below(kBytes));

    obs::StatRegistry registry;
    EventQueue events;
    MemorySystem mem(config, events, registry);
    const auto engine = makePrefetchEngine(config, fmem, mem, registry);
    mem.setDeferral(defer);
    DriveResult out;
    mem.setLoadCallback([&](uint64_t token) {
        out.loads.emplace_back(token, events.curTick());
    });

    // Busy phases of loads and stores alternate with quiet ones, in
    // which the prefetch queue drains and indirect ops refill it.
    Rng rng(42);
    uint64_t token = 0;
    for (Tick t = 0; t < 40'000; ++t) {
        events.advanceTo(t);
        const Addr addr = base + rng.below(kBytes);
        const RefId ref = static_cast<RefId>(rng.below(8));
        const bool busy = t % 4096 < 1024;
        switch (rng.below(busy ? 24 : 256)) {
          case 0:
            if (busy)
                mem.load(addr, ref, {}, token++);
            else
                mem.indirectPrefetch(base, 1, addr, ref);
            break;
          case 1:
            mem.store(addr, ref, {});
            break;
          case 2:
            if (rng.below(32) == 0)
                continue; // This cycle is never ticked.
            break;
          case 3:
            if (rng.below(64) == 0)
                mem.stats().value("prefetchDemandThrottled");
            break;
        }
        mem.tick();
    }
    for (const auto &[name, value] : registry.snapshot().counters)
        out.counters.emplace(name, value);
    return out;
}

/** Deferred stall notes come out as the per-cycle walk books them,
 *  with writebacks, indirect prefetch ops and unticked cycles. The
 *  drive's loads carry no hints, so grp-var's queue holds only the
 *  indirect ops' targets. */
TEST(FastForwardByHand, DeferralMatchesTheFullWalk)
{
    for (const PrefetchScheme scheme :
         {PrefetchScheme::Srp, PrefetchScheme::SrpPlusPointer,
          PrefetchScheme::GrpVar}) {
        for (const char *dram : {"legacy", "ddr4-2400"}) {
            SCOPED_TRACE(std::string(toString(scheme)) + " on " + dram);
            const DriveResult deferred = driveByHand(scheme, dram, true);
            const DriveResult walked = driveByHand(scheme, dram, false);
            EXPECT_GT(walked.counters.at("mem.writebacks"), 0u);
            EXPECT_GT(walked.counters.at("mem.prefetchDemandThrottled"),
                      0u);
            EXPECT_GT(walked.counters.at("mem.prefetchesIssued"), 0u);
            EXPECT_EQ(deferred.loads, walked.loads);
            EXPECT_EQ(deferred.counters, walked.counters);
        }
    }
}

/** A scheme on a DRAM backend, traced at level 3. */
struct TracedRun
{
    PrefetchScheme scheme;
    const char *dram;
};

class LevelThreeTrace : public ::testing::TestWithParam<TracedRun>
{
};

/**
 * Level-3 tracing keeps per-cycle stepping and the memory system's
 * full arbitration walk, so the trace holds one stall record per
 * channel per refused cycle: the measured-window records of each
 * reason equal its counter, and no (tick, channel) pair repeats.
 */
TEST_P(LevelThreeTrace, StallRecordsMatchTheCounters)
{
    setQuiet(true);
    SimConfig config;
    config.scheme = GetParam().scheme;
    config.dram.backend = GetParam().dram;
    RunOptions opts;
    opts.maxInstructions = 20'000;
    opts.obs.tracePath = ::testing::TempDir() + "grp_level3_" +
                         GetParam().dram + ".grpbin";
    opts.obs.traceLevel = 3;
    const RunResult result = runWorkload("mcf", config, opts);

    const obs::TraceParseResult trace =
        obs::readTraceFile(opts.obs.tracePath);
    ASSERT_TRUE(trace.errors.empty()) << trace.errors.front();
    uint64_t demand_in_flight = 0;
    uint64_t mshr_reserve = 0;
    uint64_t repeats = 0;
    std::set<std::pair<Tick, int>> seen;
    for (const obs::TraceLine &line : trace.lines) {
        if (line.event != obs::TraceEvent::Stall)
            continue;
        if (!seen.emplace(line.t, line.channel).second)
            ++repeats;
        if (line.warm)
            continue;
        if (line.extra ==
            static_cast<int64_t>(obs::StallReason::DemandInFlight))
            ++demand_in_flight;
        else if (line.extra ==
                 static_cast<int64_t>(obs::StallReason::MshrReserve))
            ++mshr_reserve;
        else
            ADD_FAILURE() << "stall reason " << line.extra;
    }
    EXPECT_EQ(repeats, 0u) << "(tick, channel) pairs with two stalls";
    EXPECT_GT(demand_in_flight, 0u);
    EXPECT_GT(mshr_reserve, 0u);
    EXPECT_EQ(demand_in_flight,
              result.stats.value("mem.prefetchDemandThrottled"));
    EXPECT_EQ(mshr_reserve,
              result.stats.value("mem.prefetchMshrThrottled"));
    std::remove(opts.obs.tracePath.c_str());
}

INSTANTIATE_TEST_SUITE_P(
    Runs, LevelThreeTrace,
    ::testing::Values(TracedRun{PrefetchScheme::Srp, "legacy"},
                      TracedRun{PrefetchScheme::GrpVar, "ddr4-2400"}),
    [](const ::testing::TestParamInfo<TracedRun> &info) {
        return paramName(toString(info.param.scheme), info.param.dram);
    });

/** A canned trace source (one op per next() call). */
class VectorTrace : public TraceSource
{
  public:
    explicit VectorTrace(std::vector<TraceOp> ops)
        : ops_(std::move(ops))
    {
    }

    bool
    next(TraceOp &op) override
    {
        if (pos_ >= ops_.size())
            return false;
        op = ops_[pos_++];
        return true;
    }

  private:
    std::vector<TraceOp> ops_;
    size_t pos_ = 0;
};

/**
 * The watchdog survives fast-forwarding: the runner clamps every
 * skip at Cpu::deadlockTick(), so a genuinely wedged pipeline (here:
 * a load whose memory system is never ticked, so the demand never
 * reaches DRAM) panics on the first real tick at the clamp instead
 * of being skipped past silently.
 */
TEST(FastForwardDeadlock, WatchdogFiresAtTheSkipClamp)
{
    setQuiet(true);
    SimConfig config;
    config.deadlockCycles = 1'000;

    EventQueue events;
    MemorySystem mem(config, events);
    VectorTrace trace({TraceOp::load(0x10000, 0)});
    Cpu cpu(config, mem, events, trace, nullptr);

    // Issue the load (an L1/L2 miss that queues a DRAM demand which
    // is never served) and drain the trace.
    Tick cycle = 0;
    for (; cycle < 4; ++cycle) {
        events.advanceTo(cycle);
        cpu.tick();
    }

    // The pipeline is now a pure stall the runner would fast-forward.
    const Cpu::StallState st = cpu.stallState(cycle - 1);
    ASSERT_TRUE(st.stalled);
    ASSERT_EQ(st.readyTick, kMaxTick); // Waiting on the lost load.

    // Skip exactly to the watchdog clamp, as the runner does...
    const Tick target = cpu.deadlockTick();
    ASSERT_GT(target, cycle);
    cpu.fastForward(target - cycle, st.robFullPath);
    cycle = target;

    // ...and the first per-cycle tick at the clamp must panic.
    events.advanceTo(cycle);
    EXPECT_THROW(cpu.tick(), std::logic_error);
}

} // namespace
} // namespace grp
