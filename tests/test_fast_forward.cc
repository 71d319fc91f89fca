/**
 * @file
 * The stall fast-forward equivalence contract: with GRP_FAST_FORWARD
 * on (the default) the runner batch-applies skipped stall cycles, and
 * every exported statistic must come out exactly as if each cycle had
 * been ticked individually. These tests run the same configurations
 * with the fast-forward enabled and disabled, on the legacy DRAM
 * model and every timing preset, and require the full counter
 * snapshots and the time-series exports to be equal. They also check
 * the per-bank accounting identity on the timing presets, and that
 * the deadlock watchdog still fires from a fast-forwarded stall.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <tuple>

#include "cpu/cpu.hh"
#include "harness/suite.hh"
#include "sim/logging.hh"

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
        ::testing::Values(PrefetchScheme::None, PrefetchScheme::Srp,
                          PrefetchScheme::GrpVar,
                          PrefetchScheme::GrpAdaptive),
        ::testing::Values("legacy", "ddr4-2400", "hbm2", "lpddr4")),
    [](const ::testing::TestParamInfo<SchemeOnDram> &info) {
        std::string name = std::string(toString(std::get<0>(info.param))) +
                           "_" + std::get<1>(info.param);
        for (char &c : name)
            if (c == '-')
                c = '_';
        return name;
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
