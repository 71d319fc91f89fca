/** @file Unit tests for the region engine under srp-throttled: SRP
 *  with the accuracy governor. */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "mem/dram.hh"
#include "prefetch/region_engine.hh"
#include "sim/logging.hh"

namespace grp
{
namespace
{

class ThrottledSrpTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        setQuiet(true);
        config.scheme = PrefetchScheme::SrpThrottled;
    }

    /** The engine samples its accuracy epochs from this synthetic
     *  cumulative sample instead of a live MemorySystem. */
    adaptive::Signals::Source
    src()
    {
        return [this] { return feed; };
    }

    /** Pull up to @p max candidates across all channels. */
    unsigned
    pull(RegionEngine &engine, unsigned max)
    {
        unsigned issued = 0;
        while (issued < max) {
            bool any = false;
            for (unsigned ch = 0; ch < 4 && issued < max; ++ch) {
                if (engine.dequeuePrefetch(dram, ch)) {
                    ++issued;
                    any = true;
                }
            }
            if (!any)
                break;
        }
        return issued;
    }

    /**
     * Drive one full evaluation window (kThrottleWindow dequeues),
     * feeding the synthetic sample as if every dequeue issued a
     * prefetch of which @p useful were eventually used. The useful
     * count is fed up front so the evaluation at the window's last
     * dequeue sees it; fresh regions are allocated on demand.
     */
    void
    window(RegionEngine &engine, uint64_t useful)
    {
        feed.usefulPrefetches += useful;
        unsigned dequeued = 0;
        unsigned region = 0;
        while (dequeued < RegionEngine::kThrottleWindow &&
               !engine.throttled()) {
            if (engine.dequeuePrefetch(dram, dequeued % 4)) {
                ++dequeued;
                ++feed.prefetchesIssued;
            } else {
                engine.onL2DemandMiss(base_ + region++ * kRegionBytes,
                                      0, {});
            }
        }
        base_ += 0x4000000; // Next window uses disjoint regions.
    }

    /** A throttled engine over the synthetic sample. */
    RegionEngine
    make()
    {
        return RegionEngine(config, mem, src());
    }

    SimConfig config;
    FunctionalMemory mem;
    DramSystem dram{DramConfig{}};
    adaptive::Sample feed;
    Addr base_ = 0x100000;
};

TEST_F(ThrottledSrpTest, ExportsTheThrottledCounterSet)
{
    RegionEngine engine = make();
    EXPECT_EQ(engine.stats().name(), "throttledSrp");
    std::vector<std::string> names;
    for (const auto &[name, counter] : engine.stats().counters())
        names.push_back(name);
    EXPECT_EQ(names, (std::vector<std::string>{
                         "missesWhileThrottled", "regionsAllocated",
                         "regionsUpdated", "resumes", "throttleEvents"}));
}

TEST_F(ThrottledSrpTest, BehavesLikeSrpWhileAccurate)
{
    RegionEngine engine = make();
    engine.onL2DemandMiss(0x100000, 0, {});
    EXPECT_FALSE(engine.throttled());
    EXPECT_EQ(pull(engine, 63), 63u);
}

TEST_F(ThrottledSrpTest, ThrottlesWhenNothingIsUseful)
{
    RegionEngine engine = make();
    window(engine, 0);
    EXPECT_TRUE(engine.throttled());
    EXPECT_GT(engine.stats().value("throttleEvents"), 0u);
    // While throttled, nothing issues and misses are counted as the
    // opportunity cost.
    engine.onL2DemandMiss(0x900000, 0, {});
    EXPECT_EQ(pull(engine, 8), 0u);
    EXPECT_GT(engine.stats().value("missesWhileThrottled"), 0u);
}

TEST_F(ThrottledSrpTest, UsefulFeedbackPreventsThrottle)
{
    RegionEngine engine = make();
    // Half of each window's issues prove useful: above the 20% floor.
    for (unsigned w = 0; w < 4; ++w)
        window(engine, RegionEngine::kThrottleWindow / 2);
    EXPECT_FALSE(engine.throttled());
    EXPECT_EQ(engine.stats().value("throttleEvents"), 0u);
}

TEST_F(ThrottledSrpTest, WindowWithoutIssuesCarriesNoSignal)
{
    RegionEngine engine = make();
    // kThrottleWindow dequeues whose issues never reach the memory
    // counters (a filter ate every one): the epoch has no signal, so
    // the engine holds its current (running) state.
    unsigned dequeued = 0;
    unsigned region = 0;
    while (dequeued < RegionEngine::kThrottleWindow) {
        if (engine.dequeuePrefetch(dram, dequeued % 4))
            ++dequeued;
        else
            engine.onL2DemandMiss(0x100000 + region++ * kRegionBytes,
                                  0, {});
    }
    EXPECT_FALSE(engine.throttled());
}

TEST_F(ThrottledSrpTest, ResumesAfterEnoughMisses)
{
    RegionEngine engine = make();
    window(engine, 0); // 0% accuracy under the 20% floor.
    ASSERT_TRUE(engine.throttled());
    for (unsigned miss = 1; miss < RegionEngine::kResumeMisses; ++miss)
        engine.onL2DemandMiss(0xa00000 + miss * kRegionBytes, 0, {});
    EXPECT_TRUE(engine.throttled());
    engine.onL2DemandMiss(0xa00000, 0, {});
    EXPECT_FALSE(engine.throttled());
    EXPECT_EQ(engine.stats().value("resumes"), 1u);
    // The resuming miss allocates a region again.
    engine.onL2DemandMiss(0xf00000, 0, {});
    EXPECT_GT(pull(engine, 8), 0u);
}

TEST_F(ThrottledSrpTest, ResetUnthrottles)
{
    RegionEngine engine = make();
    window(engine, 0);
    ASSERT_TRUE(engine.throttled());
    engine.reset();
    EXPECT_FALSE(engine.throttled());
    EXPECT_EQ(engine.stats().value("throttleEvents"), 0u);
}

} // namespace
} // namespace grp
