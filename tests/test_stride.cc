/** @file Unit tests for the stride prefetcher baseline. */

#include <gtest/gtest.h>

#include "mem/dram.hh"
#include "prefetch/stride.hh"
#include "sim/logging.hh"

namespace grp
{
namespace
{

class StrideTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        setQuiet(true);
        config.scheme = PrefetchScheme::Stride;
    }

    /** Feed a strided miss stream for one ref. */
    void
    train(StridePrefetcher &pf, RefId ref, Addr base, int64_t stride,
          int n, bool hit = false)
    {
        for (int i = 0; i < n; ++i)
            pf.onL2DemandAccess(base + static_cast<Addr>(i * stride),
                                ref, {}, hit);
    }

    std::optional<PrefetchCandidate>
    pull(StridePrefetcher &pf)
    {
        for (unsigned ch = 0; ch < 4; ++ch) {
            if (auto cand = pf.dequeuePrefetch(dram, ch))
                return cand;
        }
        return std::nullopt;
    }

    SimConfig config;
    DramSystem dram{DramConfig{}};
};

TEST_F(StrideTest, LearnsAStride)
{
    StridePrefetcher pf(config);
    train(pf, 3, 0x10000, 256, 4);
    EXPECT_EQ(pf.strideFor(3), 256);
}

TEST_F(StrideTest, NoStreamWithoutConfidence)
{
    StridePrefetcher pf(config);
    pf.onL2DemandAccess(0x1000, 1, {}, false);
    pf.onL2DemandAccess(0x2000, 1, {}, false);
    // Only one delta observed: not confident yet.
    EXPECT_EQ(pf.liveStreams(), 0u);
    EXPECT_FALSE(pull(pf).has_value());
}

TEST_F(StrideTest, ConfidentMissAllocatesStream)
{
    StridePrefetcher pf(config);
    train(pf, 1, 0x10000, 192, 5);
    EXPECT_EQ(pf.liveStreams(), 1u);
    auto cand = pull(pf);
    ASSERT_TRUE(cand.has_value());
    // First prefetch lands one block-rounded stride ahead.
    EXPECT_GT(cand->blockAddr, blockAlign(0x10000 + 4 * 192));
}

TEST_F(StrideTest, SmallStridesRoundToOneBlock)
{
    StridePrefetcher pf(config);
    train(pf, 1, 0x20000, 8, 6);
    auto cand = pull(pf);
    ASSERT_TRUE(cand.has_value());
    EXPECT_EQ(cand->blockAddr,
              blockAlign(0x20000 + 5 * 8) + kBlockBytes);
}

TEST_F(StrideTest, NegativeStrideStreams)
{
    StridePrefetcher pf(config);
    train(pf, 1, 0x40000, -64, 6);
    auto cand = pull(pf);
    ASSERT_TRUE(cand.has_value());
    // One block below the lowest demand access so far.
    EXPECT_LE(cand->blockAddr, 0x40000u - 5 * 64);
}

TEST_F(StrideTest, LookaheadIsBounded)
{
    StridePrefetcher pf(config);
    train(pf, 1, 0x30000, 64, 5);
    unsigned issued = 0;
    while (pull(pf).has_value())
        ++issued;
    EXPECT_LE(issued, config.stride.bufferEntries);
}

TEST_F(StrideTest, DemandConsumptionReplenishes)
{
    StridePrefetcher pf(config);
    train(pf, 1, 0x30000, 64, 5);
    while (pull(pf).has_value()) {
    }
    // Demand catches up: two more accesses (hits now).
    pf.onL2DemandAccess(0x30000 + 5 * 64, 1, {}, true);
    EXPECT_TRUE(pull(pf).has_value());
}

TEST_F(StrideTest, StreamStopsAtPageBoundary)
{
    StridePrefetcher pf(config);
    // Miss just below a 4 KB boundary.
    const Addr base = 0x30000 + kRegionBytes - 5 * 64;
    train(pf, 1, base, 64, 5);
    unsigned issued = 0;
    while (pull(pf).has_value())
        ++issued;
    // The stream may cover at most the blocks left in the page.
    EXPECT_LE(issued, 5u);
    EXPECT_EQ(pf.liveStreams(), 0u);
    EXPECT_GT(pf.stats().value("pageBoundaryStops"), 0u);
}

TEST_F(StrideTest, LongStridesCrossPages)
{
    StridePrefetcher pf(config);
    train(pf, 1, 0x100000, 8192, 5); // 2 pages per step.
    unsigned issued = 0;
    while (pull(pf).has_value())
        ++issued;
    EXPECT_EQ(issued, config.stride.bufferEntries);
}

TEST_F(StrideTest, StrideChangeResetsConfidence)
{
    StridePrefetcher pf(config);
    train(pf, 1, 0x50000, 64, 4);
    pf.onL2DemandAccess(0x90000, 1, {}, false); // Break the pattern.
    pf.onL2DemandAccess(0x90040, 1, {}, false);
    // One confirmation of the new stride is below the threshold, so
    // the learned stride is the new one but unconfident.
    EXPECT_EQ(pf.strideFor(1), 64);
}

TEST_F(StrideTest, StreamsAreSharedAcrossRefs)
{
    StridePrefetcher pf(config);
    for (RefId ref = 0; ref < 12; ++ref)
        train(pf, ref, 0x100000 + 0x10000ull * ref, 64, 5);
    EXPECT_LE(pf.liveStreams(), config.stride.streamBuffers);
}

TEST_F(StrideTest, InvalidRefIsIgnored)
{
    StridePrefetcher pf(config);
    pf.onL2DemandAccess(0x1000, kInvalidRefId, {}, false);
    EXPECT_EQ(pf.liveStreams(), 0u);
}

TEST_F(StrideTest, CandidatesMatchRequestedChannel)
{
    StridePrefetcher pf(config);
    train(pf, 1, 0x60000, 64, 5);
    for (unsigned ch = 0; ch < 4; ++ch) {
        auto cand = pf.dequeuePrefetch(dram, ch);
        if (cand) {
            EXPECT_EQ(dram.channelOf(cand->blockAddr), ch);
        }
    }
}

TEST_F(StrideTest, ResetClearsState)
{
    StridePrefetcher pf(config);
    train(pf, 1, 0x60000, 64, 5);
    pf.reset();
    EXPECT_EQ(pf.liveStreams(), 0u);
    EXPECT_EQ(pf.strideFor(1), 0);
    EXPECT_FALSE(pull(pf).has_value());
}

} // namespace
} // namespace grp
