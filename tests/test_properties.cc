/**
 * @file
 * Parameterized property suites: invariants swept over workloads,
 * window sizes, hint encodings and address ranges.
 */

#include <gtest/gtest.h>

#include <set>

#include "core/hints.hh"
#include "harness/suite.hh"
#include "mem/dram.hh"
#include "prefetch/region_queue.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"

namespace grp
{
namespace
{

// ---------------------------------------------------------------
// Per-workload system invariants.
// ---------------------------------------------------------------

class WorkloadInvariants
    : public ::testing::TestWithParam<std::string>
{
  protected:
    void SetUp() override
    {
        setQuiet(true);
        opts.maxInstructions = 40'000;
        opts.warmupInstructions = 10'000;
    }

    RunOptions opts;
};

TEST_P(WorkloadInvariants, PerfectL2DominatesBaseline)
{
    const RunResult base =
        runScheme(GetParam(), PrefetchScheme::None, opts);
    const RunResult perfect =
        runPerfect(GetParam(), Perfection::PerfectL2, opts);
    EXPECT_GE(perfect.ipc, base.ipc * 0.99);
    EXPECT_LE(perfect.ipc, 4.0);
}

TEST_P(WorkloadInvariants, AccuracyAndCoverageAreSane)
{
    const RunResult base =
        runScheme(GetParam(), PrefetchScheme::None, opts);
    for (PrefetchScheme scheme :
         {PrefetchScheme::Stride, PrefetchScheme::Srp,
          PrefetchScheme::GrpVar}) {
        const RunResult run = runScheme(GetParam(), scheme, opts);
        EXPECT_GE(run.accuracy(), 0.0) << toString(scheme);
        EXPECT_LE(run.accuracy(), 1.0) << toString(scheme);
        EXPECT_LE(run.coveragePct(base), 100.0) << toString(scheme);
        EXPECT_GT(run.ipc, 0.0) << toString(scheme);
    }
}

TEST_P(WorkloadInvariants, GrpTrafficBoundedBySrp)
{
    const RunResult srp =
        runScheme(GetParam(), PrefetchScheme::Srp, opts);
    const RunResult grp =
        runScheme(GetParam(), PrefetchScheme::GrpVar, opts);
    // GRP is SRP minus unhinted prefetches (plus small pointer /
    // indirect additions): it must never need materially more
    // bandwidth. The absolute slack absorbs a handful of blocks of
    // timing noise on nearly-traffic-free short windows.
    EXPECT_LE(grp.trafficBytes, srp.trafficBytes +
                                    srp.trafficBytes / 5 +
                                    64 * kBlockBytes)
        << GetParam();
}

TEST_P(WorkloadInvariants, SchemesRetireTheSameWindow)
{
    const RunResult base =
        runScheme(GetParam(), PrefetchScheme::None, opts);
    const RunResult grp =
        runScheme(GetParam(), PrefetchScheme::GrpVar, opts);
    const int64_t delta = static_cast<int64_t>(base.instructions) -
                          static_cast<int64_t>(grp.instructions);
    EXPECT_LE(delta < 0 ? -delta : delta, 8) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(
    Suite, WorkloadInvariants,
    ::testing::ValuesIn(workloadNames()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        return info.param;
    });

// ---------------------------------------------------------------
// Region queue window properties.
// ---------------------------------------------------------------

class RegionWindowProperty : public ::testing::TestWithParam<unsigned>
{
  protected:
    void SetUp() override { setQuiet(true); }
};

TEST_P(RegionWindowProperty, CandidatesStayInsideAlignedWindow)
{
    const unsigned window = GetParam();
    RegionQueue queue(32, true, false);
    DramSystem dram{DramConfig{}};
    Rng rng(window);
    for (int trial = 0; trial < 50; ++trial) {
        queue.clear();
        const Addr miss = rng.below(1u << 26) << kBlockShift;
        queue.noteSpatialMiss(miss, window, 0, 0);
        const uint64_t base_block =
            blockNumber(miss) & ~static_cast<uint64_t>(window - 1);
        unsigned count = 0;
        for (int draws = 0; draws < 200; ++draws) {
            bool any = false;
            for (unsigned ch = 0; ch < 4; ++ch) {
                auto cand = queue.dequeue(dram, ch);
                if (!cand)
                    continue;
                any = true;
                ++count;
                const uint64_t block = blockNumber(cand->blockAddr);
                EXPECT_GE(block, base_block);
                EXPECT_LT(block, base_block + window);
                EXPECT_NE(block, blockNumber(miss));
            }
            if (!any)
                break;
        }
        EXPECT_EQ(count, window - 1);
    }
}

INSTANTIATE_TEST_SUITE_P(Windows, RegionWindowProperty,
                         ::testing::Values(2u, 4u, 8u, 16u, 32u,
                                           64u));

// ---------------------------------------------------------------
// Hint encoding properties.
// ---------------------------------------------------------------

struct EncodingCase
{
    uint8_t coeff;
    uint32_t bound;
};

class HintEncodingProperty
    : public ::testing::TestWithParam<EncodingCase>
{
};

TEST_P(HintEncodingProperty, RegionBlocksIsBoundedPowerOfTwo)
{
    LoadHints hints;
    hints.flags = kHintSpatial | kHintSizeValid;
    hints.sizeCoeff = GetParam().coeff;
    hints.loopBound = GetParam().bound;
    const unsigned blocks = hints.regionBlocks(kBlocksPerRegion);
    EXPECT_TRUE(isPowerOfTwo(blocks));
    EXPECT_GE(blocks, 2u);
    EXPECT_LE(blocks, kBlocksPerRegion);
    // The window always covers the loop's span (up to the cap).
    const uint64_t span_bytes =
        static_cast<uint64_t>(GetParam().bound)
        << GetParam().coeff;
    if (blocks < kBlocksPerRegion) {
        EXPECT_GE(static_cast<uint64_t>(blocks) * kBlockBytes,
                  span_bytes);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, HintEncodingProperty,
    ::testing::Values(EncodingCase{0, 1}, EncodingCase{0, 200},
                      EncodingCase{2, 16}, EncodingCase{3, 12},
                      EncodingCase{3, 512}, EncodingCase{6, 3},
                      EncodingCase{6, 100'000},
                      EncodingCase{5, 64}));

// ---------------------------------------------------------------
// DRAM mapping properties.
// ---------------------------------------------------------------

class DramMappingProperty : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(DramMappingProperty, MappingIsStableAndSplitsTraffic)
{
    DramSystem dram{DramConfig{}};
    Rng rng(GetParam());
    std::set<unsigned> channels;
    for (int i = 0; i < 4096; ++i) {
        const Addr addr = rng.below(1ull << 32);
        const unsigned channel = dram.channelOf(addr);
        EXPECT_LT(channel, 4u);
        EXPECT_EQ(channel, dram.channelOf(addr)); // Stable.
        EXPECT_LT(dram.bankOf(addr), 16u);
        channels.insert(channel);
        // Same block => same mapping regardless of offset.
        EXPECT_EQ(dram.channelOf(blockAlign(addr)), channel);
        EXPECT_EQ(dram.rowOf(blockAlign(addr)), dram.rowOf(addr));
    }
    EXPECT_EQ(channels.size(), 4u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DramMappingProperty,
                         ::testing::Values(1ull, 2ull, 3ull));

} // namespace
} // namespace grp
