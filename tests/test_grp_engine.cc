/** @file Unit tests for the region engine under the hint schemes
 *  (grp-fix, grp-var, grp-adaptive): GRP, the paper's contribution. */

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "mem/dram.hh"
#include "prefetch/region_engine.hh"
#include "sim/logging.hh"

namespace grp
{
namespace
{

class GrpRegionTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        setQuiet(true);
        config.scheme = PrefetchScheme::GrpVar;
    }

    std::vector<PrefetchCandidate>
    drain(RegionEngine &engine)
    {
        std::vector<PrefetchCandidate> out;
        bool progress = true;
        while (progress) {
            progress = false;
            for (unsigned ch = 0; ch < 4; ++ch) {
                if (auto cand = engine.dequeuePrefetch(dram, ch)) {
                    out.push_back(*cand);
                    progress = true;
                }
            }
        }
        return out;
    }

    SimConfig config;
    FunctionalMemory mem;
    DramSystem dram{DramConfig{}};
};

TEST_F(GrpRegionTest, RejectsNoneAndStride)
{
    for (PrefetchScheme scheme :
         {PrefetchScheme::None, PrefetchScheme::Stride}) {
        config.scheme = scheme;
        EXPECT_THROW(RegionEngine(config, mem), std::runtime_error)
            << toString(scheme);
    }
}

TEST_F(GrpRegionTest, ExportsTheGrpCounterSet)
{
    for (PrefetchScheme scheme :
         {PrefetchScheme::GrpFix, PrefetchScheme::GrpVar,
          PrefetchScheme::GrpAdaptive}) {
        config.scheme = scheme;
        RegionEngine engine(config, mem);
        EXPECT_EQ(engine.stats().name(), "grpEngine");
        std::vector<std::string> names;
        for (const auto &[name, counter] : engine.stats().counters())
            names.push_back(name);
        EXPECT_EQ(names, (std::vector<std::string>{
                             "candidatesOffered", "indirectOps",
                             "indirectTargets", "linesScanned",
                             "missesUnhinted", "pointersFound",
                             "regionsAllocated", "regionsUpdated"}))
            << toString(scheme);
    }
}

TEST_F(GrpRegionTest, UnhintedMissesAreIgnored)
{
    RegionEngine engine(config, mem);
    engine.onL2DemandMiss(0x10000, 0, LoadHints{});
    EXPECT_TRUE(drain(engine).empty());
    EXPECT_EQ(engine.stats().value("missesUnhinted"), 1u);
}

TEST_F(GrpRegionTest, SpatialHintTriggersFullRegion)
{
    RegionEngine engine(config, mem);
    LoadHints hints;
    hints.flags = kHintSpatial;
    engine.onL2DemandMiss(0x10000, 0, hints);
    EXPECT_EQ(drain(engine).size(), 63u);
    EXPECT_EQ(engine.stats().value("regionsAllocated"), 1u);
}

TEST_F(GrpRegionTest, SizeHintShrinksRegion)
{
    RegionEngine engine(config, mem);
    LoadHints hints;
    hints.flags = kHintSpatial | kHintSizeValid;
    hints.sizeCoeff = 3;
    hints.loopBound = 16; // 128 B -> 2 blocks.
    engine.onL2DemandMiss(0x10000, 0, hints);
    EXPECT_EQ(drain(engine).size(), 1u); // Window minus miss block.
    EXPECT_EQ(engine.regionSizes().count(2), 1u);
}

TEST_F(GrpRegionTest, FixModeIgnoresSizeHints)
{
    config.scheme = PrefetchScheme::GrpFix;
    RegionEngine engine(config, mem);
    LoadHints hints;
    hints.flags = kHintSpatial | kHintSizeValid;
    hints.sizeCoeff = 3;
    hints.loopBound = 16;
    engine.onL2DemandMiss(0x10000, 0, hints);
    EXPECT_EQ(drain(engine).size(), 63u);
}

TEST_F(GrpRegionTest, PointerFillScansForTargets)
{
    RegionEngine engine(config, mem);
    const Addr node = mem.heapAlloc(64, 64);
    const Addr next = mem.heapAlloc(64, 64);
    mem.write64(node + 16, next);

    engine.onFill(node, /*ptr_depth=*/1, ReqClass::Demand);
    auto candidates = drain(engine);
    // Two blocks per discovered pointer.
    ASSERT_EQ(candidates.size(), 2u);
    std::set<Addr> addrs;
    for (const auto &cand : candidates) {
        addrs.insert(cand.blockAddr);
        // Depth 1 fill spawns depth-0 prefetches: chase terminates.
        EXPECT_EQ(cand.ptrDepth, 0u);
    }
    EXPECT_TRUE(addrs.count(blockAlign(next)));
    EXPECT_TRUE(addrs.count(blockAlign(next) + kBlockBytes));
}

TEST_F(GrpRegionTest, RecursiveFillPropagatesDepth)
{
    RegionEngine engine(config, mem);
    const Addr node = mem.heapAlloc(64, 64);
    const Addr next = mem.heapAlloc(64, 64);
    mem.write64(node, next);
    engine.onFill(node, /*ptr_depth=*/6, ReqClass::Prefetch);
    auto candidates = drain(engine);
    ASSERT_FALSE(candidates.empty());
    for (const auto &cand : candidates)
        EXPECT_EQ(cand.ptrDepth, 5u);
}

TEST_F(GrpRegionTest, ZeroDepthFillDoesNotScan)
{
    RegionEngine engine(config, mem);
    const Addr node = mem.heapAlloc(64, 64);
    mem.write64(node, mem.heapAlloc(64, 64));
    engine.onFill(node, 0, ReqClass::Prefetch);
    EXPECT_TRUE(drain(engine).empty());
    EXPECT_EQ(engine.stats().value("linesScanned"), 0u);
}

TEST_F(GrpRegionTest, IndirectGeneratesScaledTargets)
{
    RegionEngine engine(config, mem);
    // Index array of 16 4-byte entries in one block.
    const Addr index_block = mem.heapAlloc(64, 64);
    for (unsigned i = 0; i < 16; ++i)
        mem.write32(index_block + 4 * i, 100 + i);
    const Addr base = 0x1000'0000;

    engine.indirectPrefetch(base, /*elem_size=*/8,
                            index_block + 20, /*ref=*/7);
    auto candidates = drain(engine);
    // Distinct blocks of base + 8*(100..115); many collapse into
    // the same block.
    std::set<Addr> expected;
    for (unsigned i = 0; i < 16; ++i)
        expected.insert(blockAlign(base + 8 * (100 + i)));
    std::set<Addr> got;
    for (const auto &cand : candidates)
        got.insert(cand.blockAddr);
    EXPECT_EQ(got, expected);
    EXPECT_EQ(engine.stats().value("indirectOps"), 1u);
    EXPECT_EQ(engine.stats().value("indirectTargets"), 16u);
}

TEST_F(GrpRegionTest, IndirectFanoutIsConfigurable)
{
    config.region.indirectFanout = 4;
    RegionEngine engine(config, mem);
    const Addr index_block = mem.heapAlloc(64, 64);
    for (unsigned i = 0; i < 16; ++i)
        mem.write32(index_block + 4 * i, i * 1000);
    engine.indirectPrefetch(0x2000'0000, 8, index_block, 0);
    EXPECT_EQ(engine.stats().value("indirectTargets"), 4u);
}

TEST_F(GrpRegionTest, PresenceTestFiltersRegionWindows)
{
    RegionEngine engine(config, mem);
    engine.setPresenceTest([](uint64_t, unsigned) { return ~0ull; });
    LoadHints hints;
    hints.flags = kHintSpatial;
    engine.onL2DemandMiss(0x10000, 0, hints);
    EXPECT_TRUE(drain(engine).empty());
}

TEST_F(GrpRegionTest, ResetClearsQueueAndStats)
{
    RegionEngine engine(config, mem);
    LoadHints hints;
    hints.flags = kHintSpatial;
    engine.onL2DemandMiss(0x10000, 0, hints);
    engine.reset();
    EXPECT_TRUE(drain(engine).empty());
    EXPECT_EQ(engine.stats().value("regionsAllocated"), 0u);
    EXPECT_EQ(engine.regionSizes().samples(), 0u);
}

} // namespace
} // namespace grp
