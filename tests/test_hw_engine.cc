/** @file Unit tests for the region engine under the hint-free schemes
 *  (srp, ptr-hw, ptr-hw-rec, srp+ptr). */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "harness/runner.hh"
#include "mem/dram.hh"
#include "prefetch/region_engine.hh"
#include "sim/logging.hh"

namespace grp
{
namespace
{

class HwEngineTest : public ::testing::Test
{
  protected:
    void SetUp() override { setQuiet(true); }

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

TEST_F(HwEngineTest, RejectsNoneAndStride)
{
    for (PrefetchScheme scheme :
         {PrefetchScheme::None, PrefetchScheme::Stride}) {
        config.scheme = scheme;
        EXPECT_THROW(RegionEngine(config, mem), std::runtime_error)
            << toString(scheme);
    }
}

TEST_F(HwEngineTest, ExportsTheHwCounterSet)
{
    for (PrefetchScheme scheme :
         {PrefetchScheme::Srp, PrefetchScheme::PointerHw,
          PrefetchScheme::PointerHwRec, PrefetchScheme::SrpPlusPointer}) {
        config.scheme = scheme;
        RegionEngine engine(config, mem);
        EXPECT_EQ(engine.stats().name(), "hwEngine");
        std::vector<std::string> names;
        for (const auto &[name, counter] : engine.stats().counters())
            names.push_back(name);
        EXPECT_EQ(names, (std::vector<std::string>{
                             "candidatesOffered", "linesScanned",
                             "pointersFound", "regionsAllocated",
                             "regionsUpdated"}))
            << toString(scheme);
    }
}

TEST_F(HwEngineTest, SrpPrefetchesEveryMissUnconditionally)
{
    config.scheme = PrefetchScheme::Srp;
    RegionEngine engine(config, mem);
    // No hints at all: SRP does not care.
    engine.onL2DemandMiss(0x40000, kInvalidRefId, LoadHints{});
    EXPECT_EQ(drain(engine).size(), 63u);
    EXPECT_EQ(engine.stats().value("regionsAllocated"), 1u);
}

TEST_F(HwEngineTest, SrpDoesNotScanPointers)
{
    // The engine scans any fill that carries a chase depth; under srp
    // the memory system arms none, so a pointer-heavy run scans
    // nothing while its regions still issue.
    config.scheme = PrefetchScheme::Srp;
    RunOptions opts;
    opts.maxInstructions = 20'000;
    const RunResult result = runWorkload("mcf", config, opts);
    EXPECT_GT(result.stats.value("hwEngine.candidatesOffered"), 0u);
    EXPECT_EQ(result.stats.value("hwEngine.linesScanned"), 0u);
}

TEST_F(HwEngineTest, PointerModeScansButNoRegions)
{
    config.scheme = PrefetchScheme::PointerHw;
    RegionEngine engine(config, mem);
    engine.onL2DemandMiss(0x40000, 0, LoadHints{});
    EXPECT_TRUE(drain(engine).empty()); // No region prefetching.

    const Addr node = mem.heapAlloc(64, 64);
    const Addr next = mem.heapAlloc(64, 64);
    mem.write64(node, next);
    engine.onFill(node, 1, ReqClass::Demand);
    auto candidates = drain(engine);
    EXPECT_EQ(candidates.size(), 2u); // Target + successor block.
    EXPECT_EQ(engine.stats().value("pointersFound"), 1u);
}

TEST_F(HwEngineTest, SrpPlusPointerDoesBoth)
{
    config.scheme = PrefetchScheme::SrpPlusPointer;
    RegionEngine engine(config, mem);
    const Addr node = mem.heapAlloc(64, 64);
    mem.write64(node + 8, mem.heapAlloc(64, 64));

    engine.onL2DemandMiss(node, 0, LoadHints{});
    engine.onFill(node, 1, ReqClass::Demand);
    auto candidates = drain(engine);
    // 63 region blocks + pointer blocks (some may overlap with the
    // region and merge).
    EXPECT_GE(candidates.size(), 63u);
    EXPECT_EQ(engine.stats().value("regionsAllocated"), 1u);
    EXPECT_EQ(engine.stats().value("linesScanned"), 1u);
}

TEST_F(HwEngineTest, RecursiveDepthDecrements)
{
    config.scheme = PrefetchScheme::PointerHwRec;
    RegionEngine engine(config, mem);
    const Addr node = mem.heapAlloc(64, 64);
    mem.write64(node, mem.heapAlloc(4096, 64));
    engine.onFill(node, 6, ReqClass::Demand);
    auto candidates = drain(engine);
    ASSERT_FALSE(candidates.empty());
    for (const auto &cand : candidates)
        EXPECT_EQ(cand.ptrDepth, 5u);
}

TEST_F(HwEngineTest, SecondMissToRegionUpdatesNotAllocates)
{
    config.scheme = PrefetchScheme::Srp;
    RegionEngine engine(config, mem);
    engine.onL2DemandMiss(0x40000, 0, LoadHints{});
    engine.onL2DemandMiss(0x40000 + 3 * kBlockBytes, 0, LoadHints{});
    EXPECT_EQ(engine.stats().value("regionsAllocated"), 1u);
    EXPECT_EQ(engine.stats().value("regionsUpdated"), 1u);
    EXPECT_EQ(drain(engine).size(), 62u);
}

TEST_F(HwEngineTest, ResetDropsPendingWork)
{
    config.scheme = PrefetchScheme::Srp;
    RegionEngine engine(config, mem);
    engine.onL2DemandMiss(0x40000, 0, LoadHints{});
    engine.reset();
    EXPECT_TRUE(drain(engine).empty());
}

} // namespace
} // namespace grp
