/** @file Unit tests for the prefetch-engine factory wiring. */

#include <gtest/gtest.h>

#include "core/engine_factory.hh"
#include "prefetch/region_engine.hh"
#include "prefetch/stride.hh"
#include "sim/event_queue.hh"
#include "sim/logging.hh"

namespace grp
{
namespace
{

class EngineFactoryTest : public ::testing::Test
{
  protected:
    void SetUp() override { setQuiet(true); }

    std::unique_ptr<PrefetchEngine>
    make(PrefetchScheme scheme)
    {
        config.scheme = scheme;
        mem = std::make_unique<MemorySystem>(config, events);
        return makePrefetchEngine(config, fmem, *mem);
    }

    SimConfig config;
    EventQueue events;
    FunctionalMemory fmem;
    std::unique_ptr<MemorySystem> mem;
};

TEST_F(EngineFactoryTest, NoneYieldsNoEngine)
{
    EXPECT_EQ(make(PrefetchScheme::None), nullptr);
}

TEST_F(EngineFactoryTest, SchemeToEngineTypeMapping)
{
    EXPECT_NE(dynamic_cast<StridePrefetcher *>(
                  make(PrefetchScheme::Stride).get()),
              nullptr);
    // Every other scheme runs the one region engine; its stat group
    // keeps the scheme family's name.
    const std::pair<PrefetchScheme, const char *> region[] = {
        {PrefetchScheme::Srp, "hwEngine"},
        {PrefetchScheme::PointerHw, "hwEngine"},
        {PrefetchScheme::PointerHwRec, "hwEngine"},
        {PrefetchScheme::SrpPlusPointer, "hwEngine"},
        {PrefetchScheme::SrpThrottled, "throttledSrp"},
        {PrefetchScheme::GrpFix, "grpEngine"},
        {PrefetchScheme::GrpVar, "grpEngine"},
        {PrefetchScheme::GrpAdaptive, "grpEngine"},
    };
    for (const auto &[scheme, group] : region) {
        auto engine = make(scheme);
        EXPECT_NE(dynamic_cast<RegionEngine *>(engine.get()), nullptr)
            << toString(scheme);
        EXPECT_EQ(engine->stats().name(), group) << toString(scheme);
    }
}

TEST_F(EngineFactoryTest, PresenceTestSeesTheL2)
{
    auto engine = make(PrefetchScheme::Srp);
    auto *hw = dynamic_cast<RegionEngine *>(engine.get());
    ASSERT_NE(hw, nullptr);
    // Pre-fill the L2 with the whole region except one block: the
    // region allocation must exclude the present blocks.
    const Addr region = 0x100000;
    for (unsigned i = 1; i < kBlocksPerRegion; ++i) {
        if (i != 5)
            mem->l2().insert(region + i * kBlockBytes, false, false);
    }
    hw->onL2DemandMiss(region, 0, {});
    DramSystem probe{DramConfig{}};
    unsigned offered = 0;
    for (int draw = 0; draw < 70; ++draw) {
        for (unsigned ch = 0; ch < 4; ++ch) {
            auto cand = hw->dequeuePrefetch(probe, ch);
            if (cand) {
                ++offered;
                EXPECT_EQ(cand->blockAddr,
                          region + 5 * kBlockBytes);
            }
        }
    }
    EXPECT_EQ(offered, 1u);
}

TEST_F(EngineFactoryTest, EngineIsAttachedToTheMemorySystem)
{
    auto engine = make(PrefetchScheme::Srp);
    // A demand miss must reach the engine: drive one load through.
    std::vector<uint64_t> done;
    mem->setLoadCallback([&](uint64_t token) { done.push_back(token); });
    ASSERT_TRUE(mem->load(0x200000, 0, {}, 1));
    for (Tick t = 0; t < 5'000 && done.empty(); ++t) {
        events.advanceTo(t);
        mem->tick();
    }
    ASSERT_FALSE(done.empty());
    auto *hw = dynamic_cast<RegionEngine *>(engine.get());
    ASSERT_NE(hw, nullptr);
    EXPECT_EQ(hw->stats().value("regionsAllocated"), 1u);
}

} // namespace
} // namespace grp
