/**
 * @file
 * Integration test of the full pointer-chase path (§3.3.1): a
 * recursive-pointer-hinted miss arms the MSHR counter, the fill is
 * scanned, discovered pointers are prefetched with decremented
 * depth, and the chase continues level by level until the counter
 * reaches zero.
 */

#include <gtest/gtest.h>

#include <vector>

#include "core/engine_factory.hh"
#include "mem/memory_system.hh"
#include "mem_port.hh"
#include "sim/event_queue.hh"
#include "sim/logging.hh"

namespace grp
{
namespace
{

class PointerChaseIntegration : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        setQuiet(true);
        // Build a long list of 64-byte nodes spread far apart so no
        // two share a block or region.
        Addr prev = 0;
        for (int i = 0; i < 12; ++i) {
            const Addr node = fmem.heapAlloc(64, kRegionBytes);
            nodes.push_back(node);
            if (prev)
                fmem.write64(prev, node);
            prev = node;
        }
        fmem.write64(prev, 0);
    }

    /** Run a GRP system and count how many list nodes were
     *  prefetched after one hinted miss on nodes[0]. */
    unsigned
    chasedNodes(unsigned recursive_depth, uint8_t flags)
    {
        SimConfig config;
        config.scheme = PrefetchScheme::GrpVar;
        config.region.recursiveDepth = recursive_depth;
        EventQueue events;
        MemorySystem mem(config, events);
        bool done = false;
        MemPort port(mem, events, [&done](uint64_t) { done = true; });
        auto engine = makePrefetchEngine(config, fmem, mem);

        LoadHints hints;
        hints.flags = flags;
        EXPECT_TRUE(port.load(nodes[0], 0, hints, 1));
        for (Tick t = 0; t < 50'000; ++t) {
            events.advanceTo(t);
            mem.tick();
        }
        EXPECT_TRUE(done);

        unsigned present = 0;
        for (size_t i = 1; i < nodes.size(); ++i)
            present += mem.l2().contains(nodes[i]);
        return present;
    }

    FunctionalMemory fmem;
    std::vector<Addr> nodes;
};

TEST_F(PointerChaseIntegration, UnhintedMissChasesNothing)
{
    EXPECT_EQ(chasedNodes(6, 0), 0u);
}

TEST_F(PointerChaseIntegration, PointerHintChasesOneLevel)
{
    EXPECT_EQ(chasedNodes(6, kHintPointer), 1u);
}

TEST_F(PointerChaseIntegration, RecursiveHintChasesSixLevels)
{
    EXPECT_EQ(chasedNodes(6, kHintPointer | kHintRecursive), 6u);
}

TEST_F(PointerChaseIntegration, McfDepthOverrideChasesThree)
{
    // The paper's mcf footnote: recursion terminated after 3 levels.
    EXPECT_EQ(chasedNodes(3, kHintPointer | kHintRecursive), 3u);
}

TEST_F(PointerChaseIntegration, DepthSevenIsTheCounterMaximum)
{
    EXPECT_EQ(chasedNodes(7, kHintPointer | kHintRecursive), 7u);
}

} // namespace
} // namespace grp
