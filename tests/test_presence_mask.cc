/**
 * @file
 * The presence masks the region queue builds its windows from.
 * Cache::presentMask and MshrFile::presentMask must answer, for every
 * block of a window, what the per-block test
 * `l2().contains(addr) || l2Mshrs().find(addr)` answers, on an L2 and
 * an L2 MSHR file driven into random states; and a RegionQueue must
 * build the same entries from the masks as from the per-block test.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <vector>

#include "mem/dram.hh"
#include "mem/memory_system.hh"
#include "prefetch/region_queue.hh"
#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"

namespace grp
{
namespace
{

/** An L2 and its MSHR file in random states: fills (demand and
 *  prefetch, so sets overflow and evict), invalidations, MSHR
 *  allocations and frees over a span of blocks a few times the L2's
 *  size. */
class RandomResidency
{
  public:
    RandomResidency(const SimConfig &config, uint64_t seed)
        : mem_(config, events_, registry_), rng_(seed),
          span_(4ull * config.l2.sizeBytes / kBlockBytes)
    {
    }

    MemorySystem &mem() { return mem_; }

    /** A block number inside the span. */
    uint64_t block() { return kBaseBlock + rng_.below(span_); }

    /** First block of a region inside the span (not its first). */
    uint64_t
    regionStart()
    {
        return kBaseBlock + kBlocksPerRegion *
                                (1 + rng_.below(span_ / kBlocksPerRegion -
                                                1));
    }

    Rng &rng() { return rng_; }

    /** @p n random changes. */
    void
    churn(unsigned n)
    {
        MshrFile &mshrs = mem_.l2Mshrs();
        for (unsigned i = 0; i < n; ++i) {
            const Addr addr = block() << kBlockShift;
            switch (rng_.below(8)) {
              case 0:
              case 1:
              case 2:
                mem_.l2().insert(addr, rng_.below(2) == 0, false);
                break;
              case 3:
                mem_.l2().invalidate(addr);
                break;
              case 4:
              case 5:
                if (!mshrs.full() && !mshrs.find(addr)) {
                    mshrs.allocate(addr, rng_.below(2) == 0, LoadHints{},
                                   0, 0);
                    inFlight_.push_back(addr);
                }
                break;
              default:
                if (!inFlight_.empty()) {
                    const size_t k = rng_.below(inFlight_.size());
                    mshrs.deallocate(*mshrs.find(inFlight_[k]));
                    inFlight_.erase(inFlight_.begin() + k);
                }
                break;
            }
        }
    }

    /** The reference: one contains() and one find() per block. */
    uint64_t
    perBlock(uint64_t base_block, unsigned blocks)
    {
        uint64_t mask = 0;
        for (unsigned i = 0; i < blocks; ++i) {
            const Addr addr = (base_block + i) << kBlockShift;
            if (mem_.l2().contains(addr) || mem_.l2Mshrs().find(addr))
                mask |= 1ull << i;
        }
        return mask;
    }

    /** What the engine factory wires into the region queue. */
    uint64_t
    masks(uint64_t base_block, unsigned blocks)
    {
        return mem_.l2().presentMask(base_block, blocks) |
               mem_.l2Mshrs().presentMask(base_block, blocks);
    }

    /** Check one window bit by bit, each mask on its own too. */
    void
    expectWindow(uint64_t base_block, unsigned blocks)
    {
        const uint64_t l2 = mem_.l2().presentMask(base_block, blocks);
        const uint64_t mshr =
            mem_.l2Mshrs().presentMask(base_block, blocks);
        for (unsigned i = 0; i < 64; ++i) {
            const Addr addr = (base_block + i) << kBlockShift;
            const bool in_window = i < blocks;
            ASSERT_EQ((l2 >> i) & 1, in_window && mem_.l2().contains(addr))
                << "L2, window " << base_block << "+" << blocks
                << ", block " << i;
            ASSERT_EQ((mshr >> i) & 1,
                      in_window && mem_.l2Mshrs().find(addr) != nullptr)
                << "MSHRs, window " << base_block << "+" << blocks
                << ", block " << i;
        }
        ASSERT_EQ(l2 | mshr, perBlock(base_block, blocks));
    }

  private:
    static constexpr uint64_t kBaseBlock = 0x40000;

    obs::StatRegistry registry_;
    EventQueue events_;
    MemorySystem mem_;
    Rng rng_;
    uint64_t span_;
    std::vector<Addr> inFlight_;
};

/** The default geometry (1 MB, 4-way: 4096 sets) and one with fewer
 *  sets than a region has blocks (8 KB, 4-way: 32 sets), where a
 *  window's sets wrap. */
std::vector<SimConfig>
geometries()
{
    SimConfig small;
    small.l1d = CacheConfig{4 * 1024, 2, 3, 8, 8};
    small.l2 = CacheConfig{8 * 1024, 4, 12, 8, 8};
    return {SimConfig{}, small};
}

TEST(PresenceMask, EqualsThePerBlockTest)
{
    setQuiet(true);
    for (const SimConfig &config : geometries()) {
        RandomResidency state(config, 11);
        for (int round = 0; round < 200; ++round) {
            state.churn(40);
            // Aligned spatial windows of every power of two.
            for (unsigned n = 1; n <= kBlocksPerRegion; n *= 2)
                state.expectWindow(state.block() & ~uint64_t{n - 1}, n);
            // Pointer windows of every size at unaligned bases; from 2
            // blocks up they straddle a region boundary.
            for (unsigned n = 1; n <= kBlocksPerRegion; ++n) {
                const uint64_t base =
                    n == 1 ? state.block()
                           : state.regionStart() - 1 -
                                 state.rng().below(n - 1);
                state.expectWindow(base, n);
            }
        }
    }
}

using Candidate = std::tuple<Addr, uint8_t, RefId, obs::HintClass>;

/** Every candidate @p queue offers, channel by channel, until it has
 *  none left. */
std::vector<Candidate>
drain(RegionQueue &queue, const DramSystem &dram)
{
    std::vector<Candidate> out;
    for (bool progress = true; progress;) {
        progress = false;
        for (unsigned ch = 0; ch < dram.config().channels; ++ch) {
            if (auto cand = queue.dequeue(dram, ch)) {
                out.emplace_back(cand->blockAddr, cand->ptrDepth,
                                 cand->refId, cand->hintClass);
                progress = true;
            }
        }
    }
    return out;
}

TEST(PresenceMask, RegionQueueBuildsTheSameEntries)
{
    setQuiet(true);
    const DramSystem dram{DramConfig{}};
    for (const SimConfig &config : geometries()) {
        RandomResidency state(config, 23);
        obs::StatRegistry reg_mask, reg_block;
        RegionQueue by_mask(32, true, true, reg_mask);
        RegionQueue by_block(32, true, true, reg_block);
        by_mask.setPresenceTest([&state](uint64_t base, unsigned n) {
            return state.masks(base, n);
        });
        by_block.setPresenceTest([&state](uint64_t base, unsigned n) {
            return state.perBlock(base, n);
        });
        for (int round = 0; round < 100; ++round) {
            for (int push = 0; push < 40; ++push) {
                state.churn(10);
                const RefId ref = static_cast<RefId>(round * 64 + push);
                if (state.rng().below(2) == 0) {
                    const unsigned n = 1u << state.rng().below(7);
                    const Addr miss = state.block() << kBlockShift;
                    ASSERT_EQ(by_mask.noteSpatialMiss(miss, n, 0, ref),
                              by_block.noteSpatialMiss(miss, n, 0, ref));
                } else {
                    const unsigned n =
                        1 + static_cast<unsigned>(state.rng().below(64));
                    const Addr target =
                        (state.regionStart() - 1 - state.rng().below(n))
                        << kBlockShift;
                    by_mask.addPointerTarget(target, n, 1, ref);
                    by_block.addPointerTarget(target, n, 1, ref);
                }
                ASSERT_EQ(by_mask.size(), by_block.size());
            }
            const std::vector<Candidate> offered = drain(by_mask, dram);
            EXPECT_FALSE(offered.empty());
            ASSERT_EQ(offered, drain(by_block, dram)) << "round " << round;
        }
        EXPECT_EQ(reg_mask.snapshot().counters,
                  reg_block.snapshot().counters);
    }
}

} // namespace
} // namespace grp
