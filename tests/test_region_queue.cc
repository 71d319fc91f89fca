/** @file Unit tests for the SRP/GRP prefetch queue. */

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <optional>
#include <set>

#include "mem/dram.hh"
#include "prefetch/region_queue.hh"
#include "sim/logging.hh"

namespace grp
{
namespace
{

class RegionQueueTest : public ::testing::Test
{
  protected:
    void SetUp() override { setQuiet(true); }

    /** Drain every candidate for all channels. */
    std::vector<Addr>
    drain(RegionQueue &queue)
    {
        std::vector<Addr> out;
        bool progress = true;
        while (progress) {
            progress = false;
            for (unsigned ch = 0; ch < 4; ++ch) {
                if (auto cand = queue.dequeue(dram, ch)) {
                    out.push_back(cand->blockAddr);
                    progress = true;
                }
            }
        }
        return out;
    }

    DramSystem dram{DramConfig{}};
};

TEST_F(RegionQueueTest, FullRegionExcludesMissBlock)
{
    RegionQueue queue(32, true, false);
    const Addr miss = 0x10000 + 5 * kBlockBytes;
    EXPECT_EQ(queue.noteSpatialMiss(miss, 64, 0, 1), 64u);
    auto blocks = drain(queue);
    EXPECT_EQ(blocks.size(), 63u); // All but the miss block.
    std::set<Addr> unique(blocks.begin(), blocks.end());
    EXPECT_EQ(unique.size(), 63u);
    EXPECT_FALSE(unique.count(blockAlign(miss)));
    for (Addr addr : blocks)
        EXPECT_EQ(regionAlign(addr), regionAlign(miss));
}

TEST_F(RegionQueueTest, PresenceTestFiltersWindow)
{
    RegionQueue queue(32, true, false);
    // Mark even blocks of the region present.
    queue.setPresenceTest([](uint64_t base_block, unsigned blocks) {
        uint64_t mask = 0;
        for (unsigned i = 0; i < blocks; ++i) {
            if ((base_block + i) % 2 == 0)
                mask |= 1ull << i;
        }
        return mask;
    });
    queue.noteSpatialMiss(0x40000 + kBlockBytes, 64, 0, 0);
    auto blocks = drain(queue);
    // 32 odd blocks minus the miss block (odd).
    EXPECT_EQ(blocks.size(), 31u);
    for (Addr addr : blocks)
        EXPECT_EQ(blockNumber(addr) % 2, 1u);
}

TEST_F(RegionQueueTest, ScanStartsAfterMissAndWraps)
{
    RegionQueue queue(32, true, false);
    const Addr region = 0x20000;
    queue.noteSpatialMiss(region + 60 * kBlockBytes, 64, 0, 0);
    // First candidate on channel of block 61 should be block 61
    // (the next after the miss), not block 0.
    const Addr block61 = region + 61 * kBlockBytes;
    auto cand = queue.dequeue(dram, dram.channelOf(block61));
    ASSERT_TRUE(cand.has_value());
    EXPECT_EQ(cand->blockAddr, block61);
}

TEST_F(RegionQueueTest, SecondMissUpdatesEntry)
{
    RegionQueue queue(32, true, false);
    const Addr region = 0x30000;
    EXPECT_EQ(queue.noteSpatialMiss(region, 64, 0, 0), 64u);
    EXPECT_EQ(queue.size(), 1u);
    // Second miss to the same region: no new allocation...
    EXPECT_EQ(queue.noteSpatialMiss(region + 7 * kBlockBytes, 64, 0,
                                    0),
              0u);
    EXPECT_EQ(queue.size(), 1u);
    // ...and the new miss block is no longer a candidate.
    auto blocks = drain(queue);
    EXPECT_EQ(blocks.size(), 62u);
    for (Addr addr : blocks)
        EXPECT_NE(addr, region + 7 * kBlockBytes);
}

TEST_F(RegionQueueTest, LifoPrefersNewestRegion)
{
    RegionQueue queue(32, true, false);
    queue.noteSpatialMiss(0x100000, 64, 0, 0);
    queue.noteSpatialMiss(0x200000, 64, 0, 0);
    for (unsigned ch = 0; ch < 4; ++ch) {
        auto cand = queue.dequeue(dram, ch);
        ASSERT_TRUE(cand.has_value());
        EXPECT_EQ(regionAlign(cand->blockAddr), 0x200000u);
    }
}

TEST_F(RegionQueueTest, FifoPrefersOldestRegion)
{
    RegionQueue queue(32, /*lifo=*/false, false);
    queue.noteSpatialMiss(0x100000, 64, 0, 0);
    queue.noteSpatialMiss(0x200000, 64, 0, 0);
    auto cand = queue.dequeue(dram, 1);
    ASSERT_TRUE(cand.has_value());
    EXPECT_EQ(regionAlign(cand->blockAddr), 0x100000u);
}

TEST_F(RegionQueueTest, CapacityDropsOldEntries)
{
    RegionQueue queue(2, true, false);
    queue.noteSpatialMiss(0x100000, 64, 0, 0);
    queue.noteSpatialMiss(0x200000, 64, 0, 0);
    queue.noteSpatialMiss(0x300000, 64, 0, 0);
    EXPECT_EQ(queue.size(), 2u);
    EXPECT_EQ(queue.stats().value("candidatesDropped"), 63u);
    auto blocks = drain(queue);
    for (Addr addr : blocks)
        EXPECT_NE(regionAlign(addr), 0x100000u);
}

TEST_F(RegionQueueTest, FlushDropsEveryEntryAndKeepsCounters)
{
    // The throttle pause: every queued window leaves as a drop, and
    // the counters keep their history (clear() is the reset path).
    RegionQueue queue(32, true, false);
    queue.noteSpatialMiss(0x100000, 64, 0, 0);
    queue.noteSpatialMiss(0x200000, 8, 0, 0);
    const StatGroup &stats = queue.stats();
    const uint64_t dequeued = queue.dequeue(dram, 0) ? 1 : 0;
    queue.flush();
    EXPECT_TRUE(queue.empty());
    EXPECT_EQ(stats.value("entriesDropped"), 2u);
    EXPECT_EQ(stats.value("candidatesDropped"), 63u + 7u - dequeued);
    EXPECT_EQ(stats.value("regionsQueued"), 2u);
    EXPECT_EQ(stats.value("occupancyHighWater"), 2u);
    EXPECT_TRUE(drain(queue).empty());

    queue.clear();
    EXPECT_EQ(stats.value("entriesDropped"), 0u);
    EXPECT_EQ(stats.value("regionsQueued"), 0u);
}

TEST_F(RegionQueueTest, VariableWindowIsAlignedAndSmall)
{
    RegionQueue queue(32, true, false);
    // Window of 4 blocks around a miss at block index 6: the aligned
    // window is blocks [4, 8).
    const Addr region = 0x50000;
    EXPECT_EQ(queue.noteSpatialMiss(region + 6 * kBlockBytes, 4, 0,
                                    0),
              4u);
    auto blocks = drain(queue);
    EXPECT_EQ(blocks.size(), 3u);
    for (Addr addr : blocks) {
        EXPECT_GE(addr, region + 4 * kBlockBytes);
        EXPECT_LT(addr, region + 8 * kBlockBytes);
        EXPECT_NE(addr, region + 6 * kBlockBytes);
    }
}

TEST_F(RegionQueueTest, PointerTargetsFetchTwoBlocks)
{
    RegionQueue queue(32, true, false);
    const Addr target = 0x60000 + 24; // Mid-block pointer.
    queue.addPointerTarget(target, 2, 3, 9);
    auto c1 = queue.dequeue(dram, dram.channelOf(blockAlign(target)));
    ASSERT_TRUE(c1.has_value());
    EXPECT_EQ(c1->blockAddr, blockAlign(target));
    EXPECT_EQ(c1->ptrDepth, 3u);
    EXPECT_EQ(c1->refId, 9u);
    auto c2 = queue.dequeue(
        dram, dram.channelOf(blockAlign(target) + kBlockBytes));
    ASSERT_TRUE(c2.has_value());
    EXPECT_EQ(c2->blockAddr, blockAlign(target) + kBlockBytes);
}

TEST_F(RegionQueueTest, PointerTargetMergeDeepensChase)
{
    RegionQueue queue(32, true, false);
    queue.addPointerTarget(0x70000, 2, 1, 0);
    queue.addPointerTarget(0x70000, 2, 5, 0);
    EXPECT_EQ(queue.size(), 1u);
    auto cand = queue.dequeue(dram, dram.channelOf(0x70000));
    ASSERT_TRUE(cand.has_value());
    EXPECT_EQ(cand->ptrDepth, 5u);
}

TEST_F(RegionQueueTest, BankAwarePrefersOpenRows)
{
    RegionQueue queue(32, true, /*bank_aware=*/true);
    DramSystem live(DramConfig{});
    // Open the row containing region B on channel 0.
    const Addr region_b = 0x800000;
    live.serve(region_b, 0);
    // Region A (closed row) is newer -> would win without
    // bank-awareness.
    queue.noteSpatialMiss(region_b, 64, 0, 0);
    queue.noteSpatialMiss(0x400000, 64, 0, 0);
    auto cand = queue.dequeue(live, 0);
    ASSERT_TRUE(cand.has_value());
    EXPECT_EQ(regionAlign(cand->blockAddr),
              regionAlign(region_b));
}

TEST_F(RegionQueueTest, ChannelsAreRespected)
{
    RegionQueue queue(32, true, false);
    queue.noteSpatialMiss(0x90000, 64, 0, 0);
    DramSystem dram_local{DramConfig{}};
    for (unsigned ch = 0; ch < 4; ++ch) {
        for (int i = 0; i < 20; ++i) {
            auto cand = queue.dequeue(dram_local, ch);
            if (!cand)
                break;
            EXPECT_EQ(dram_local.channelOf(cand->blockAddr), ch);
        }
    }
}

TEST_F(RegionQueueTest, EmptyDequeueReturnsNothing)
{
    RegionQueue queue(32, true, true);
    EXPECT_FALSE(queue.dequeue(dram, 0).has_value());
    queue.noteSpatialMiss(0xa0000, 64, 0, 0);
    queue.clear();
    EXPECT_FALSE(queue.dequeue(dram, 0).has_value());
    EXPECT_TRUE(queue.empty());
}

/**
 * Reference implementation of the queue's ordering semantics: a
 * newest-first deque. A tier pass scans every entry in queue order,
 * filtering by class priority, and every bit of each entry, testing
 * channel and open row per bit; the production queue keeps its
 * entries oldest first in one array and scans each entry by channel
 * mask and row span instead, and must produce byte-identical dequeue
 * sequences.
 */
class ReferenceQueue
{
  public:
    ReferenceQueue(unsigned capacity, bool lifo, bool bank_aware)
        : capacity_(capacity), lifo_(lifo), bankAware_(bank_aware)
    {
    }

    void setControlPlane(const adaptive::ControlPlane *plane)
    {
        plane_ = plane;
    }

    unsigned
    noteSpatialMiss(Addr miss_addr, unsigned window_blocks,
                    uint8_t ptr_depth, RefId ref, obs::HintClass hint)
    {
        const uint64_t miss_block = blockNumber(miss_addr);
        if (RegionEntry *entry = findCovering(miss_block)) {
            const unsigned pos =
                static_cast<unsigned>(miss_block - entry->baseBlock);
            entry->bitvec &= ~(1ull << pos);
            entry->index = (pos + 1) % entry->numBlocks;
            RegionEntry updated = *entry;
            erase(entry);
            if (updated.bitvec != 0)
                pushFront(updated);
            return 0;
        }
        const uint64_t base =
            miss_block & ~static_cast<uint64_t>(window_blocks - 1);
        RegionEntry entry;
        entry.baseBlock = base;
        entry.numBlocks = window_blocks;
        for (unsigned i = 0; i < window_blocks; ++i) {
            if (base + i != miss_block)
                entry.bitvec |= 1ull << i;
        }
        entry.index = static_cast<unsigned>((miss_block - base + 1) %
                                            window_blocks);
        entry.ptrDepth = ptr_depth;
        entry.refId = ref;
        entry.hintClass = hint;
        if (entry.bitvec != 0)
            pushFront(entry);
        return window_blocks;
    }

    void
    addPointerTarget(Addr target, unsigned blocks, uint8_t ptr_depth,
                     RefId ref, obs::HintClass hint)
    {
        const uint64_t base = blockNumber(target);
        if (RegionEntry *entry = findCovering(base)) {
            if (ptr_depth > entry->ptrDepth)
                entry->ptrDepth = ptr_depth;
            return;
        }
        RegionEntry entry;
        entry.baseBlock = base;
        entry.numBlocks = blocks;
        for (unsigned i = 0; i < blocks; ++i)
            entry.bitvec |= 1ull << i;
        entry.index = 0;
        entry.ptrDepth = ptr_depth;
        entry.refId = ref;
        entry.hintClass = hint;
        pushFront(entry);
    }

    std::optional<PrefetchCandidate>
    dequeue(const DramBackend &dram, unsigned channel)
    {
        if (!plane_)
            return dequeueTier(dram, channel, -1);
        for (int tier = plane_->maxPriority(); tier >= 0; --tier) {
            if (auto candidate = dequeueTier(dram, channel, tier))
                return candidate;
        }
        return std::nullopt;
    }

    size_t size() const { return entries_.size(); }

  private:
    RegionEntry *
    findCovering(uint64_t block_num)
    {
        for (RegionEntry &entry : entries_) {
            if (block_num >= entry.baseBlock &&
                block_num < entry.baseBlock + entry.numBlocks) {
                return &entry;
            }
        }
        return nullptr;
    }

    void
    erase(RegionEntry *entry)
    {
        for (auto it = entries_.begin(); it != entries_.end(); ++it) {
            if (&*it == entry) {
                entries_.erase(it);
                return;
            }
        }
    }

    void
    pushFront(RegionEntry entry)
    {
        entries_.push_front(entry);
        while (entries_.size() > capacity_)
            entries_.pop_back();
    }

    std::optional<PrefetchCandidate>
    dequeueTier(const DramBackend &dram, unsigned channel, int tier)
    {
        RegionEntry *fallback_entry = nullptr;
        unsigned fallback_pos = 0;

        auto scan_entry = [&](RegionEntry &entry)
            -> std::optional<unsigned> {
            if (tier >= 0 &&
                plane_->priority(entry.hintClass) != tier) {
                return std::nullopt;
            }
            for (unsigned step = 0; step < entry.numBlocks; ++step) {
                const unsigned pos =
                    (entry.index + step) % entry.numBlocks;
                if (!(entry.bitvec & (1ull << pos)))
                    continue;
                const Addr addr =
                    (entry.baseBlock + pos) << kBlockShift;
                if (dram.channelOf(addr) != channel)
                    continue;
                if (!bankAware_ || dram.rowOpen(addr))
                    return pos;
                if (!fallback_entry) {
                    fallback_entry = &entry;
                    fallback_pos = pos;
                }
            }
            return std::nullopt;
        };

        auto take = [&](RegionEntry &entry, unsigned pos) {
            PrefetchCandidate candidate;
            candidate.blockAddr =
                (entry.baseBlock + pos) << kBlockShift;
            candidate.ptrDepth = entry.ptrDepth;
            candidate.refId = entry.refId;
            candidate.hintClass = entry.hintClass;
            entry.bitvec &= ~(1ull << pos);
            if (entry.bitvec == 0)
                erase(&entry);
            return candidate;
        };

        if (lifo_) {
            for (RegionEntry &entry : entries_) {
                if (auto pos = scan_entry(entry))
                    return take(entry, *pos);
            }
        } else {
            for (auto it = entries_.rbegin(); it != entries_.rend();
                 ++it) {
                if (auto pos = scan_entry(*it))
                    return take(*it, *pos);
            }
        }
        if (fallback_entry)
            return take(*fallback_entry, fallback_pos);
        return std::nullopt;
    }

    std::deque<RegionEntry> entries_;
    unsigned capacity_;
    bool lifo_;
    bool bankAware_;
    const adaptive::ControlPlane *plane_ = nullptr;
};

/** Production queue vs ReferenceQueue over one DRAM geometry: random
 *  spatial misses (2-64-block windows), unaligned pointer targets,
 *  dequeues on every channel, and demand serves that open and close
 *  rows between dequeues. Addresses cover @p range_blocks blocks.
 *  Variant bits: 1 LIFO, 2 bank-aware, 4 priority tiers, 8 (with 4)
 *  new random priorities every 256 ops, as the adaptive controller
 *  rewrites them at each epoch boundary. */
void
matchReference(const DramConfig &config, uint64_t range_blocks,
               unsigned variant, unsigned capacity)
{
    const obs::HintClass kClasses[4] = {
        obs::HintClass::Spatial, obs::HintClass::Pointer,
        obs::HintClass::Indirect, obs::HintClass::Stride,
    };
    const bool lifo = variant & 1;
    const bool bank_aware = variant & 2;
    const bool tiered = variant & 4;
    const bool retier = variant & 8;

    adaptive::ControlPlane plane;
    // Spread classes across three tiers (varies per variant). With
    // re-tiering, start as the controller does: every class at 1.
    for (std::size_t c = 0; c < adaptive::kNumClasses; ++c) {
        plane.knobs(static_cast<obs::HintClass>(c)).priority =
            retier ? 1 : static_cast<uint8_t>((c + variant) % 3);
    }

    DramSystem live(config);
    RegionQueue queue(capacity, lifo, bank_aware);
    ReferenceQueue ref(capacity, lifo, bank_aware);
    if (tiered) {
        queue.setControlPlane(&plane);
        ref.setControlPlane(&plane);
    }

    // Both queues must offer the same candidate (or none).
    auto dequeue_both = [&](unsigned channel) {
        const auto got = queue.dequeue(live, channel);
        const auto want = ref.dequeue(live, channel);
        EXPECT_EQ(got.has_value(), want.has_value());
        if (got && want) {
            EXPECT_EQ(got->blockAddr, want->blockAddr);
            EXPECT_EQ(got->refId, want->refId);
            EXPECT_EQ(got->ptrDepth, want->ptrDepth);
            EXPECT_EQ(got->hintClass, want->hintClass);
        }
        return got.has_value() && want.has_value();
    };

    uint64_t lcg = 0x9E3779B97F4A7C15ull * (variant + 1);
    auto next = [&lcg] {
        lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
        return lcg >> 16;
    };

    Tick now = 0;
    for (unsigned op = 0; op < 4000; ++op) {
        SCOPED_TRACE(testing::Message() << "variant " << variant
                                        << " capacity " << capacity
                                        << " op " << op);
        if (retier && op % 256 == 255) {
            for (std::size_t c = 0; c < adaptive::kNumClasses; ++c) {
                plane.knobs(static_cast<obs::HintClass>(c)).priority =
                    static_cast<uint8_t>(next() % 3);
            }
        }
        const uint64_t roll = next();
        const obs::HintClass hint = kClasses[roll % 4];
        const RefId site = static_cast<RefId>(roll % 11);
        const Addr addr = ((roll >> 16) % range_blocks) * kBlockBytes;
        switch ((roll >> 8) % 4) {
          case 0: {
            const unsigned window = 2u << ((roll >> 4) % 6);
            queue.noteSpatialMiss(addr, window, 0, site, hint);
            ref.noteSpatialMiss(addr, window, 0, site, hint);
            break;
          }
          case 1: {
            const unsigned blocks = 1 + (roll >> 12) % 8;
            queue.addPointerTarget(addr, blocks, (roll >> 6) % 3, site,
                                   hint);
            ref.addPointerTarget(addr, blocks, (roll >> 6) % 3, site,
                                 hint);
            break;
          }
          case 2:
            dequeue_both((roll >> 16) % config.channels);
            break;
          case 3: {
            // A demand access: opens its row, closing the bank's
            // previous one.
            now = std::max(
                now, live.channelBusyUntil(live.channelOf(addr)));
            live.serve(addr, now);
            ++now;
            break;
          }
        }
        ASSERT_EQ(queue.size(), ref.size());
        if (::testing::Test::HasFailure())
            return;
    }

    // Drain every channel until neither queue has a candidate left.
    bool progress = true;
    while (progress && !::testing::Test::HasFailure()) {
        progress = false;
        for (unsigned ch = 0; ch < config.channels; ++ch)
            progress |= dequeue_both(ch);
    }
    EXPECT_EQ(queue.size(), 0u);
    EXPECT_EQ(ref.size(), 0u);
}

TEST_F(RegionQueueTest, OrderingMatchesReferenceUnderRandomOps)
{
    for (unsigned channels : {1u, 2u, 4u, 8u, 64u, 128u}) {
        for (unsigned row_bytes : {64u, 512u, 2048u}) {
            SCOPED_TRACE(testing::Message() << channels << " channels, "
                                            << row_bytes << " B rows");
            DramConfig config;
            config.channels = channels;
            config.banksPerChannel = 2;
            config.rowBytes = row_bytes;
            // Eight aligned row spans (four rows per bank), and at
            // least eight 64-block regions.
            const uint64_t span =
                uint64_t(channels) * (row_bytes / kBlockBytes);
            const uint64_t range = std::max<uint64_t>(8 * span, 512);
            for (unsigned capacity : {8u, 32u}) {
                for (unsigned variant = 0; variant < 16; ++variant) {
                    // Re-tiering needs tiers.
                    if ((variant & 12) == 8)
                        continue;
                    matchReference(config, range, variant, capacity);
                    if (HasFailure())
                        return;
                }
            }
        }
    }
}

} // namespace
} // namespace grp
