#include "prefetch/region_queue.hh"

#include <bit>

#include "sim/logging.hh"

namespace grp
{

RegionQueue::RegionQueue(unsigned capacity, bool lifo, bool bank_aware,
                         obs::StatRegistry &registry)
    : capacity_(capacity),
      lifo_(lifo),
      bankAware_(bank_aware),
      statReg_(stats_, registry)
{
    fatal_if(capacity == 0, "prefetch queue capacity must be non-zero");
    // One spare: a push appends before dropping the oldest entry.
    entries_.reserve(capacity_ + 1);
    lifecycle_.bindQueue(stats_);
    regionsQueued_ = &stats_.counter("regionsQueued");
    pointerTargetsQueued_ = &stats_.counter("pointerTargetsQueued");
    candidatesDequeued_ = &stats_.counter("candidatesDequeued");
    occupancyHighWater_ = &stats_.counter("occupancyHighWater");
}

RegionEntry *
RegionQueue::findCovering(uint64_t block_num)
{
    for (auto it = entries_.rbegin(); it != entries_.rend(); ++it) {
        if (block_num >= it->baseBlock &&
            block_num < it->baseBlock + it->numBlocks) {
            return &*it;
        }
    }
    return nullptr;
}

uint64_t
RegionQueue::buildWindowVector(uint64_t base_block, unsigned blocks,
                               uint64_t exclude_block) const
{
    uint64_t vec = 0;
    for (unsigned i = 0; i < blocks; ++i) {
        const uint64_t block = base_block + i;
        if (block == exclude_block)
            continue;
        if (present_ && present_(block << kBlockShift))
            continue;
        vec |= 1ull << i;
    }
    return vec;
}

void
RegionQueue::push(const RegionEntry &entry)
{
    lifecycle_.note({obs::TraceEvent::Enqueue,
                     entry.baseBlock << kBlockShift, entry.hintClass, -1,
                     std::popcount(entry.bitvec), false, entry.refId});
    entries_.push_back(entry);
    if (entries_.size() > capacity_)
        dropOldest();
    // The counter is the high-water mark. Counters only go up, so it
    // advances by its delta, and a stats reset re-bases it.
    if (entries_.size() > occupancyHighWater_->value())
        *occupancyHighWater_ += entries_.size() - occupancyHighWater_->value();
}

void
RegionQueue::dropOldest()
{
    const RegionEntry &victim = entries_.front();
    lifecycle_.note({obs::TraceEvent::Drop, victim.baseBlock << kBlockShift,
                     victim.hintClass, -1, std::popcount(victim.bitvec),
                     false, victim.refId});
    entries_.erase(entries_.begin());
}

unsigned
RegionQueue::noteSpatialMiss(Addr miss_addr, unsigned window_blocks,
                             uint8_t ptr_depth, RefId ref,
                             obs::HintClass hint)
{
    panic_if(window_blocks == 0 || window_blocks > kBlocksPerRegion ||
             !isPowerOfTwo(window_blocks),
             "window must be a power of two in [1, 64]");
    const uint64_t miss_block = blockNumber(miss_addr);

    if (RegionEntry *covering = findCovering(miss_block)) {
        // Second miss to a queued region: clear the miss block's bit,
        // restart the scan just after it and make the entry the
        // newest.
        RegionEntry entry = *covering;
        const unsigned pos =
            static_cast<unsigned>(miss_block - entry.baseBlock);
        entry.bitvec &= ~(1ull << pos);
        entry.index = (pos + 1) % entry.numBlocks;
        entries_.erase(entries_.begin() + (covering - entries_.data()));
        if (entry.bitvec != 0)
            push(entry);
        return 0;
    }

    // The window is the aligned group of window_blocks blocks
    // containing the miss (window_blocks == 64 gives the full 4 KB
    // region of the original SRP design).
    const uint64_t base = miss_block & ~static_cast<uint64_t>(
                              window_blocks - 1);
    RegionEntry entry;
    entry.baseBlock = base;
    entry.numBlocks = window_blocks;
    entry.bitvec = buildWindowVector(base, window_blocks, miss_block);
    entry.index = static_cast<unsigned>((miss_block - base + 1) %
                                        window_blocks);
    entry.ptrDepth = ptr_depth;
    entry.refId = ref;
    entry.hintClass = hint;
    if (entry.bitvec != 0) {
        ++*regionsQueued_;
        push(entry);
    }
    return window_blocks;
}

void
RegionQueue::addPointerTarget(Addr target, unsigned blocks,
                              uint8_t ptr_depth, RefId ref,
                              obs::HintClass hint)
{
    panic_if(blocks == 0 || blocks > kBlocksPerRegion,
             "bad pointer window size");
    const uint64_t base = blockNumber(target);

    if (RegionEntry *covering = findCovering(base)) {
        // Already queued (common for pointers into the same object):
        // just deepen the chase if this request would go further.
        if (ptr_depth > covering->ptrDepth)
            covering->ptrDepth = ptr_depth;
        return;
    }

    RegionEntry entry;
    entry.baseBlock = base;
    entry.numBlocks = blocks;
    entry.bitvec = buildWindowVector(base, blocks, ~0ull);
    entry.index = 0;
    entry.ptrDepth = ptr_depth;
    entry.refId = ref;
    entry.hintClass = hint;
    if (entry.bitvec != 0) {
        ++*pointerTargetsQueued_;
        push(entry);
    }
}

std::optional<PrefetchCandidate>
RegionQueue::dequeue(const DramBackend &dram, unsigned channel)
{
    if (!plane_)
        return dequeueTier(dram, channel, -1);
    // Priority tiers drain high to low: a candidate from a
    // lower-priority class is offered only when no higher tier has
    // one for this channel. Equal priorities across all classes
    // reduce to the classic single pass.
    for (int tier = plane_->maxPriority(); tier >= 0; --tier) {
        if (auto candidate = dequeueTier(dram, channel, tier))
            return candidate;
    }
    return std::nullopt;
}

std::optional<PrefetchCandidate>
RegionQueue::dequeueTier(const DramBackend &dram, unsigned channel,
                         int tier)
{
    // First choice: a candidate on this channel whose DRAM row is
    // already open; fallback: the first candidate on this channel in
    // queue order (within the tier, when one is given).
    const std::size_t n = entries_.size();
    std::size_t fallback = n;
    unsigned fallback_pos = 0;
    const uint64_t span = dram.rowSpanBlocks();

    auto scan_entry = [&](std::size_t idx) -> std::optional<unsigned> {
        const RegionEntry &entry = entries_[idx];
        if (tier >= 0 && plane_->priority(entry.hintClass) != tier)
            return std::nullopt;
        const uint64_t on =
            entry.bitvec & dram.channelBlocks(entry.baseBlock, channel);
        // Positions from the scan start up, then those below it: the
        // (index + step) % numBlocks order, since bitvec has no bit at
        // or above numBlocks.
        const uint64_t below = (1ull << entry.index) - 1;
        for (uint64_t pass : {on & ~below, on & below}) {
            while (pass != 0) {
                const unsigned pos = std::countr_zero(pass);
                const uint64_t block = entry.baseBlock + pos;
                if (!bankAware_ || dram.rowOpen(block << kBlockShift))
                    return pos;
                if (fallback == n) {
                    fallback = idx;
                    fallback_pos = pos;
                }
                // The channel's other blocks in this aligned row span
                // are in the same bank and row, so closed too.
                const uint64_t span_end =
                    (block | (span - 1)) + 1 - entry.baseBlock;
                pass = span_end < 64 ? pass & (~0ull << span_end) : 0;
            }
        }
        return std::nullopt;
    };

    auto take = [&](std::size_t idx, unsigned pos) {
        RegionEntry &entry = entries_[idx];
        PrefetchCandidate candidate;
        candidate.blockAddr = (entry.baseBlock + pos) << kBlockShift;
        candidate.ptrDepth = entry.ptrDepth;
        candidate.refId = entry.refId;
        candidate.hintClass = entry.hintClass;
        ++*candidatesDequeued_;
        entry.bitvec &= ~(1ull << pos);
        if (entry.bitvec == 0)
            entries_.erase(entries_.begin() + idx);
        return candidate;
    };

    // LIFO walks from the newest entry at the back, FIFO from the
    // oldest at the front.
    for (std::size_t step = 0; step < n; ++step) {
        const std::size_t idx = lifo_ ? n - 1 - step : step;
        if (auto pos = scan_entry(idx))
            return take(idx, *pos);
    }
    if (fallback < n)
        return take(fallback, fallback_pos);
    return std::nullopt;
}

void
RegionQueue::flush()
{
    while (!entries_.empty())
        dropOldest();
}

void
RegionQueue::clear()
{
    entries_.clear();
    stats_.reset();
}

} // namespace grp
