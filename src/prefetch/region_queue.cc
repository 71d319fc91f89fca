#include "prefetch/region_queue.hh"

#include <bit>
#include <limits>

#include "sim/logging.hh"

namespace grp
{

namespace
{

inline std::size_t
classIndex(obs::HintClass cls)
{
    return static_cast<std::size_t>(cls);
}

} // namespace

RegionQueue::RegionQueue(unsigned capacity, bool lifo, bool bank_aware,
                         obs::StatRegistry &registry)
    : nextSeq_(std::numeric_limits<uint64_t>::max()),
      capacity_(capacity),
      lifo_(lifo),
      bankAware_(bank_aware),
      statReg_(stats_, registry)
{
    fatal_if(capacity == 0, "prefetch queue capacity must be non-zero");
    slots_.resize(capacity_ + 1);
    for (unsigned i = 0; i < slots_.size(); ++i)
        slots_[i].nextAll = i + 1 < slots_.size() ? int(i) + 1 : -1;
    freeHead_ = 0;
    clsHead_.fill(-1);
    clsTail_.fill(-1);
    lifecycle_.bindQueue(stats_);
    regionsQueued_ = &stats_.counter("regionsQueued");
    pointerTargetsQueued_ = &stats_.counter("pointerTargetsQueued");
    candidatesDequeued_ = &stats_.counter("candidatesDequeued");
    occupancyHighWater_ = &stats_.counter("occupancyHighWater");
}

int
RegionQueue::allocSlot()
{
    panic_if(freeHead_ < 0, "slot pool exhausted");
    const int idx = freeHead_;
    freeHead_ = slots_[idx].nextAll;
    slots_[idx].used = true;
    return idx;
}

void
RegionQueue::linkFront(int idx)
{
    Slot &slot = slots_[idx];
    slot.seq = nextSeq_--;

    slot.prevAll = -1;
    slot.nextAll = allHead_;
    if (allHead_ >= 0)
        slots_[allHead_].prevAll = idx;
    allHead_ = idx;
    if (allTail_ < 0)
        allTail_ = idx;

    const std::size_t cls = classIndex(slot.entry.hintClass);
    slot.prevCls = -1;
    slot.nextCls = clsHead_[cls];
    if (clsHead_[cls] >= 0)
        slots_[clsHead_[cls]].prevCls = idx;
    clsHead_[cls] = idx;
    if (clsTail_[cls] < 0)
        clsTail_[cls] = idx;

    ++size_;
}

void
RegionQueue::removeSlot(int idx)
{
    Slot &slot = slots_[idx];

    if (slot.prevAll >= 0)
        slots_[slot.prevAll].nextAll = slot.nextAll;
    else
        allHead_ = slot.nextAll;
    if (slot.nextAll >= 0)
        slots_[slot.nextAll].prevAll = slot.prevAll;
    else
        allTail_ = slot.prevAll;

    const std::size_t cls = classIndex(slot.entry.hintClass);
    if (slot.prevCls >= 0)
        slots_[slot.prevCls].nextCls = slot.nextCls;
    else
        clsHead_[cls] = slot.nextCls;
    if (slot.nextCls >= 0)
        slots_[slot.nextCls].prevCls = slot.prevCls;
    else
        clsTail_[cls] = slot.prevCls;

    slot.used = false;
    slot.nextAll = freeHead_;
    freeHead_ = idx;
    --size_;
}

RegionQueue::Slot *
RegionQueue::findCovering(uint64_t block_num)
{
    for (int i = allHead_; i >= 0; i = slots_[i].nextAll) {
        RegionEntry &entry = slots_[i].entry;
        if (block_num >= entry.baseBlock &&
            block_num < entry.baseBlock + entry.numBlocks) {
            return &slots_[i];
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
RegionQueue::pushFront(RegionEntry entry)
{
    lifecycle_.note({obs::TraceEvent::Enqueue,
                     entry.baseBlock << kBlockShift, entry.hintClass, -1,
                     std::popcount(entry.bitvec), false, entry.refId});
    const int idx = allocSlot();
    slots_[idx].entry = entry;
    linkFront(idx);
    while (size_ > capacity_)
        dropTail();
    // The counter is the high-water mark. Counters only go up, so it
    // advances by its delta, and a stats reset re-bases it.
    if (size_ > occupancyHighWater_->value())
        *occupancyHighWater_ += size_ - occupancyHighWater_->value();
}

void
RegionQueue::dropTail()
{
    const RegionEntry &victim = slots_[allTail_].entry;
    const int victim_blocks = std::popcount(victim.bitvec);
    dropped_ += victim_blocks;
    lifecycle_.note({obs::TraceEvent::Drop, victim.baseBlock << kBlockShift,
                     victim.hintClass, -1, victim_blocks, false,
                     victim.refId});
    removeSlot(allTail_);
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

    if (Slot *slot = findCovering(miss_block)) {
        // Second miss to a queued region: clear the miss block's bit,
        // restart the scan just after it and move the entry to the
        // head of the queue.
        RegionEntry &entry = slot->entry;
        const unsigned pos =
            static_cast<unsigned>(miss_block - entry.baseBlock);
        entry.bitvec &= ~(1ull << pos);
        entry.index = (pos + 1) % entry.numBlocks;
        const RegionEntry updated = entry;
        removeSlot(static_cast<int>(slot - slots_.data()));
        if (updated.bitvec != 0)
            pushFront(updated);
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
        pushFront(entry);
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

    if (Slot *slot = findCovering(base)) {
        // Already queued (common for pointers into the same object):
        // just deepen the chase if this request would go further.
        if (ptr_depth > slot->entry.ptrDepth)
            slot->entry.ptrDepth = ptr_depth;
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
        pushFront(entry);
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
    int fallback_slot = -1;
    unsigned fallback_pos = 0;
    const uint64_t span = dram.rowSpanBlocks();

    auto scan_entry = [&](int idx) -> std::optional<unsigned> {
        const RegionEntry &entry = slots_[idx].entry;
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
                if (fallback_slot < 0) {
                    fallback_slot = idx;
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

    auto take = [&](int idx, unsigned pos) {
        RegionEntry &entry = slots_[idx].entry;
        PrefetchCandidate candidate;
        candidate.blockAddr = (entry.baseBlock + pos) << kBlockShift;
        candidate.ptrDepth = entry.ptrDepth;
        candidate.refId = entry.refId;
        candidate.hintClass = entry.hintClass;
        ++*candidatesDequeued_;
        entry.bitvec &= ~(1ull << pos);
        if (entry.bitvec == 0)
            removeSlot(idx);
        return candidate;
    };

    if (tier < 0) {
        // Classic single pass in queue order over every entry.
        if (lifo_) {
            for (int i = allHead_; i >= 0; i = slots_[i].nextAll) {
                if (auto pos = scan_entry(i))
                    return take(i, *pos);
            }
        } else {
            for (int i = allTail_; i >= 0; i = slots_[i].prevAll) {
                if (auto pos = scan_entry(i))
                    return take(i, *pos);
            }
        }
    } else {
        // Merge the class lists whose priority matches this tier by
        // seq — exactly the entries the filtered full walk visited,
        // in exactly its order, without touching other classes.
        std::array<int, kNumClasses> cursors;
        std::size_t ncur = 0;
        for (std::size_t cls = 0; cls < kNumClasses; ++cls) {
            if (plane_->priority(static_cast<obs::HintClass>(cls)) !=
                tier) {
                continue;
            }
            const int head = lifo_ ? clsHead_[cls] : clsTail_[cls];
            if (head >= 0)
                cursors[ncur++] = head;
        }
        while (ncur > 0) {
            std::size_t best = 0;
            for (std::size_t i = 1; i < ncur; ++i) {
                const uint64_t a = slots_[cursors[i]].seq;
                const uint64_t b = slots_[cursors[best]].seq;
                // Front pushes take descending seq, so front-to-back
                // (LIFO scan) order is ascending seq.
                if (lifo_ ? a < b : a > b)
                    best = i;
            }
            const int idx = cursors[best];
            if (auto pos = scan_entry(idx))
                return take(idx, *pos);
            const int next =
                lifo_ ? slots_[idx].nextCls : slots_[idx].prevCls;
            if (next >= 0)
                cursors[best] = next;
            else
                cursors[best] = cursors[--ncur];
        }
    }

    if (fallback_slot >= 0)
        return take(fallback_slot, fallback_pos);
    return std::nullopt;
}

void
RegionQueue::flush()
{
    while (size_ > 0)
        dropTail();
}

void
RegionQueue::clear()
{
    for (unsigned i = 0; i < slots_.size(); ++i) {
        slots_[i].used = false;
        slots_[i].nextAll = i + 1 < slots_.size() ? int(i) + 1 : -1;
    }
    freeHead_ = 0;
    allHead_ = -1;
    allTail_ = -1;
    clsHead_.fill(-1);
    clsTail_.fill(-1);
    size_ = 0;
    nextSeq_ = std::numeric_limits<uint64_t>::max();
    dropped_ = 0;
    stats_.reset();
}

} // namespace grp
