#include "obs/shadow_tags.hh"

#include "sim/logging.hh"

namespace grp
{
namespace obs
{

ShadowTags::ShadowTags(unsigned sets, unsigned assoc)
    : numSets_(sets), setShift_(floorLog2(sets)), assoc_(assoc)
{
    fatal_if(numSets_ == 0 || !isPowerOfTwo(numSets_) || assoc_ == 0,
             "shadow-tag geometry must match a real cache");
    lines_.resize(static_cast<size_t>(numSets_) * assoc_);
}

unsigned
ShadowTags::setIndex(Addr block_addr) const
{
    return static_cast<unsigned>(blockNumber(block_addr) &
                                 (numSets_ - 1));
}

Addr
ShadowTags::tagOf(Addr block_addr) const
{
    return blockNumber(block_addr) >> setShift_;
}

const ShadowTags::Line *
ShadowTags::findLine(Addr block_addr) const
{
    const Addr tag = tagOf(block_addr);
    const Line *set =
        &lines_[static_cast<size_t>(setIndex(block_addr)) * assoc_];
    for (unsigned way = 0; way < assoc_; ++way) {
        if (set[way].valid && set[way].tag == tag)
            return &set[way];
    }
    return nullptr;
}

bool
ShadowTags::access(Addr block_addr)
{
    if (const Line *line = findLine(block_addr)) {
        const_cast<Line *>(line)->lruStamp = nextStamp_++;
        return true;
    }
    allocate(block_addr);
    return false;
}

void
ShadowTags::allocate(Addr block_addr)
{
    if (const Line *line = findLine(block_addr)) {
        const_cast<Line *>(line)->lruStamp = nextStamp_++;
        return;
    }
    Line *set =
        &lines_[static_cast<size_t>(setIndex(block_addr)) * assoc_];
    Line *victim = nullptr;
    for (unsigned way = 0; way < assoc_; ++way) {
        Line &line = set[way];
        if (!line.valid) {
            victim = &line;
            break;
        }
        if (!victim || line.lruStamp < victim->lruStamp)
            victim = &line;
    }
    victim->valid = true;
    victim->tag = tagOf(block_addr);
    victim->lruStamp = nextStamp_++;
}

bool
ShadowTags::contains(Addr block_addr) const
{
    return findLine(block_addr) != nullptr;
}

void
ShadowTags::reset()
{
    for (Line &line : lines_)
        line = Line{};
    nextStamp_ = 1;
}

VictimTable::VictimTable(size_t capacity) : capacity_(capacity)
{
    fatal_if(capacity_ == 0, "victim table needs a non-zero capacity");
}

void
VictimTable::record(Addr victim_block, RefId ref, HintClass hint)
{
    Stored &stored = map_[victim_block];
    stored.entry = Entry{ref, hint};
    stored.seq = ++seq_;
    fifo_.emplace_back(victim_block, stored.seq);
    ++recorded_;
    enforceCapacity();
}

std::optional<VictimTable::Entry>
VictimTable::take(Addr victim_block)
{
    auto it = map_.find(victim_block);
    if (it == map_.end())
        return std::nullopt;
    const Entry entry = it->second.entry;
    // The stale FIFO node is skipped lazily by enforceCapacity().
    map_.erase(it);
    return entry;
}

void
VictimTable::enforceCapacity()
{
    // Re-records leave stale FIFO nodes behind; bound the queue at
    // twice the live capacity so lazy skipping stays O(1) amortised.
    while (map_.size() > capacity_ || fifo_.size() > 2 * capacity_) {
        const auto [addr, seq] = fifo_.front();
        fifo_.pop_front();
        auto it = map_.find(addr);
        if (it != map_.end() && it->second.seq == seq) {
            map_.erase(it);
            ++drops_;
        }
    }
}

void
VictimTable::reset()
{
    map_.clear();
    fifo_.clear();
    seq_ = 0;
    drops_ = 0;
    recorded_ = 0;
}

} // namespace obs
} // namespace grp
