#include "mem/mshr.hh"

#include "obs/host_prof.hh"
#include "sim/logging.hh"

namespace grp
{

MshrFile::MshrFile(unsigned entries, unsigned max_targets,
                   const std::string &name,
                   obs::StatRegistry &registry)
    : entries_(entries),
      size_(entries),
      maxTargets_(max_targets),
      freeCount_(entries),
      stats_(name),
      statReg_(stats_, registry)
{
    fatal_if(entries == 0, "MSHR file needs at least one entry");
    prefetchAllocs_ = &stats_.counter("prefetchAllocs");
    demandAllocs_ = &stats_.counter("demandAllocs");
    prefetchUpgrades_ = &stats_.counter("prefetchUpgrades");
    coalescedTargets_ = &stats_.counter("coalescedTargets");
}

Mshr *
MshrFile::find(Addr addr)
{
    GRP_HOST_SCOPE(2, Mshr);
    const Addr block = blockAlign(addr);
    for (Mshr &entry : entries_) {
        if (entry.valid && entry.blockAddr == block)
            return &entry;
    }
    return nullptr;
}

const Mshr *
MshrFile::find(Addr addr) const
{
    return const_cast<MshrFile *>(this)->find(addr);
}

uint64_t
MshrFile::presentMask(uint64_t base_block, unsigned blocks) const
{
    GRP_HOST_SCOPE(2, Mshr);
    uint64_t mask = 0;
    for (const Mshr &entry : entries_) {
        // Unsigned: a block below the base wraps to a huge offset.
        const uint64_t offset = blockNumber(entry.blockAddr) - base_block;
        if (entry.valid && offset < blocks)
            mask |= 1ull << offset;
    }
    return mask;
}

Mshr &
MshrFile::allocate(Addr addr, bool is_prefetch, const LoadHints &hints,
                   uint8_t ptr_depth, Tick now)
{
    GRP_HOST_SCOPE(2, Mshr);
    panic_if(full(), "allocating from a full MSHR file");
    panic_if(find(addr) != nullptr,
             "duplicate MSHR allocation for block %#llx",
             (unsigned long long)blockAlign(addr));
    for (Mshr &entry : entries_) {
        if (entry.valid)
            continue;
        entry.valid = true;
        entry.blockAddr = blockAlign(addr);
        entry.isPrefetch = is_prefetch;
        entry.ptrDepth = ptr_depth;
        entry.hints = hints;
        entry.allocated = now;
        entry.targets.clear();
        --freeCount_;
        if (!is_prefetch)
            ++demandCount_;
        ++*(is_prefetch ? prefetchAllocs_ : demandAllocs_);
        return entry;
    }
    panic("MSHR bookkeeping out of sync");
}

bool
MshrFile::addTarget(Mshr &entry, const MshrTarget &target)
{
    GRP_HOST_SCOPE(2, Mshr);
    if (entry.targets.size() >= maxTargets_)
        return false;
    entry.targets.push_back(target);
    if (entry.isPrefetch) {
        entry.isPrefetch = false;
        ++demandCount_;
        ++*prefetchUpgrades_;
    }
    ++*coalescedTargets_;
    return true;
}

void
MshrFile::deallocate(Mshr &entry)
{
    GRP_HOST_SCOPE(2, Mshr);
    panic_if(!entry.valid, "deallocating an invalid MSHR");
    entry.valid = false;
    entry.targets.clear();
    if (!entry.isPrefetch)
        --demandCount_;
    ++freeCount_;
}

void
MshrFile::reset()
{
    for (Mshr &entry : entries_) {
        entry.valid = false;
        entry.targets.clear();
    }
    freeCount_ = size_;
    demandCount_ = 0;
    stats_.reset();
}

} // namespace grp
