/**
 * @file
 * Miss status holding registers.
 *
 * Each cache owns a small MSHR file (paper: 8 entries). MSHRs track
 * all outstanding accesses, demand and prefetch alike; demand misses
 * to a block with an in-flight prefetch coalesce onto the prefetch's
 * entry, upgrading it to demand class.
 */

#ifndef GRP_MEM_MSHR_HH
#define GRP_MEM_MSHR_HH

#include <cstdint>
#include <vector>

#include "mem/request.hh"
#include "obs/stat_registry.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace grp
{

/** One coalesced requester waiting on an in-flight block. */
struct MshrTarget
{
    uint64_t token;   ///< Opaque requester token (ROB slot / L1 id).
    bool isWrite;
    RefId refId;
};

/** One outstanding block miss. */
struct Mshr
{
    Addr blockAddr = 0;
    bool valid = false;
    bool isPrefetch = false;  ///< No demand target attached yet.
    uint8_t ptrDepth = 0;     ///< Pointer-chase levels on return.
    LoadHints hints;
    Tick allocated = 0;
    std::vector<MshrTarget> targets;
};

/** A fixed-capacity MSHR file. */
class MshrFile
{
  public:
    MshrFile(unsigned entries, unsigned max_targets,
             const std::string &name,
             obs::StatRegistry &registry = obs::StatRegistry::current());

    /** Entry tracking @p addr's block, or nullptr. */
    Mshr *find(Addr addr);
    const Mshr *find(Addr addr) const;

    /** find() for @p blocks consecutive blocks from block number
     *  @p base_block (at most 64, any alignment) in one walk over the
     *  entries: bit i is set when block base_block + i has one. */
    uint64_t presentMask(uint64_t base_block, unsigned blocks) const;

    /** True when no entry is free. */
    bool full() const { return freeCount_ == 0; }
    unsigned inFlight() const { return size_ - freeCount_; }
    unsigned capacity() const { return size_; }
    /** Valid entries with a demand requester attached. */
    unsigned demandInFlight() const { return demandCount_; }

    /**
     * Allocate an entry for @p addr's block. The caller must have
     * checked full() and the absence of an existing entry.
     */
    Mshr &allocate(Addr addr, bool is_prefetch, const LoadHints &hints,
                   uint8_t ptr_depth, Tick now);

    /**
     * Attach a demand target to an existing entry; returns false when
     * the per-entry target list is exhausted (requester must retry).
     * Attaching a demand target to a prefetch entry upgrades it.
     */
    bool addTarget(Mshr &entry, const MshrTarget &target);

    /** Release @p entry (its block has been filled). */
    void deallocate(Mshr &entry);

    StatGroup &stats() { return stats_; }

    void reset();

  private:
    std::vector<Mshr> entries_;
    unsigned size_;
    unsigned maxTargets_;
    unsigned freeCount_;
    unsigned demandCount_ = 0;
    StatGroup stats_;
    obs::ScopedStatRegistration statReg_;

    /** Cached counter handles (lookup once at construction). */
    Counter *prefetchAllocs_ = nullptr;
    Counter *demandAllocs_ = nullptr;
    Counter *prefetchUpgrades_ = nullptr;
    Counter *coalescedTargets_ = nullptr;
};

} // namespace grp

#endif // GRP_MEM_MSHR_HH
