/**
 * @file
 * A set-associative tag store with true-LRU replacement and the
 * low-priority prefetch insertion policy of SRP/GRP: prefetched
 * blocks enter at the LRU position of their set and are promoted to
 * MRU only on an explicit CPU reference, bounding pollution to one
 * way per set (Section 3.1).
 */

#ifndef GRP_MEM_CACHE_HH
#define GRP_MEM_CACHE_HH

#include <optional>
#include <vector>

#include "adaptive/control_plane.hh"
#include "obs/stat_registry.hh"
#include "sim/config.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace grp
{

/** A victim produced by an insertion. */
struct Eviction
{
    Addr blockAddr;
    bool dirty;
    /** The victim was a prefetched block never referenced by the CPU
     *  (an accuracy loss the stats track). */
    bool wasUnusedPrefetch;
};

/** Result of a demand access. */
struct CacheAccessResult
{
    bool hit;
    /** The hit consumed a prefetched block for the first time. */
    bool firstUseOfPrefetch;
};

/** Set-associative, write-back, true-LRU tag store. */
class Cache
{
  public:
    /**
     * @param config Geometry and latency parameters.
     * @param name Statistics group name (e.g. "l1d", "l2").
     * @param lru_insertion Insert prefetches at LRU (paper default)
     *        rather than MRU (ablation knob).
     * @param registry Stat registry to register into (defaults to the
     *        calling thread's).
     */
    Cache(const CacheConfig &config, const std::string &name,
          bool lru_insertion = true,
          obs::StatRegistry &registry = obs::StatRegistry::current());

    /**
     * Demand access for a read or write; updates LRU state and marks
     * the block dirty on writes. Prefetched blocks touched here are
     * promoted to MRU and count as useful.
     */
    CacheAccessResult access(Addr addr, bool is_write);

    /**
     * Single-walk fusion of contains() + access(): one set/tag
     * computation and one way scan. On a hit it behaves exactly like
     * access() (LRU promotion, dirty marking, first-use detection,
     * accesses/hits counters); on a miss it behaves exactly like
     * contains() — no state change and *no counter bumps* (the
     * returned result has hit == false and nothing was recorded).
     */
    CacheAccessResult accessIfPresent(Addr addr, bool is_write);

    /** Tag probe without any state update. */
    bool contains(Addr addr) const;

    /**
     * Insert the block containing @p addr.
     *
     * @param as_prefetch Insert at LRU position with the prefetch bit
     *        set; otherwise insert at MRU.
     * @param dirty Initial dirty state (stores that missed).
     * @param pos Explicit recency position for a prefetch insertion
     *        (adaptive control-plane override). Ignored for demand
     *        insertions (always MRU); when absent, prefetches follow
     *        the constructor's lru_insertion policy.
     * @return The evicted victim, if a valid block was displaced.
     */
    std::optional<Eviction> insert(Addr addr, bool as_prefetch,
                                   bool dirty,
                                   std::optional<adaptive::InsertPos>
                                       pos = std::nullopt);

    /** Mark the block containing @p addr dirty (store to present
     *  block); no-op when absent. */
    void markDirty(Addr addr);

    /** Remove the block containing @p addr if present. */
    void invalidate(Addr addr);

    /** True when a prefetched-but-not-yet-referenced copy of the
     *  block is present (stats / filtering). */
    bool containsUnusedPrefetch(Addr addr) const;

    unsigned sets() const { return numSets_; }
    unsigned assoc() const { return assoc_; }
    unsigned latency() const { return config_.latency; }

    StatGroup &stats() { return stats_; }
    const StatGroup &stats() const { return stats_; }

    /** Invalidate everything and zero statistics. */
    void reset();

  private:
    struct Line
    {
        Addr tag = 0;
        bool valid = false;
        bool dirty = false;
        bool prefetched = false; ///< Filled by a prefetch...
        bool referenced = false; ///< ...and later touched by the CPU.
        uint64_t lruStamp = 0;   ///< Higher = more recently used.
    };

    unsigned setIndex(Addr addr) const;
    Addr tagOf(Addr addr) const;
    /** Way holding @p tag within set @p set_idx, or nullptr. */
    Line *findInSet(unsigned set_idx, Addr tag);
    Line *findLine(Addr addr);
    const Line *findLine(Addr addr) const;
    CacheAccessResult touchLine(Line &line, bool is_write);

    CacheConfig config_;
    unsigned numSets_;
    /** log2(numSets_): a block number's tag is its bits above the
     *  set index. */
    unsigned setShift_;
    unsigned assoc_;
    bool lruInsertion_;
    uint64_t nextStamp_ = 1;
    std::vector<Line> lines_; ///< numSets_ * assoc_, set-major.
    StatGroup stats_;
    obs::ScopedStatRegistration statReg_;

    /** Cached counter handles: the name lookups happen once, at
     *  construction; the access path pays a pointer increment.
     *  Counter storage is stable across StatGroup::reset(). */
    struct HotCounters
    {
        Counter *accesses = nullptr;
        Counter *hits = nullptr;
        Counter *misses = nullptr;
        Counter *prefetchHits = nullptr;
        Counter *evictions = nullptr;
        Counter *unusedPrefetchEvictions = nullptr;
        Counter *prefetchFills = nullptr;
        Counter *demandFills = nullptr;
    };
    HotCounters cnt_;
};

} // namespace grp

#endif // GRP_MEM_CACHE_HH
