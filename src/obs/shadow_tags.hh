/**
 * @file
 * Counterfactual shadow tags and pollution-victim attribution.
 *
 * ShadowTags is a tag-only replica of the real L2 that replays the
 * demand stream but never accepts prefetch fills: it models the cache
 * the program would have seen with prefetching switched off. Probing
 * real and shadow together classifies every demand L2 access into
 * four outcomes:
 *
 *   hit both      — prefetching changed nothing;
 *   baseline miss — missed in both: the miss exists with or without
 *                   prefetching;
 *   pollution miss— hit in shadow, missed in real: a prefetch-caused
 *                   eviction cost us a hit we would otherwise have
 *                   had;
 *   coverage hit  — hit in real, missed in shadow: prefetching earned
 *                   a hit the baseline cache would have missed.
 *
 * By construction the classification satisfies, over any window in
 * which all four counters accumulate together,
 *
 *   coverageHits - pollutionMisses == shadowMisses - realMisses
 *
 * exactly (both sides equal the same partition of the demand stream),
 * which is the identity tests/test_shadow_tags.cc asserts end to end.
 *
 * VictimTable charges each pollution miss to the prefetch that caused
 * it: when a prefetch fill evicts a live block from the real L2, the
 * victim's address is recorded against the (RefId, HintClass) of the
 * responsible prefetch in a bounded FIFO table; a later pollution
 * miss on that address takes the entry and attributes the cost to the
 * hint site, feeding the SiteProfiler's net-cycles ledger.
 *
 * Both structures are pure bookkeeping: they never influence timing,
 * so enabling them cannot perturb the simulation they observe.
 */

#ifndef GRP_OBS_SHADOW_TAGS_HH
#define GRP_OBS_SHADOW_TAGS_HH

#include <cstdint>
#include <deque>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/trace.hh"
#include "sim/types.hh"

namespace grp
{
namespace obs
{

/** Tag-only LRU shadow cache mirroring the real L2's geometry. */
class ShadowTags
{
  public:
    /** @p sets and @p assoc must match the shadowed cache (sets a
     *  power of two, as the real cache enforces). */
    ShadowTags(unsigned sets, unsigned assoc);

    /**
     * Replay one demand access: probe, touch LRU on a hit, allocate
     * (evicting LRU) on a miss — the shadow cache sees every demand
     * as a hit-or-fill, never a prefetch.
     *
     * @return true when the block was present before this access.
     */
    bool access(Addr block_addr);

    /** Replay a demand-class allocation that bypasses the classified
     *  access path (L1 victim writebacks allocating in the L2). */
    void allocate(Addr block_addr);

    /** The block is currently present (no LRU update; tests). */
    bool contains(Addr block_addr) const;

    unsigned sets() const { return numSets_; }
    unsigned assoc() const { return assoc_; }

    void reset();

  private:
    struct Line
    {
        Addr tag = 0;
        uint64_t lruStamp = 0;
        bool valid = false;
    };

    unsigned setIndex(Addr block_addr) const;
    Addr tagOf(Addr block_addr) const;
    const Line *findLine(Addr block_addr) const;

    unsigned numSets_;
    /** log2(numSets_), the tag's offset in a block number. */
    unsigned setShift_;
    unsigned assoc_;
    std::vector<Line> lines_;
    uint64_t nextStamp_ = 1;
};

/** Bounded FIFO map from evicted-victim block address to the
 *  (RefId, HintClass) of the prefetch whose fill evicted it. */
class VictimTable
{
  public:
    struct Entry
    {
        RefId ref = kInvalidRefId;
        HintClass hint = HintClass::None;
    };

    explicit VictimTable(size_t capacity = kDefaultCapacity);

    /** Remember that @p victim_block was evicted by a prefetch from
     *  @p ref / @p hint; re-recording overwrites the attribution
     *  (the newest eviction is the one a future miss pays for). */
    void record(Addr victim_block, RefId ref, HintClass hint);

    /** Consume the entry for @p victim_block (a pollution miss was
     *  charged); nullopt when the table never saw it or dropped it. */
    std::optional<Entry> take(Addr victim_block);

    size_t size() const { return map_.size(); }
    size_t capacity() const { return capacity_; }
    /** Entries evicted by the capacity bound before being taken. */
    uint64_t drops() const { return drops_; }
    uint64_t recorded() const { return recorded_; }

    void reset();

    static constexpr size_t kDefaultCapacity = 4096;

  private:
    struct Stored
    {
        Entry entry;
        uint64_t seq = 0;
    };

    /** Pop FIFO entries until the live map fits the capacity;
     *  stale FIFO entries (superseded by a re-record) are skipped. */
    void enforceCapacity();

    size_t capacity_;
    std::unordered_map<Addr, Stored> map_;
    std::deque<std::pair<Addr, uint64_t>> fifo_;
    uint64_t seq_ = 0;
    uint64_t drops_ = 0;
    uint64_t recorded_ = 0;
};

} // namespace obs
} // namespace grp

#endif // GRP_OBS_SHADOW_TAGS_HH
