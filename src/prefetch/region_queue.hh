/**
 * @file
 * The SRP/GRP prefetch queue (Section 3.1).
 *
 * Each entry describes an aligned window of prefetch-candidate blocks:
 * a base block number, a 64-bit candidate vector, and an index field
 * marking where the scan starts (the block after the triggering
 * miss). The queue has a fixed capacity (32) and is one array in
 * queue order, oldest first: a push appends, and when the queue is
 * over capacity the oldest entry falls off the front. Dequeue order
 * is LIFO (newest region first, a walk from the back) and optionally
 * bank-aware, preferring candidates whose DRAM row is already open.
 * A dequeue masks each entry's vector with the channel's blocks and
 * tests one open row per aligned row span, so it costs O(entries),
 * not O(entries x window).
 *
 * Pointer and indirect prefetches reuse the same entry format with
 * small windows (2 blocks per pointer) and a pointer-chase depth.
 */

#ifndef GRP_PREFETCH_REGION_QUEUE_HH
#define GRP_PREFETCH_REGION_QUEUE_HH

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "adaptive/control_plane.hh"
#include "mem/dram.hh"
#include "mem/request.hh"
#include "obs/stat_registry.hh"
#include "obs/trace.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace grp
{

/** One prefetch queue entry: a window of candidate blocks. */
struct RegionEntry
{
    uint64_t baseBlock = 0; ///< Block number of the window base.
    uint64_t bitvec = 0;    ///< Bit i set => base+i is a candidate.
    unsigned numBlocks = 0; ///< Window size in blocks (<= 64).
    unsigned index = 0;     ///< Scan start position within the window.
    uint8_t ptrDepth = 0;   ///< Pointer-chase depth of resulting fills.
    RefId refId = kInvalidRefId;
    /** Hint class attributed to candidates from this window. */
    obs::HintClass hintClass = obs::HintClass::None;
};

/** Fixed-capacity prefetch candidate queue: one array of entries in
 *  queue order, oldest first (see the file comment). */
class RegionQueue
{
  public:
    /** Presence of a window's blocks, asked once per window: bit i of
     *  the result is set when block @p base_block + i (of @p blocks,
     *  at most 64) is present or in flight. */
    using PresenceTest =
        std::function<uint64_t(uint64_t base_block, unsigned blocks)>;

    /**
     * @param capacity Maximum entries (paper: 32).
     * @param lifo Scan newest entries first (paper default).
     * @param bank_aware Prefer candidates with an open DRAM row.
     */
    RegionQueue(unsigned capacity, bool lifo, bool bank_aware,
                obs::StatRegistry &registry =
                    obs::StatRegistry::current());

    /** Blocks already present/in-flight are excluded from windows. */
    void setPresenceTest(PresenceTest test) { present_ = std::move(test); }

    /** Attach the adaptive control plane (not owned). Dequeue then
     *  drains per-hint-class priority tiers high to low; a null plane
     *  (the default) keeps the single-pass queue-order scan. */
    void setControlPlane(const adaptive::ControlPlane *plane)
    {
        plane_ = plane;
    }

    /**
     * Record an L2 miss at @p miss_addr within a spatial window of
     * @p window_blocks blocks (a power of two; 64 = full region).
     * Updates the newest entry covering the miss and makes it the
     * newest, or appends a new one.
     *
     * @return Window size allocated, or 0 when the miss only updated
     *         an existing entry.
     */
    unsigned noteSpatialMiss(Addr miss_addr, unsigned window_blocks,
                             uint8_t ptr_depth, RefId ref,
                             obs::HintClass hint =
                                 obs::HintClass::Spatial);

    /**
     * Queue a pointer-target window of @p blocks blocks starting at
     * @p target's block (paper: 2 blocks per pointer).
     */
    void addPointerTarget(Addr target, unsigned blocks,
                          uint8_t ptr_depth, RefId ref,
                          obs::HintClass hint =
                              obs::HintClass::Pointer);

    /** Take the next candidate for @p channel, if any. */
    std::optional<PrefetchCandidate>
    dequeue(const DramBackend &dram, unsigned channel);

    size_t size() const { return entries_.size(); }
    bool empty() const { return entries_.empty(); }
    unsigned capacity() const { return capacity_; }

    StatGroup &stats() { return stats_; }
    const StatGroup &stats() const { return stats_; }

    /** Discard every queued entry as a drop (one Drop record each,
     *  through the fold); the other counters are left alone. */
    void flush();

    /** Empty the queue and zero its statistics (engine reset). */
    void clear();

  private:
    /** The newest entry whose window holds @p block_num, if any. */
    RegionEntry *findCovering(uint64_t block_num);
    /** Append @p entry as the newest, dropping the oldest entry when
     *  the queue goes over capacity. */
    void push(const RegionEntry &entry);
    /** Drop the oldest entry, accounting its remaining candidates. */
    void dropOldest();
    /** One scan pass over entries whose class priority equals
     *  @p tier (-1 scans every entry: the classic behavior). */
    std::optional<PrefetchCandidate>
    dequeueTier(const DramBackend &dram, unsigned channel, int tier);
    /** The window's candidates: each of its @p blocks but
     *  @p exclude_block and those the presence test reports. */
    uint64_t buildWindowVector(uint64_t base_block, unsigned blocks,
                               uint64_t exclude_block) const;

    /** Queue order, oldest first. */
    std::vector<RegionEntry> entries_;
    unsigned capacity_;
    bool lifo_;
    bool bankAware_;
    PresenceTest present_;
    const adaptive::ControlPlane *plane_ = nullptr;
    StatGroup stats_{"regionQueue"};
    obs::ScopedStatRegistration statReg_;
    obs::LifecycleFold lifecycle_; ///< Enqueues and drops.

    /** Cached counter handles (lookup once at construction). */
    Counter *regionsQueued_ = nullptr;
    Counter *pointerTargetsQueued_ = nullptr;
    Counter *candidatesDequeued_ = nullptr;
    Counter *occupancyHighWater_ = nullptr;
};

} // namespace grp

#endif // GRP_PREFETCH_REGION_QUEUE_HH
