/**
 * @file
 * The SRP/GRP prefetch queue (Section 3.1).
 *
 * Each entry describes an aligned window of prefetch-candidate blocks:
 * a base block number, a 64-bit candidate vector, and an index field
 * marking where the scan starts (the block after the triggering
 * miss). New entries are pushed at the head; the queue has a fixed
 * capacity (32) and old entries fall off the bottom. Dequeue order is
 * LIFO (newest region first) and optionally bank-aware, preferring
 * candidates whose DRAM row is already open. A dequeue masks each
 * entry's vector with the channel's blocks and tests one open row per
 * aligned row span, so it costs O(entries), not O(entries x window).
 *
 * Pointer and indirect prefetches reuse the same entry format with
 * small windows (2 blocks per pointer) and a pointer-chase depth.
 */

#ifndef GRP_PREFETCH_REGION_QUEUE_HH
#define GRP_PREFETCH_REGION_QUEUE_HH

#include <array>
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

/** Fixed-capacity prefetch candidate queue. */
class RegionQueue
{
  public:
    using PresenceTest = std::function<bool(Addr)>;

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
     * Updates the existing entry covering the miss or allocates a
     * new one at the head.
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

    size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    unsigned capacity() const { return capacity_; }

    /** Total candidate blocks dropped when old entries fell off. */
    uint64_t droppedCandidates() const { return dropped_; }

    StatGroup &stats() { return stats_; }
    const StatGroup &stats() const { return stats_; }

    /** Discard every queued entry as a drop (one Drop record each,
     *  through the fold); the other counters are left alone. */
    void flush();

    /** Empty the queue and zero its statistics (engine reset). */
    void clear();

  private:
    /**
     * Entries live in a fixed pool of capacity + 1 slots (one spare
     * so a push can link before the eviction check) threaded onto two
     * intrusive lists: a global queue-order list, and one list per
     * hint class. A tier scan used to walk every entry and filter by
     * class priority — O(entries) per tier, repeated for each tier —
     * and now merges only the class lists whose priority matches the
     * tier. The seq field makes the merge order well-defined: front
     * pushes take descending values, so ascending seq IS front-to-back
     * queue order and the k-way merge reproduces the filtered walk
     * exactly (the ordering-equivalence test in
     * tests/test_region_queue.cc checks this against a reference
     * deque implementation).
     */
    struct Slot
    {
        RegionEntry entry;
        uint64_t seq = 0;
        int prevAll = -1;
        int nextAll = -1;
        int prevCls = -1;
        int nextCls = -1;
        bool used = false;
    };

    static constexpr std::size_t kNumClasses = adaptive::kNumClasses;

    int allocSlot();
    /** Unlink @p idx from both lists and return it to the free list. */
    void removeSlot(int idx);
    void linkFront(int idx);

    Slot *findCovering(uint64_t block_num);
    void pushFront(RegionEntry entry);
    /** Drop the oldest entry, accounting its remaining candidates. */
    void dropTail();
    /** One scan pass over entries whose class priority equals
     *  @p tier (-1 scans every entry: the classic behavior). */
    std::optional<PrefetchCandidate>
    dequeueTier(const DramBackend &dram, unsigned channel, int tier);
    uint64_t buildWindowVector(uint64_t base_block, unsigned blocks,
                               uint64_t exclude_block) const;

    std::vector<Slot> slots_;
    int freeHead_ = -1;
    int allHead_ = -1;
    int allTail_ = -1;
    std::array<int, kNumClasses> clsHead_;
    std::array<int, kNumClasses> clsTail_;
    size_t size_ = 0;
    /** Descending per-push sequence (see Slot). */
    uint64_t nextSeq_;
    unsigned capacity_;
    bool lifo_;
    bool bankAware_;
    PresenceTest present_;
    const adaptive::ControlPlane *plane_ = nullptr;
    uint64_t dropped_ = 0;
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
