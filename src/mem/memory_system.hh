/**
 * @file
 * The full memory hierarchy: L1D, unified L2, MSHR files, the access
 * prioritizer, writeback path and DRAM, with hooks for a prefetch
 * engine.
 *
 * Arbitration per channel per cycle (the access prioritizer of §3.1):
 * demand misses first, then writebacks, then prefetch candidates —
 * prefetches are issued only when the channel would otherwise idle
 * and no demand request is waiting, so useless prefetches cannot
 * delay demand traffic. A small number of L2 MSHRs is reserved for
 * demand so prefetches cannot starve misses of tracking resources.
 */

#ifndef GRP_MEM_MEMORY_SYSTEM_HH
#define GRP_MEM_MEMORY_SYSTEM_HH

#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "adaptive/signals.hh"
#include "mem/cache.hh"
#include "mem/dram.hh"
#include "mem/functional_memory.hh"
#include "mem/mshr.hh"
#include "mem/prefetch_iface.hh"
#include "mem/request.hh"
#include "obs/shadow_tags.hh"
#include "obs/stat_registry.hh"
#include "obs/trace.hh"
#include "sim/config.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"

namespace grp
{

/** The complete L1D/L2/DRAM hierarchy with prefetch integration. */
class MemorySystem
{
  public:
    /** Called when an outstanding load's data is ready. */
    using LoadCallback = std::function<void(uint64_t token)>;

    /** @param registry Stat registry the hierarchy (and every
     *         subcomponent) registers into; defaults to the calling
     *         thread's, so per-run registries isolate concurrent
     *         simulations. */
    MemorySystem(const SimConfig &config, EventQueue &events,
                 obs::StatRegistry &registry =
                     obs::StatRegistry::current());

    /** Attach the engine selected by the configuration (may be
     *  nullptr for no prefetching). Not owned. */
    void setPrefetchEngine(PrefetchEngine *engine) { engine_ = engine; }

    /** Register the CPU's load-completion callback. */
    void setLoadCallback(LoadCallback cb) { loadDone_ = std::move(cb); }

    /** Attach the adaptive control plane (not owned; nullptr reverts
     *  to static behavior). Drives the L2 insertion position of
     *  prefetch fills and the demand-miss pointer-depth cap. */
    void setControlPlane(const adaptive::ControlPlane *plane)
    {
        plane_ = plane;
    }

    /** Measured-window prefetch fills / first-uses per hint class
     *  (adaptive signal source; zeroed with resetStats()). Plain
     *  members, not registry counters, so stat exports and committed
     *  bench baselines are unchanged by their existence. */
    const obs::ClassCountTable &
    classPrefetchCounts() const
    {
        return classCounts_;
    }

    /**
     * Issue a load.
     *
     * @param token Opaque value handed back via the load callback.
     * @param hit_ready When non-null and the load completes with a
     *        fixed L1-hit latency, receives the completion tick and
     *        the load callback is NOT scheduled — the caller absorbs
     *        the hit synchronously instead of paying for a heap
     *        event per hit. Left untouched on a miss (the callback
     *        fires as usual) and on a structural stall.
     * @return false on a structural stall (MSHRs full); retry later.
     */
    bool load(Addr addr, RefId ref, const LoadHints &hints,
              uint64_t token, Tick *hit_ready = nullptr);

    /**
     * Issue a store (write-allocate, write-back). Stores complete
     * immediately from the CPU's perspective (store buffer); this
     * call only models cache state and miss traffic.
     *
     * @return false on a structural stall; retry later.
     */
    bool store(Addr addr, RefId ref, const LoadHints &hints);

    /** Forward an indirect prefetch instruction to the engine. */
    void indirectPrefetch(Addr base, unsigned elem_size,
                          Addr index_addr, RefId ref);

    /** Per-cycle channel arbitration; call once per CPU cycle after
     *  the CPU has issued. */
    void tick();

    /**
     * First tick after @p now at which tick() could do more than
     * repeat this cycle's accounting: start a queued demand/writeback
     * access, draw a prefetch candidate, or (queued backends) reach
     * the backend's next transition (kMaxTick when nothing is queued
     * anywhere). On a queued backend a channel can issue only while
     * its command queue has space. Until then every cycle's work is
     * a fixed increment, which fastForwardTicks() applies in one
     * batch.
     */
    Tick nextWorkTick(Tick now) const;

    /**
     * Replicate tick()'s per-cycle accounting for the skipped cycles
     * [@p from, @p to): channel busy/idle attribution, prefetch
     * throttle counters and demand-behind-prefetch contention, each
     * scaled by the cycle count — byte-identical to ticking the
     * window cycle by cycle (the runner guarantees no queue, MSHR or
     * event state can change inside the window).
     */
    void fastForwardTicks(Tick from, Tick to);

    /** No demand request is outstanding anywhere. */
    bool quiesced() const;

    Cache &l1d() { return *l1d_; }
    Cache &l2() { return *l2_; }
    DramBackend &dram() { return *dram_; }
    MshrFile &l1Mshrs() { return *l1Mshrs_; }
    MshrFile &l2Mshrs() { return *l2Mshrs_; }
    StatGroup &stats() { return stats_; }
    const StatGroup &stats() const { return stats_; }

    /** Total bytes moved on the memory channels (fills of both
     *  classes plus writebacks): the paper's traffic metric. */
    uint64_t trafficBytes() const;

    /** L2 demand misses that went to memory (coverage metric
     *  numerator is computed against a no-prefetch run). */
    uint64_t l2DemandMisses() const;

    /** Demand requests waiting for a channel (time-series hook). */
    size_t demandQueueDepth() const;
    /** Writebacks waiting for a channel (time-series hook). */
    size_t writebackQueueDepth() const;

    void reset();

    /** Zero all statistics without touching cache/MSHR/DRAM state
     *  (end-of-warmup measurement boundary). */
    void resetStats();

    /**
     * Attach the counterfactual shadow tags (tag-only no-prefetch L2
     * replica) and the pollution victim table. From here on every
     * demand L2 access is classified into mem.pollutionBothHits /
     * pollutionCoverageHits / pollutionMisses / pollutionBaselineMisses
     * and each pollution miss is charged, when the victim table still
     * holds the evicted block, to the (RefId, HintClass) of the
     * prefetch that evicted it. Pure bookkeeping: enabling this never
     * changes timing. Idempotent.
     */
    void enableShadowTags();
    bool shadowTagsEnabled() const { return shadow_ != nullptr; }

    /** The victim table backing pollution attribution (cost report /
     *  tests); only valid once shadow tags are enabled. */
    const obs::VictimTable &victimTable() const { return victims_; }

  private:
    bool handleL1Miss(Addr addr, RefId ref, const LoadHints &hints,
                      uint64_t token, bool is_write);
    /** First CPU reference to a prefetched block: attribute it to its
     *  hint class and warmup era, sample the fill-to-use distance. */
    void notePrefetchUseful(Addr block_addr);
    void respondAfter(Tick delay, Addr block_addr);
    void finishL1Fill(Addr block_addr);
    /** @p ref / @p hint attribute a prefetch insertion's evictions to
     *  the responsible site (victim-table recording). */
    void insertIntoL2(Addr block_addr, bool as_prefetch, bool dirty,
                      RefId ref = kInvalidRefId,
                      obs::HintClass hint = obs::HintClass::None);
    /** Replay one demand L2 access against the shadow tags and count
     *  its baseline/pollution/coverage classification. */
    void classifyDemandAccess(Addr block_addr, bool real_hit);
    void startDramAccess(unsigned channel, const MemRequest &req);
    void onDramFill(MemRequest req);
    bool tryIssuePrefetch(unsigned channel);
    /** Why the prioritizer refuses prefetches (nullopt: gates open). */
    std::optional<obs::StallReason> prefetchStall() const;
    /** Charge @p cycles of demand queueing behind @p channel's
     *  in-flight prefetch, if any, to DRAM and the prefetch's site. */
    void chargeContention(unsigned channel, uint64_t cycles);
    uint8_t demandPtrDepth(const LoadHints &hints) const;

    SimConfig config_;
    EventQueue &events_;
    std::unique_ptr<Cache> l1d_;
    std::unique_ptr<Cache> l2_;
    std::unique_ptr<MshrFile> l1Mshrs_;
    std::unique_ptr<MshrFile> l2Mshrs_;
    std::unique_ptr<DramBackend> dram_;
    /** Cached dram_->queued(): the selected backend schedules
     *  commands internally, so tick() drives dram tick/popCompleted
     *  and arbitration gates on canAccept() instead of channelIdle().
     *  False for the legacy backend — its hot path is untouched. */
    bool timingMode_ = false;
    PrefetchEngine *engine_ = nullptr;
    LoadCallback loadDone_;
    const adaptive::ControlPlane *plane_ = nullptr;
    /** Per-hint-class fill/first-use accounting (see accessor). */
    obs::ClassCountTable classCounts_{};
    /** The one writer of the lifecycle counters and classCounts_. */
    obs::LifecycleFold lifecycle_;

    std::vector<std::deque<MemRequest>> demandQueues_;
    std::vector<std::deque<MemRequest>> writebackQueues_;
    /** Cached sums of the per-channel queue sizes, maintained at every
     *  push/pop so tick()'s quiet-cycle fast path is two compares. */
    size_t queuedDemand_ = 0;
    size_t queuedWriteback_ = 0;
    /** Writeback queue depth beyond which writebacks pre-empt
     *  demand to bound queue growth. */
    static constexpr size_t kWritebackHighWater = 16;
    /** L2 MSHRs reserved for demand traffic. */
    static constexpr unsigned kDemandReservedMshrs = 2;
    /** Candidate re-draws per channel per cycle when the engine
     *  offers already-present blocks. */
    static constexpr unsigned kPrefetchDrawLimit = 8;

    /** A prefetch-filled block not yet referenced by the CPU. */
    struct PrefetchFillInfo
    {
        Tick fillTick = 0;
        obs::HintClass hint = obs::HintClass::None;
        /** Issued before the measurement boundary; its eventual use
         *  is warmup carryover, not measured-window accuracy. */
        bool warm = false;
        /** Static reference that earned the prefetch (site
         *  attribution for the tracer and the site profiler). */
        RefId ref = kInvalidRefId;
    };

    /** Live (unreferenced) prefetch fills keyed by block address. */
    std::unordered_map<Addr, PrefetchFillInfo> livePrefetches_;
    /** Tick of the last resetStats() (warmup/measurement boundary). */
    Tick boundaryTick_ = 0;

    /** Counterfactual no-prefetch L2 replica (null until
     *  enableShadowTags()). */
    std::unique_ptr<obs::ShadowTags> shadow_;
    /** Evicted-victim attribution for pollution misses. */
    obs::VictimTable victims_;

    /** Cached classification counters (mem.pollution*): registered by
     *  enableShadowTags(), hot on every demand L2 access. Counter
     *  storage is stable across StatGroup::reset(). */
    struct PollutionCounters
    {
        Counter *bothHits = nullptr;
        Counter *baselineMisses = nullptr;
        Counter *coverageHits = nullptr;
        Counter *shadowMisses = nullptr;
        Counter *victimDrops = nullptr;
    };
    PollutionCounters pol_;

    /** Cached hot-path counter handles (mem.*): looked up by name
     *  once at construction, bumped through pointers on every
     *  access/fill/arbitration event. Counter storage is stable
     *  across StatGroup::reset(). */
    struct HotCounters
    {
        Counter *l1DemandAccesses = nullptr;
        Counter *l1DemandMisses = nullptr;
        Counter *l1TargetStalls = nullptr;
        Counter *l1MshrStalls = nullptr;
        Counter *l2DemandAccesses = nullptr;
        Counter *l2DemandHits = nullptr;
        Counter *l2DemandMissesTotal = nullptr;
        Counter *latePrefetchUpgrades = nullptr;
        Counter *l2TargetStalls = nullptr;
        Counter *l2MshrStalls = nullptr;
        Counter *demandToMemory = nullptr;
        Counter *demandFills = nullptr;
        Counter *prefetchFills = nullptr;
        Counter *writebacks = nullptr;
        Counter *writebacksQueued = nullptr;
    };
    HotCounters hot_;

    StatGroup stats_;
    obs::ScopedStatRegistration statReg_;
};

} // namespace grp

#endif // GRP_MEM_MEMORY_SYSTEM_HH
