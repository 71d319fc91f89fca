/**
 * @file
 * The region prefetch engine: SRP (§3.1) and every scheme built on
 * its hardware. One 32-entry LIFO region queue is drained only into
 * idle DRAM channels, and returned lines that carry a pointer-chase
 * depth are scanned for heap addresses (§3.2). The scheme decides
 * three things:
 *
 *  - whether misses allocate regions at all: srp, srp+ptr,
 *    srp-throttled and the grp-* schemes do; ptr-hw and ptr-hw-rec
 *    only chase pointers;
 *  - whether a miss needs the compiler's spatial hint (grp-*, §3.3):
 *    unhinted misses start no region, and grp-var / grp-adaptive
 *    shrink the window to the hinted size;
 *  - whether an accuracy governor may pause the queue
 *    (srp-throttled): the class of scheme the paper contrasts GRP
 *    against in §1, "some schemes throttle prefetching when the
 *    accuracy drops below a threshold". Every kThrottleWindow
 *    dequeues it reads one epoch of issued vs. useful prefetches from
 *    an adaptive::Signals sampler and pauses below kAccuracyFloor,
 *    until kResumeMisses demand misses have gone uncovered.
 *
 * Pointer and recursive-pointer hints need nothing here: the memory
 * system arms the miss's chase depth and the scan runs on fill. An
 * explicit indirect prefetch instruction (§3.3.3) reads the index
 * block and prefetches a + elem * b[k] for each of its words.
 */

#ifndef GRP_PREFETCH_REGION_ENGINE_HH
#define GRP_PREFETCH_REGION_ENGINE_HH

#include "adaptive/signals.hh"
#include "mem/functional_memory.hh"
#include "mem/prefetch_iface.hh"
#include "prefetch/pointer_scanner.hh"
#include "prefetch/region_queue.hh"
#include "sim/config.hh"

namespace grp
{

/** The SRP region engine, regulated by hints or the throttle. */
class RegionEngine : public PrefetchEngine
{
  public:
    /** srp-throttled evaluates its accuracy once per this many
     *  dequeues... */
    static constexpr unsigned kThrottleWindow = 256;
    /** ...pauses when useful/issued falls below this floor... */
    static constexpr double kAccuracyFloor = 0.20;
    /** ...and resumes after this many uncovered demand misses. */
    static constexpr unsigned kResumeMisses = 64;

    /**
     * @param config Any scheme but None and Stride.
     * @param mem Functional memory (pointer scanning and indirect
     *        index reads need line contents).
     * @param accuracy Cumulative signal source the srp-throttled
     *        governor samples (production: adaptive::memorySource
     *        over the run's MemorySystem; tests: a synthetic lambda).
     *        Required for srp-throttled, unused otherwise.
     */
    RegionEngine(const SimConfig &config, const FunctionalMemory &mem,
                 adaptive::Signals::Source accuracy = {},
                 obs::StatRegistry &registry =
                     obs::StatRegistry::current());

    void setPresenceTest(RegionQueue::PresenceTest test);

    /** Attach the adaptive control plane (not owned): caps the
     *  spatial window and priority-tiers the queue. A null plane
     *  keeps grp-var behavior exactly. */
    void setControlPlane(const adaptive::ControlPlane *plane);

    void onL2DemandMiss(Addr addr, RefId ref,
                        const LoadHints &hints) override;
    void onFill(Addr block_addr, uint8_t ptr_depth,
                ReqClass cls) override;
    std::optional<PrefetchCandidate>
    dequeuePrefetch(const DramBackend &dram, unsigned channel) override;
    void indirectPrefetch(Addr base, unsigned elem_size,
                          Addr index_addr, RefId ref) override;

    /** The group is named for the scheme family: hwEngine,
     *  throttledSrp or grpEngine. */
    StatGroup &stats() override { return stats_; }

    size_t queueDepth() const override { return queue_.size(); }
    size_t queueCapacity() const override { return queue_.capacity(); }

    /** Distribution of allocated region sizes in blocks (Table 4);
     *  sampled under hint schemes only. */
    const Distribution &regionSizes() const { return regionSizes_; }

    /** The srp-throttled governor has paused the queue. */
    bool throttled() const { return throttled_; }

    void reset() override;

    void resetStats() override { stats_.reset(); queue_.stats().reset(); }

  private:
    /** Count a demand miss against the current pause; true when it
     *  ends the pause. */
    bool resumeAfterMiss();
    /** Close one governor epoch: pause on low accuracy. */
    void evaluateAccuracy();

    const bool allocatesRegions_;
    const bool hinted_;
    const bool sizedRegions_;
    const bool governed_;
    const unsigned blocksPerPointer_;
    const unsigned indirectFanout_;
    const FunctionalMemory &mem_;
    const adaptive::ControlPlane *plane_ = nullptr;
    RegionQueue queue_;
    PointerScanner scanner_;
    obs::LifecycleFold lifecycle_; ///< Hint triggers: binds nothing.
    StatGroup stats_;
    obs::ScopedStatRegistration statReg_;
    Distribution regionSizes_;

    adaptive::Signals signals_;
    /** Dequeues since the last accuracy evaluation. */
    uint64_t dequeuesSinceEval_ = 0;
    bool throttled_ = false;
    /** missesWhileThrottled counter value when the current pause
     *  began (resume progress is the delta; the counter IS the
     *  accounting — no duplicate raw member). */
    uint64_t throttleStartMisses_ = 0;

    /** Where the counters a scheme does not export land: never
     *  registered, never read. */
    Counter unexported_;

    /** Cached counter handles (lookup once at construction). */
    Counter *regionsAllocated_ = nullptr;
    Counter *regionsUpdated_ = nullptr;
    Counter *candidatesOffered_ = nullptr;
    Counter *linesScanned_ = nullptr;
    Counter *pointersFound_ = nullptr;
    Counter *missesUnhinted_ = nullptr;
    Counter *indirectOps_ = nullptr;
    Counter *indirectTargets_ = nullptr;
    Counter *missesWhileThrottled_ = nullptr;
    Counter *resumes_ = nullptr;
    Counter *throttleEvents_ = nullptr;
};

} // namespace grp

#endif // GRP_PREFETCH_REGION_ENGINE_HH
