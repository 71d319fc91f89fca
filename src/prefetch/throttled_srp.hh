/**
 * @file
 * An accuracy-throttled SRP variant — the class of scheme the paper
 * contrasts GRP against in Section 1: "While some schemes throttle
 * prefetching when the accuracy drops below a threshold, they then
 * miss opportunities for issuing useful prefetches" (citing Dahlgren
 * and Stenstrom). This engine wraps the SRP region hardware with a
 * purely dynamic accuracy monitor: no compiler information at all.
 *
 * The accuracy signal comes from an adaptive::Signals epoch sampler
 * over the run's mem.* counters (the same sampler the adaptive
 * controller uses) rather than private issue/use accounting: every
 * kWindow dequeues the engine reads one delta of issued vs. useful
 * prefetches and pauses when the ratio is below the floor.
 *
 * It exists as an extension/ablation point: bench/ext_throttle and
 * bench/ext_adaptive compare SRP, throttled SRP and GRP variants to
 * show that global dynamic throttling cuts traffic by sacrificing
 * coverage, where hint-guided (and per-class adaptive) schemes keep
 * it.
 */

#ifndef GRP_PREFETCH_THROTTLED_SRP_HH
#define GRP_PREFETCH_THROTTLED_SRP_HH

#include "adaptive/signals.hh"
#include "mem/functional_memory.hh"
#include "mem/prefetch_iface.hh"
#include "prefetch/region_queue.hh"
#include "sim/config.hh"

namespace grp
{

/** SRP with a dynamic accuracy governor. */
class ThrottledSrpEngine : public PrefetchEngine
{
  public:
    /** Issue statistics are evaluated once per window. */
    static constexpr unsigned kWindow = 256;

    /**
     * @param source Cumulative signal source the accuracy epochs are
     *        sampled from (production: adaptive::memorySource over
     *        the run's MemorySystem; tests: a synthetic lambda).
     * @param accuracy_floor Minimum useful/issued ratio; below it
     *        the engine pauses until demand misses accumulate.
     * @param resume_misses Demand misses required to resume.
     */
    ThrottledSrpEngine(const SimConfig &config,
                       adaptive::Signals::Source source,
                       double accuracy_floor = 0.20,
                       unsigned resume_misses = 64,
                       obs::StatRegistry &registry =
                           obs::StatRegistry::current());

    void setPresenceTest(RegionQueue::PresenceTest test);

    void onL2DemandMiss(Addr addr, RefId ref,
                        const LoadHints &hints) override;
    std::optional<PrefetchCandidate>
    dequeuePrefetch(const DramBackend &dram, unsigned channel) override;

    StatGroup &stats() override { return stats_; }
    bool throttled() const { return throttled_; }

    size_t queueDepth() const override { return queue_.size(); }

    void reset() override;

    void resetStats() override { stats_.reset(); queue_.stats().reset(); }

  private:
    SimConfig config_;
    RegionQueue queue_;
    obs::LifecycleFold lifecycle_; ///< Hint triggers: binds nothing.
    double accuracyFloor_;
    unsigned resumeMisses_;

    adaptive::Signals signals_;
    /** Dequeues since the last accuracy evaluation. */
    uint64_t dequeuesSinceEval_ = 0;
    bool throttled_ = false;
    /** missesWhileThrottled counter value when the current pause
     *  began (resume progress is the delta; the counter IS the
     *  accounting — no duplicate raw member). */
    uint64_t throttleStartMisses_ = 0;

    StatGroup stats_;
    obs::ScopedStatRegistration statReg_;

    /** Cached counter handles (lookup once at construction). */
    Counter *missesWhileThrottledCounter_ = nullptr;
    Counter *resumes_ = nullptr;
    Counter *regionsAllocated_ = nullptr;
    Counter *regionsUpdated_ = nullptr;
    Counter *throttleEvents_ = nullptr;
};

} // namespace grp

#endif // GRP_PREFETCH_THROTTLED_SRP_HH
