/**
 * @file
 * The pure-hardware prefetch engines: SRP, stateless pointer
 * prefetching, recursive pointer prefetching, and the SRP+pointer
 * combination — every scheme of the paper that needs no compiler
 * hints. GRP (the hint-regulated engine) lives in core/grp_engine.hh.
 */

#ifndef GRP_PREFETCH_HW_ENGINE_HH
#define GRP_PREFETCH_HW_ENGINE_HH

#include "mem/functional_memory.hh"
#include "mem/prefetch_iface.hh"
#include "prefetch/pointer_scanner.hh"
#include "prefetch/region_queue.hh"
#include "sim/config.hh"

namespace grp
{

/** Hardware-only prefetch engine (no compiler hints). */
class HwPrefetchEngine : public PrefetchEngine
{
  public:
    /**
     * @param scheme One of Srp, PointerHw, PointerHwRec,
     *        SrpPlusPointer.
     */
    HwPrefetchEngine(const SimConfig &config,
                     const FunctionalMemory &mem,
                     obs::StatRegistry &registry =
                         obs::StatRegistry::current());

    void setPresenceTest(RegionQueue::PresenceTest test);

    /** Attach the adaptive control plane (not owned): priority-tiers
     *  the prefetch queue. A null plane keeps queue-order dequeue. */
    void
    setControlPlane(const adaptive::ControlPlane *plane)
    {
        queue_.setControlPlane(plane);
    }

    void onL2DemandMiss(Addr addr, RefId ref,
                        const LoadHints &hints) override;
    void onFill(Addr block_addr, uint8_t ptr_depth,
                ReqClass cls) override;
    std::optional<PrefetchCandidate>
    dequeuePrefetch(const DramBackend &dram, unsigned channel) override;

    StatGroup &stats() override { return stats_; }
    RegionQueue &queue() { return queue_; }

    size_t queueDepth() const override { return queue_.size(); }

    void reset() override;

    void resetStats() override { stats_.reset(); queue_.stats().reset(); }

  private:
    bool usesRegions() const;
    bool usesPointers() const;

    SimConfig config_;
    RegionQueue queue_;
    PointerScanner scanner_;
    obs::LifecycleFold lifecycle_; ///< Hint triggers: binds nothing.
    StatGroup stats_;
    obs::ScopedStatRegistration statReg_;

    /** Cached counter handles (lookup once at construction). */
    Counter *regionsAllocated_ = nullptr;
    Counter *regionsUpdated_ = nullptr;
    Counter *linesScanned_ = nullptr;
    Counter *pointersFound_ = nullptr;
    Counter *candidatesOffered_ = nullptr;
};

} // namespace grp

#endif // GRP_PREFETCH_HW_ENGINE_HH
