/**
 * @file
 * The Guided Region Prefetching engine — the paper's contribution
 * (Section 3.3).
 *
 * GRP is the SRP hardware regulated by compiler hints:
 *
 *  - A *spatial* hint gates region allocation: only misses the
 *    compiler marked spatial start a region prefetch.
 *  - A *size* hint (GRP/Var) shrinks the region to
 *    `loop bound << coefficient` bytes, cutting useless traffic when
 *    the spatial reuse does not span the full 4 KB region.
 *  - *pointer* / *recursive pointer* hints arm the stateless pointer
 *    scanner on the miss's returned line; a 3-bit counter in the
 *    MSHRs/queue entries (1 for pointer, 6 for recursive) bounds the
 *    chase depth, and each discovered pointer prefetches two blocks.
 *  - An explicit *indirect* prefetch instruction conveys
 *    (&a[0], sizeof(a[0]), &b[i]); the engine reads the index block
 *    and prefetches a + elem * b[k] for each of its 16 words.
 */

#ifndef GRP_CORE_GRP_ENGINE_HH
#define GRP_CORE_GRP_ENGINE_HH

#include "mem/functional_memory.hh"
#include "mem/prefetch_iface.hh"
#include "prefetch/pointer_scanner.hh"
#include "prefetch/region_queue.hh"
#include "sim/config.hh"

namespace grp
{

/** The hint-regulated prefetch engine. */
class GrpEngine : public PrefetchEngine
{
  public:
    /**
     * @param config scheme must be GrpFix, GrpVar or GrpAdaptive.
     * @param mem Functional memory (pointer scanning and indirect
     *        index reads need line contents).
     */
    GrpEngine(const SimConfig &config, const FunctionalMemory &mem,
              obs::StatRegistry &registry =
                  obs::StatRegistry::current());

    void setPresenceTest(RegionQueue::PresenceTest test);

    /** Attach the adaptive control plane (not owned): caps the
     *  spatial window and priority-tiers the queue. A null plane
     *  keeps GrpVar behavior exactly. */
    void setControlPlane(const adaptive::ControlPlane *plane);

    void onL2DemandMiss(Addr addr, RefId ref,
                        const LoadHints &hints) override;
    void onFill(Addr block_addr, uint8_t ptr_depth,
                ReqClass cls) override;
    std::optional<PrefetchCandidate>
    dequeuePrefetch(const DramBackend &dram, unsigned channel) override;
    void indirectPrefetch(Addr base, unsigned elem_size,
                          Addr index_addr, RefId ref) override;

    StatGroup &stats() override { return stats_; }

    size_t queueDepth() const override { return queue_.size(); }

    /** Distribution of allocated region sizes in blocks (Table 4). */
    const Distribution &regionSizes() const { return regionSizes_; }

    RegionQueue &queue() { return queue_; }

    void reset() override;

    void resetStats() override { stats_.reset(); queue_.stats().reset(); }

  private:
    bool variableRegions() const
    {
        return config_.scheme == PrefetchScheme::GrpVar ||
               config_.scheme == PrefetchScheme::GrpAdaptive;
    }

    SimConfig config_;
    const FunctionalMemory &mem_;
    const adaptive::ControlPlane *plane_ = nullptr;
    RegionQueue queue_;
    PointerScanner scanner_;
    obs::LifecycleFold lifecycle_; ///< Hint triggers: binds nothing.
    StatGroup stats_;
    obs::ScopedStatRegistration statReg_;
    Distribution regionSizes_;

    /** Cached counter handles (lookup once at construction). */
    Counter *missesUnhinted_ = nullptr;
    Counter *regionsAllocated_ = nullptr;
    Counter *regionsUpdated_ = nullptr;
    Counter *linesScanned_ = nullptr;
    Counter *pointersFound_ = nullptr;
    Counter *indirectOps_ = nullptr;
    Counter *indirectTargets_ = nullptr;
    Counter *candidatesOffered_ = nullptr;
};

} // namespace grp

#endif // GRP_CORE_GRP_ENGINE_HH
