/**
 * @file
 * The interface between the memory system and a prefetch engine.
 *
 * The memory system notifies the engine of L2 demand activity and of
 * completed fills (so pointer scanners can walk returned lines), and
 * pulls prefetch candidates from it whenever a DRAM channel would
 * otherwise idle — the access-prioritizer contract of SRP (§3.1).
 */

#ifndef GRP_MEM_PREFETCH_IFACE_HH
#define GRP_MEM_PREFETCH_IFACE_HH

#include <optional>

#include "mem/request.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace grp
{

class DramBackend;

/** Abstract prefetch engine observed and drained by the memory
 *  system. */
class PrefetchEngine
{
  public:
    virtual ~PrefetchEngine() = default;

    /** Every L2 demand access (training hook for stride). */
    virtual void
    onL2DemandAccess(Addr addr, RefId ref, const LoadHints &hints,
                     bool hit)
    {
        (void)addr; (void)ref; (void)hints; (void)hit;
    }

    /** An L2 demand miss has allocated an MSHR (region trigger). */
    virtual void
    onL2DemandMiss(Addr addr, RefId ref, const LoadHints &hints)
    {
        (void)addr; (void)ref; (void)hints;
    }

    /**
     * A block has returned from memory carrying @p ptr_depth
     * remaining pointer-chase levels (pointer scanner hook).
     */
    virtual void
    onFill(Addr block_addr, uint8_t ptr_depth, ReqClass cls)
    {
        (void)block_addr; (void)ptr_depth; (void)cls;
    }

    /**
     * Offer a prefetch candidate for @p channel, which is idle.
     * Returns std::nullopt when the engine has nothing useful.
     */
    virtual std::optional<PrefetchCandidate>
    dequeuePrefetch(const DramBackend &dram, unsigned channel) = 0;

    /** Execute an indirect prefetch instruction (§3.3.3). */
    virtual void
    indirectPrefetch(Addr base, unsigned elem_size, Addr index_addr,
                     RefId ref)
    {
        (void)base; (void)elem_size; (void)index_addr; (void)ref;
    }

    /** Engine statistics group. */
    virtual StatGroup &stats() = 0;

    /** Zero every statistic the engine owns (warmup boundary). */
    virtual void resetStats() { stats().reset(); }

    /**
     * Pending entries that can still offer a candidate (also the
     * time-series and pulse depth). The access prioritizer's gate
     * reads it: while it is 0 the memory system defers its channel
     * walk and draws no candidate. So it must not be 0 while
     * dequeuePrefetch() could offer one, and an entry that offers
     * nothing until a later demand access does not count.
     */
    virtual size_t queueDepth() const { return 0; }

    /** Entries the engine can hold, the occupancy denominator of
     *  queueDepth(); 0 for an engine without a queue. */
    virtual size_t queueCapacity() const { return 0; }

    /** Drop all pending state. */
    virtual void reset() {}
};

} // namespace grp

#endif // GRP_MEM_PREFETCH_IFACE_HH
