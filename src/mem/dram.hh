/**
 * @file
 * The legacy Rambus-style DRAM model: independent channels, each with
 * a set of banks using an open-page (open-row) policy. Blocks are
 * interleaved across channels at cache-block granularity, so a 4 KB
 * prefetch region streams from all four channels in parallel, and
 * consecutive blocks within one channel fall in the same row — the
 * locality the SRP scheduler exploits by preferring prefetches to
 * open rows.
 *
 * This is the default `DramBackend` (GRP_DRAM=legacy): an access is
 * served immediately on an idle channel with a flat row-hit /
 * row-conflict latency, the bank access pipelines under the previous
 * transfer, and serve() returns the completion tick directly. The
 * cycle-accurate command-queue backends live in mem/dram_backend/.
 */

#ifndef GRP_MEM_DRAM_HH
#define GRP_MEM_DRAM_HH

#include "mem/dram_backend/backend.hh"

namespace grp
{

/** Multi-channel open-page DRAM timing model (the legacy backend). */
class DramSystem final : public DramBackend
{
  public:
    explicit DramSystem(const DramConfig &config,
                        obs::StatRegistry &registry =
                            obs::StatRegistry::current());

    /**
     * Issue the access for @p addr's block at @p now on its (idle)
     * channel. Occupies the channel for the transfer time and leaves
     * the row open. The channel's cycles before @p now are booked
     * under the previous occupant, and the request class (and, for
     * prefetches, the responsible site) becomes the occupant that
     * the busy cycles from @p now on are attributed to.
     *
     * @return Tick at which the block's data is fully returned.
     */
    Tick serve(Addr addr, Tick now, ReqClass cls,
               RefId ref = kInvalidRefId,
               obs::HintClass hint = obs::HintClass::None) override;
    using DramBackend::serve;

    const char *name() const override { return "legacy"; }
};

} // namespace grp

#endif // GRP_MEM_DRAM_HH
