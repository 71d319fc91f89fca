/**
 * @file
 * The stride prefetcher baseline: the stride component of Sherwood,
 * Sair and Calder's predictor-directed stream buffers (MICRO-33),
 * as compared against in Section 5 of the GRP paper.
 *
 * A PC-indexed, 4-way, 1K-entry history table learns per-load
 * strides with a two-bit confidence scheme. Confident loads allocate
 * one of 8 stream buffers, each of which runs up to 8 blocks ahead of
 * the demand stream. Stream prefetches are issued through the same
 * access prioritizer as SRP/GRP prefetches and fill into the L2 at
 * the low-priority (LRU) position, so the comparison between schemes
 * isolates *what* is prefetched, not *how* fills are treated.
 */

#ifndef GRP_PREFETCH_STRIDE_HH
#define GRP_PREFETCH_STRIDE_HH

#include <cstdint>
#include <vector>

#include "mem/prefetch_iface.hh"
#include "obs/stat_registry.hh"
#include "sim/config.hh"

namespace grp
{

/** Stride-directed stream-buffer prefetcher. */
class StridePrefetcher : public PrefetchEngine
{
  public:
    explicit StridePrefetcher(const SimConfig &config,
                              obs::StatRegistry &registry =
                                  obs::StatRegistry::current());

    void onL2DemandAccess(Addr addr, RefId ref, const LoadHints &hints,
                          bool hit) override;
    std::optional<PrefetchCandidate>
    dequeuePrefetch(const DramBackend &dram, unsigned channel) override;

    StatGroup &stats() override { return stats_; }

    /** Streams that can still issue: valid, with credit left. A
     *  stream whose credits are spent offers nothing until a demand
     *  access replenishes it, so it holds no prefetch gate open. */
    size_t queueDepth() const override;
    size_t queueCapacity() const override { return streams_.size(); }

    void reset() override;

    /** Visible for tests: the learned stride for @p ref, or 0. */
    int64_t strideFor(RefId ref) const;
    /** Visible for tests: number of live streams, spent or not. */
    unsigned liveStreams() const;

  private:
    struct TableEntry
    {
        bool valid = false;
        RefId tag = kInvalidRefId;
        Addr lastAddr = 0;
        int64_t stride = 0;
        unsigned confidence = 0;
        uint64_t lruStamp = 0;
    };

    struct Stream
    {
        bool valid = false;
        RefId ref = kInvalidRefId;
        Addr nextAddr = 0;    ///< Next block to prefetch.
        int64_t strideBlocks = 0;
        unsigned credits = 0; ///< Blocks still allowed in flight/ahead.
        uint64_t lruStamp = 0;
    };

    TableEntry *lookup(RefId ref);
    TableEntry &allocate(RefId ref);
    void allocateStream(RefId ref, Addr addr, int64_t stride_bytes);
    void anchorStream(Stream &stream, Addr addr, int64_t stride_blocks);

    SimConfig config_;
    unsigned sets_;
    std::vector<TableEntry> table_;
    std::vector<Stream> streams_;
    uint64_t nextStamp_ = 1;
    unsigned rrCursor_ = 0;
    StatGroup stats_;
    obs::ScopedStatRegistration statReg_;

    /** Cached counter handles (lookup once at construction). */
    Counter *streamsAllocated_ = nullptr;
    Counter *pageBoundaryStops_ = nullptr;
    Counter *candidatesOffered_ = nullptr;
};

} // namespace grp

#endif // GRP_PREFETCH_STRIDE_HH
