/**
 * @file
 * The pluggable DRAM backend interface.
 *
 * Every backend shares the same geometry (block-interleaved channels,
 * banks, rows), the same per-class contention accounting and the same
 * core stat schema (the "dram" group), so the access prioritizer, the
 * adaptive controller's idle-fraction signals and the cost reports
 * work unchanged whichever model is plugged in. Backends differ in
 * how an access is timed:
 *
 *  - The legacy Rambus-style model (mem/dram.hh, `DramSystem`)
 *    serves an access immediately on an idle channel and returns its
 *    completion tick from serve(). It is the default and stays
 *    bit-identical to every committed baseline.
 *
 *  - Queued backends (dram_backend/timing.hh) accept requests into a
 *    per-channel command queue instead: serve() returns the
 *    kTickPending sentinel, commands are scheduled cycle by cycle in
 *    tick(), and completed fills are drained via popCompleted(). The
 *    memory system detects this mode through queued().
 */

#ifndef GRP_MEM_DRAM_BACKEND_BACKEND_HH
#define GRP_MEM_DRAM_BACKEND_BACKEND_HH

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "mem/request.hh"
#include "obs/stat_registry.hh"
#include "sim/config.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace grp
{

/** Returned by serve() on queued backends: the completion tick is not
 *  known at issue time; the fill arrives through popCompleted(). */
constexpr Tick kTickPending = kMaxTick;

/** Abstract multi-channel DRAM model. Geometry, channel-occupancy
 *  bookkeeping and contention accounting live here (non-virtual, hot);
 *  subclasses provide the timing in serve()/tick(). */
class DramBackend
{
  public:
    DramBackend(const DramConfig &config, obs::StatRegistry &registry);
    virtual ~DramBackend() = default;

    /** Channel servicing @p addr (block interleaved). */
    unsigned
    channelOf(Addr addr) const
    {
        return static_cast<unsigned>(blockNumber(addr) &
                                     (config_.channels - 1));
    }

    /** Bank within the channel servicing @p addr. */
    unsigned
    bankOf(Addr addr) const
    {
        const uint64_t channel_block = blockNumber(addr) >> channelShift_;
        return static_cast<unsigned>(
            (channel_block >> blocksPerRowShift_) &
            (config_.banksPerChannel - 1));
    }

    /** Row within the bank servicing @p addr. */
    uint64_t
    rowOf(Addr addr) const
    {
        const uint64_t channel_block = blockNumber(addr) >> channelShift_;
        return channel_block >> (blocksPerRowShift_ + bankShift_);
    }

    /** Bit i set exactly when block @p base_block + i maps to
     *  @p channel: the channel's blocks in a 64-block window. */
    uint64_t
    channelBlocks(uint64_t base_block, unsigned channel) const
    {
        const uint64_t shift =
            (channel - base_block) & (config_.channels - 1);
        return shift < 64 ? channelPeriod_ << shift : 0;
    }

    /** Blocks in one aligned row span (channels x blocks per row).
     *  The blocks of a span that map to one channel share one bank
     *  and one row. */
    uint64_t rowSpanBlocks() const { return rowSpanBlocks_; }

    /** True when the channel's data bus is free at @p now. */
    bool
    channelIdle(unsigned channel, Tick now) const
    {
        return channels_[channel].busyUntil <= now;
    }

    /** First tick at which @p channel is idle (stall fast-forward). */
    Tick channelBusyUntil(unsigned channel) const
    {
        return channels_[channel].busyUntil;
    }

    /** Every channel is idle at @p now and no queued backend work is
     *  pending — the quiet-cycle fast path's gate (two compares). */
    bool
    allIdle(Tick now) const
    {
        return maxBusyUntil_ <= now && pendingWork_ == 0;
    }

    /** True when @p addr's row is open in its bank (bank-aware
     *  prefetch scheduling queries this). */
    bool
    rowOpen(Addr addr) const
    {
        const Bank &bank =
            channels_[channelOf(addr)].banks[bankOf(addr)];
        return bank.openRow == static_cast<int64_t>(rowOf(addr));
    }

    /** Channels still occupied at @p now (time-series sampling). */
    unsigned busyChannels(Tick now) const;

    /** Banks mid-activate/precharge/refresh at @p now — always zero
     *  for immediate backends, whose prep time is folded into the
     *  access latency (time-series sampling). */
    virtual unsigned
    activeBanks(Tick now) const
    {
        (void)now;
        return 0;
    }

    /**
     * Issue the access for @p addr's block at @p now on its channel.
     * Immediate backends return the tick at which the data is fully
     * returned; queued backends enqueue the request and return
     * kTickPending (the fill arrives via popCompleted()).
     */
    virtual Tick serve(Addr addr, Tick now, ReqClass cls,
                       RefId ref = kInvalidRefId,
                       obs::HintClass hint = obs::HintClass::None) = 0;

    /** Demand-class convenience overload (tests, microbenches). */
    Tick serve(Addr addr, Tick now)
    {
        return serve(addr, now, ReqClass::Demand);
    }

    /** True when this backend queues commands internally: serve()
     *  returns kTickPending, tick()/popCompleted() must be driven at
     *  least at every nextTransitionTick(), and canAccept() gates
     *  arbitration. */
    bool queued() const { return queued_; }

    /** Advance internal command scheduling to @p now (queued
     *  backends; no-op for immediate ones). */
    virtual void tick(Tick now) { (void)now; }

    /** Next completed fill with done <= @p now, in deterministic
     *  (done, channel, issue-order) order. Writebacks complete
     *  internally and are never returned. */
    virtual std::optional<MemRequest>
    popCompleted(Tick now)
    {
        (void)now;
        return std::nullopt;
    }

    /** True when @p channel can take one more serve() at @p now. */
    virtual bool
    canAccept(unsigned channel, Tick now) const
    {
        return channelIdle(channel, now);
    }

    /** First tick after @p now at which tick() would change this
     *  backend's state: retire, commit or schedule a transfer.
     *  Between @p now and that tick, tick() and popCompleted() do
     *  nothing, so the stall fast-forward may skip there. kMaxTick
     *  when nothing is pending; immediate backends always return it
     *  (their completions are events the caller already tracks). */
    virtual Tick
    nextTransitionTick(Tick now) const
    {
        (void)now;
        return kMaxTick;
    }

    /**
     * Per-cycle contention accounting, driven once per channel per
     * simulated cycle by the memory system's tick: attributes the
     * cycle to the occupant's request class when the channel is busy
     * at @p now, to idle otherwise. The per-channel and aggregate
     * breakdowns live in the "dram" stat group
     * (chNDemandCycles/chNPrefetchCycles/chNWritebackCycles/
     * chNIdleCycles/chNCycles and contention*Cycles), so
     * demand + prefetch + writeback + idle sums to the channel's
     * accounted cycles by construction. The cycle also extends the
     * channel's accounted range (Channel::accountedTo), from which a
     * queued backend books its per-bank state cycles lazily.
     */
    void noteChannelCycle(unsigned channel, Tick now);

    /**
     * Batched form of noteChannelCycle for the stall fast-forward:
     * over the window [@p from, @p from + busy + idle), in which
     * tick() changes nothing, the first @p busy_cycles cycles
     * attribute to the current occupant's class and the rest to idle
     * — byte-identical to calling noteChannelCycle once per cycle
     * across the window. The accounted range moves to the window's
     * end in one store.
     */
    void noteChannelCycles(unsigned channel, Tick from,
                           uint64_t busy_cycles, uint64_t idle_cycles);

    /** One all-channels-idle cycle at @p now: equivalent to
     *  noteChannelCycle on every (idle) channel, minus the
     *  per-channel dispatch — the accounting arm of the memory
     *  system's quiet-cycle fast path. */
    void noteAllIdleCycle(Tick now);

    /** Demand requests spent @p waiting request-cycles stalled behind
     *  an in-flight prefetch transfer the prioritizer could not
     *  preempt (dram.contentionDemandStallCycles). */
    void noteDemandStall(uint64_t waiting);

    /** Request class occupying @p channel (meaningful while busy). */
    ReqClass occupantClass(unsigned channel) const
    {
        return channels_[channel].occupantCls;
    }
    /** Site / hint class of the occupying prefetch (attribution). */
    RefId occupantRef(unsigned channel) const
    {
        return channels_[channel].occupantRef;
    }
    obs::HintClass occupantHint(unsigned channel) const
    {
        return channels_[channel].occupantHint;
    }

    /** One channel's accounted-cycle breakdown (cost reports). */
    struct ChannelCycles
    {
        uint64_t demand = 0;
        uint64_t prefetch = 0;
        uint64_t writeback = 0;
        uint64_t idle = 0;
        uint64_t
        total() const
        {
            return demand + prefetch + writeback + idle;
        }
    };
    ChannelCycles channelCycles(unsigned channel) const;

    /** Total 64 B transfers served (traffic accounting). */
    uint64_t transfersServed() const { return transfers_; }

    StatGroup &stats() { return stats_; }
    const StatGroup &stats() const { return stats_; }

    const DramConfig &config() const { return config_; }

    /** Backend identity ("legacy" or the timing preset name). */
    virtual const char *name() const = 0;

    virtual void reset();

  protected:
    struct Bank
    {
        int64_t openRow = -1;
    };

    struct Channel
    {
        Tick busyUntil = 0;
        /** Every cycle before this tick has been noted: the note
         *  functions end their window here. */
        Tick accountedTo = 0;
        std::vector<Bank> banks;
        /** What the in-flight transfer is (contention attribution). */
        ReqClass occupantCls = ReqClass::Demand;
        RefId occupantRef = kInvalidRefId;
        obs::HintClass occupantHint = obs::HintClass::None;
    };

    /** Mark @p channel's data bus busy until @p until on behalf of
     *  one transfer (occupant attribution + allIdle high-water). */
    void
    setChannelBusy(unsigned channel, Tick until, ReqClass cls,
                   RefId ref, obs::HintClass hint)
    {
        Channel &ch = channels_[channel];
        ch.busyUntil = until;
        if (until > maxBusyUntil_)
            maxBusyUntil_ = until;
        ch.occupantCls = cls;
        ch.occupantRef = ref;
        ch.occupantHint = hint;
    }

    /** A note window on @p channel starts at @p from, not at its
     *  accountedTo: cycles were skipped or are noted again. Called
     *  before accountedTo moves; the runner never does this, tests
     *  may. A backend that books from the accounted range settles
     *  what is pending and restarts its booking at @p from. */
    virtual void
    accountingGap(unsigned channel, Tick from)
    {
        (void)channel; (void)from;
    }

    DramConfig config_;
    unsigned channelShift_;    ///< log2(channels).
    unsigned blocksPerRow_;
    unsigned blocksPerRowShift_;
    unsigned bankShift_;       ///< log2(banksPerChannel).
    /** channelBlocks() of channel 0 at base 0: every channels-th bit
     *  (bit 0 alone from 64 channels up). */
    uint64_t channelPeriod_ = 0;
    uint64_t rowSpanBlocks_ = 0;

    std::vector<Channel> channels_;
    /** High-water mark of every channel's busyUntil (allIdle()). */
    Tick maxBusyUntil_ = 0;
    /** Queued-backend commands not yet delivered (allIdle()); always
     *  zero on immediate backends. */
    size_t pendingWork_ = 0;
    /** Set by queued subclasses (see queued()). */
    bool queued_ = false;

    /** Cached per-channel cycle counters (demand, prefetch,
     *  writeback, idle, total) so per-cycle accounting skips the
     *  stat-name lookup; Counter references are stable across
     *  StatGroup::reset(). */
    struct ChannelCycleCounters
    {
        std::array<Counter *, 5> slots{};
    };

    std::vector<ChannelCycleCounters> cycleCounters_;
    /** Aggregate demand/prefetch/writeback/idle cycle counters. */
    std::array<Counter *, 4> contentionCounters_{};
    Counter *demandStallCounter_ = nullptr;
    /** Per-serve() counters, cached for the same reason. */
    Counter *rowHitCounter_ = nullptr;
    Counter *rowConflictCounter_ = nullptr;
    Counter *transferCounter_ = nullptr;
    uint64_t transfers_ = 0;
    StatGroup stats_;
    obs::ScopedStatRegistration statReg_;

  private:
    /** End @p channel's accounted range at @p from + @p cycles, after
     *  reporting an accountingGap when the window does not start at
     *  its accountedTo. */
    void extendAccounted(unsigned channel, Tick from, uint64_t cycles);
};

} // namespace grp

#endif // GRP_MEM_DRAM_BACKEND_BACKEND_HH
