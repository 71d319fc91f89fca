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
     *  pending (tests, and drain loops that drive a backend alone). */
    bool
    allIdle(Tick now) const
    {
        return pendingWork_ == 0 && busyChannels(now) == 0;
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

    /** Demand-class convenience overload, for tests only. */
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

    /** Every cycle before @p tick has been simulated: the memory
     *  system calls this after each stepped tick and for each skipped
     *  window. The "dram" group's channel (chN*Cycles), contention
     *  and bank-state counters are booked lazily up to here (see
     *  bookChannel()), so any read of the group covers exactly these
     *  cycles. Runs that never call it (perfect L1/L2) keep them at
     *  zero. */
    void accountTo(Tick tick) { accountedTo_ = tick; }

    /** @p waiting demand requests wait for @p channel from @p now on:
     *  while a prefetch occupies the channel, each of them adds one
     *  contentionDemandStallCycles count per cycle. The memory system
     *  reports its queue depth after every push and pop. */
    void setWaitingDemands(unsigned channel, size_t waiting, Tick now);

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
        /** The channel's cycle counters hold every cycle before this
         *  tick; the cycles up to accountedTo_ are pending. */
        Tick bookedTo = 0;
        /** Demand requests waiting for this channel. */
        size_t waitingDemands = 0;
        std::vector<Bank> banks;
        /** What the in-flight transfer is (contention attribution). */
        ReqClass occupantCls = ReqClass::Demand;
        RefId occupantRef = kInvalidRefId;
        obs::HintClass occupantHint = obs::HintClass::None;
    };

    /** From @p now on, @p channel's data bus is busy until @p until
     *  on behalf of one transfer (occupant attribution). The cycles
     *  before @p now are booked first, under the old occupant. */
    void
    setChannelBusy(unsigned channel, Tick now, Tick until, ReqClass cls,
                   RefId ref, obs::HintClass hint)
    {
        bookChannel(channel, now);
        Channel &ch = channels_[channel];
        ch.busyUntil = until;
        ch.occupantCls = cls;
        ch.occupantRef = ref;
        ch.occupantHint = hint;
    }

    /** Book every channel up to accountedTo_: the "dram" group's
     *  sync, run before any read or reset of the group. A backend
     *  with more lazily booked counters settles them here too. */
    virtual void settle();

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
    /** Every cycle before this tick has been simulated (accountTo()). */
    Tick accountedTo_ = 0;
    /** Queued-backend commands not yet delivered (allIdle()); always
     *  zero on immediate backends. */
    size_t pendingWork_ = 0;
    /** Set by queued subclasses (see queued()). */
    bool queued_ = false;

    /** Cached per-channel cycle counters (demand, prefetch,
     *  writeback, idle, total; the first three in ReqClass order) so
     *  booking skips the stat-name lookup; Counter references are
     *  stable across StatGroup::reset(). */
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
    /**
     * Book @p channel's cycles [bookedTo, @p to): those before
     * busyUntil to the occupant's class, the rest to idle. While a
     * prefetch occupies the channel, each busy cycle also charges
     * waitingDemands to contentionDemandStallCycles and, with the
     * site profiler on, to the prefetch's site. The split depends only
     * on busyUntil, the occupant and waitingDemands, so it runs just
     * before one of them changes (setChannelBusy, setWaitingDemands)
     * and in settle().
     */
    void bookChannel(unsigned channel, Tick to);
};

} // namespace grp

#endif // GRP_MEM_DRAM_BACKEND_BACKEND_HH
