/**
 * @file
 * Cycle-accurate queued DRAM backend: per-bank state machines driven
 * by a JEDEC-style timing-constraint table, a per-channel command
 * queue with FR-FCFS scheduling, and periodic all-bank refresh that
 * steals bank time.
 *
 * Model shape (DRAMsim3-style, simplified to what the GRP experiments
 * observe):
 *
 *  - serve() enqueues into the channel's bounded command queue and
 *    returns kTickPending; canAccept() gates arbitration on queue
 *    space, and completed fills drain through popCompleted().
 *
 *  - Each tick one queued request per channel may be scheduled. The
 *    FR-FCFS pick preserves the two properties the SRP access
 *    prioritizer relies on: demand class strictly outranks
 *    prefetch/writeback (a late-arriving demand overtakes every
 *    queued prefetch — demand is never starved), and open-row hits
 *    outrank conflicts within a class.
 *
 *  - Scheduling a request lays out its command timeline against the
 *    constraint table: PRE (no earlier than tRAS after the ACT that
 *    opened the row) + tRP, ACT respecting tRRD, the four-activate
 *    tFAW window and any in-progress refresh, then the column read
 *    tRCD/tCAS later, and the data burst (tBURST) when the shared
 *    data bus frees up. Bank state at any tick is derived from these
 *    recorded command windows.
 *
 *  - Refresh is charged lazily: once tREFI elapses the next
 *    scheduling decision first closes every row for tRFC per owed
 *    interval (debt capped at 8, the JEDEC postponement limit), and
 *    ACTs cannot start until the refresh window ends.
 *
 * Channel-cycle attribution stays bus-centric so the legacy stat
 * schema keeps its meaning: a channel cycle counts demand/prefetch/
 * writeback only while a data burst occupies the bus; ACT/PRE/refresh
 * prep shows as channel idle but is visible in the per-bank state
 * counters (chNbankBIdle/Open/Activating/Precharging/Refreshing
 * Cycles), which sum exactly to the channel's accounted cycles.
 *
 * The per-bank counters are booked lazily. Noting a cycle only moves
 * the channel's accountedTo; a bank's cycles from its bookedTo up to
 * there are split by bankState's priority when it settles, just
 * before a row miss or a refresh rewrites its windows or open row,
 * and before any read or reset of the "dram" stat group (its sync).
 */

#ifndef GRP_MEM_DRAM_BACKEND_TIMING_HH
#define GRP_MEM_DRAM_BACKEND_TIMING_HH

#include <array>
#include <deque>
#include <string>
#include <vector>

#include "mem/dram_backend/backend.hh"
#include "mem/dram_backend/presets.hh"

namespace grp
{

/** Queued, cycle-accurate multi-channel DRAM model. */
class TimingDramSystem final : public DramBackend
{
  public:
    TimingDramSystem(const DramConfig &config,
                     const DramTimingParams &params,
                     std::string preset_name,
                     obs::StatRegistry &registry =
                         obs::StatRegistry::current());

    Tick serve(Addr addr, Tick now, ReqClass cls,
               RefId ref = kInvalidRefId,
               obs::HintClass hint = obs::HintClass::None) override;
    using DramBackend::serve;

    void tick(Tick now) override;
    std::optional<MemRequest> popCompleted(Tick now) override;

    bool
    canAccept(unsigned channel, Tick now) const override
    {
        (void)now;
        return chTiming_[channel].queue.size() < params_.queueDepth;
    }

    Tick nextTransitionTick(Tick now) const override;

    const char *name() const override { return presetName_.c_str(); }

    void reset() override;

    const DramTimingParams &timing() const { return params_; }

    /** Derived per-bank state (accounting + tests). */
    enum class BankState : unsigned
    {
        Idle = 0,
        Open,
        Activating,
        Precharging,
        Refreshing,
    };
    BankState bankState(unsigned channel, unsigned bank, Tick now) const;

    /** Banks mid-ACT/PRE/refresh at @p now (time-series track). */
    unsigned activeBanks(Tick now) const override;

    /** DRAM command stream hook for protocol-invariant tests: every
     *  scheduled ACT/RD/PRE/REF is appended with its start tick. Not
     *  owned; nullptr (the default) disables recording. */
    enum class Cmd : uint8_t { Act, Rd, Pre, Ref };
    struct CommandRecord
    {
        Tick tick = 0;
        Cmd cmd = Cmd::Act;
        unsigned channel = 0;
        unsigned bank = 0;
        int64_t row = -1;
    };
    void setCommandLog(std::vector<CommandRecord> *log) { log_ = log; }

  private:
    /** Recorded command windows for one bank; state is derived from
     *  these timestamps rather than kept as an explicit FSM. The
     *  open row itself lives in the base class Bank (rowOpen()). */
    struct BankTiming
    {
        Tick preStart = 0;
        Tick preEnd = 0;   ///< preStart + tRP.
        Tick actStart = 0;
        Tick actEnd = 0;   ///< actStart + tRCD.
        Tick rasUntil = 0; ///< Earliest next PRE (actStart + tRAS).
        Tick refUntil = 0; ///< All-bank refresh in progress until.
        /** State counters hold every cycle before this tick; the
         *  cycles up to the channel's accountedTo are pending. */
        Tick bookedTo = 0;
    };

    /** A scheduled transfer waiting for / occupying the data bus. */
    struct InFlight
    {
        MemRequest req;
        Tick dataStart = 0;
        Tick dataEnd = 0;
    };

    struct CompletedReq
    {
        MemRequest req;
        Tick done = 0;
    };

    struct ChannelTiming
    {
        std::deque<MemRequest> queue;
        /** Sorted by dataStart (bus serialization keeps it so). */
        std::deque<InFlight> inFlight;
        Tick busFreeAt = 0;
        Tick lastActTick = 0;
        bool anyAct = false;
        /** Ring of the last four ACT ticks (tFAW). */
        std::array<Tick, 4> actWindow{};
        unsigned actIdx = 0;
        unsigned actSeen = 0;
        Tick refreshDue = 0;
        std::vector<BankTiming> banks;
    };

    void logCmd(Cmd cmd, Tick tick, unsigned channel, unsigned bank,
                int64_t row);
    /** Book @p bank's pending cycles, [bookedTo, accountedTo), into
     *  its state counters under its current windows and open row. */
    void settleBank(unsigned channel, unsigned bank);
    /** settleBank on every bank of @p channel. */
    void settleChannel(unsigned channel);
    /** Charge owed refresh intervals before scheduling (see file
     *  comment). */
    void catchUpRefresh(unsigned channel, Tick now);
    /** FR-FCFS choice among queued requests. */
    size_t pickNext(const ChannelTiming &ct) const;
    /** Schedule at most one queued request's command timeline. */
    void scheduleOne(unsigned channel, Tick now);

    void accountingGap(unsigned channel, Tick from) override;

    DramTimingParams params_;
    std::string presetName_;
    std::vector<ChannelTiming> chTiming_;
    /** Retired fills awaiting popCompleted, in (dataEnd, channel)
     *  order — the deterministic delivery order. */
    std::deque<CompletedReq> completed_;
    std::vector<CommandRecord> *log_ = nullptr;

    /** Each bank's state-cycle counters, indexed [channel][bank] and
     *  then by BankState. */
    std::vector<std::vector<std::array<Counter *, 5>>> bankCounters_;
    Counter *refreshCounter_ = nullptr;
};

} // namespace grp

#endif // GRP_MEM_DRAM_BACKEND_TIMING_HH
