#include "mem/dram_backend/timing.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace grp
{

namespace
{

/** Ticks of [@p lo, @p hi) that fall inside [@p start, @p end). */
uint64_t
overlap(Tick lo, Tick hi, Tick start, Tick end)
{
    lo = std::max(lo, start);
    hi = std::min(hi, end);
    return hi > lo ? hi - lo : 0;
}

} // namespace

TimingDramSystem::TimingDramSystem(const DramConfig &config,
                                   const DramTimingParams &params,
                                   std::string preset_name,
                                   obs::StatRegistry &registry)
    : DramBackend(config, registry),
      params_(params),
      presetName_(std::move(preset_name))
{
    // A zero tCAS would let a row hit on a free bus start its data
    // burst on the tick that scheduled it, before tick() can commit
    // it; nextTransitionTick relies on every burst starting later.
    fatal_if(params_.tBURST == 0 || params_.tRCD == 0 ||
             params_.tCAS == 0 || params_.tRP == 0 ||
             params_.queueDepth == 0,
             "timing preset %s has zero constraints",
             presetName_.c_str());
    queued_ = true;

    chTiming_.resize(config_.channels);
    for (ChannelTiming &ct : chTiming_) {
        ct.banks.resize(config_.banksPerChannel);
        ct.refreshDue = params_.tREFI;
    }

    // Per-bank state-cycle counters: one accounted channel cycle adds
    // exactly one cycle to exactly one state of every bank, so each
    // bank's five states sum to chNCycles by construction (the cost
    // reports and the backend bench rely on the exact identity). They
    // are booked lazily; every read or reset of the group first
    // settles what is pending.
    static const char *kStates[5] = {
        "Idle", "Open", "Activating", "Precharging", "Refreshing",
    };
    bankCounters_.resize(config_.channels);
    for (unsigned ch = 0; ch < config_.channels; ++ch) {
        bankCounters_[ch].resize(config_.banksPerChannel);
        for (unsigned b = 0; b < config_.banksPerChannel; ++b) {
            const std::string prefix = "ch" + std::to_string(ch) +
                                       "bank" + std::to_string(b);
            for (unsigned s = 0; s < 5; ++s) {
                bankCounters_[ch][b][s] =
                    &stats_.counter(prefix + kStates[s] + "Cycles");
            }
        }
    }
    refreshCounter_ = &stats_.counter("refreshes");
    stats_.setSync([this] {
        for (unsigned ch = 0; ch < config_.channels; ++ch)
            settleChannel(ch);
    });
}

void
TimingDramSystem::logCmd(Cmd cmd, Tick tick, unsigned channel,
                         unsigned bank, int64_t row)
{
    if (log_)
        log_->push_back(CommandRecord{tick, cmd, channel, bank, row});
}

Tick
TimingDramSystem::serve(Addr addr, Tick now, ReqClass cls, RefId ref,
                        obs::HintClass hint)
{
    const unsigned channel = channelOf(addr);
    ChannelTiming &ct = chTiming_[channel];
    panic_if(ct.queue.size() >= params_.queueDepth,
             "serve() on a full command queue (channel %u)", channel);

    MemRequest req;
    req.blockAddr = addr;
    req.cls = cls;
    req.refId = ref;
    req.hintClass = hint;
    req.enqueued = now;
    ct.queue.push_back(req);
    ++pendingWork_;
    return kTickPending;
}

void
TimingDramSystem::catchUpRefresh(unsigned channel, Tick now)
{
    ChannelTiming &ct = chTiming_[channel];
    if (now < ct.refreshDue)
        return;

    // Charge every owed interval, up to the JEDEC postponement limit
    // of eight; older debt accumulated across a long drained stretch
    // is dropped (the array refreshed itself logically, the model
    // just never had a scheduling decision to charge it against).
    unsigned owed = 0;
    while (ct.refreshDue <= now && owed < 8) {
        ++owed;
        ct.refreshDue += params_.tREFI;
    }
    if (ct.refreshDue <= now)
        ct.refreshDue = now + params_.tREFI;

    const Tick ref_start = std::max(now, ct.busFreeAt);
    const Tick ref_end = ref_start + Tick{owed} * params_.tRFC;
    settleChannel(channel);
    for (unsigned b = 0; b < config_.banksPerChannel; ++b) {
        channels_[channel].banks[b].openRow = -1;
        ct.banks[b].refUntil = std::max(ct.banks[b].refUntil, ref_end);
    }
    for (unsigned i = 0; i < owed; ++i) {
        logCmd(Cmd::Ref, ref_start + Tick{i} * params_.tRFC, channel, 0,
               -1);
    }
    *refreshCounter_ += owed;
}

size_t
TimingDramSystem::pickNext(const ChannelTiming &ct) const
{
    // FR-FCFS with strict demand-over-prefetch class priority:
    // demand row-hit > demand > other row-hit > FCFS front. Ties
    // resolve first-come-first-served because the scan takes the
    // first entry of the best rank (the queue is in arrival order).
    size_t best = 0;
    int best_rank = 4;
    for (size_t i = 0; i < ct.queue.size(); ++i) {
        const MemRequest &req = ct.queue[i];
        const bool demand = req.cls == ReqClass::Demand;
        const bool hit = rowOpen(req.blockAddr);
        const int rank = demand ? (hit ? 0 : 1) : (hit ? 2 : 3);
        if (rank < best_rank) {
            best_rank = rank;
            best = i;
            if (rank == 0)
                break;
        }
    }
    return best;
}

void
TimingDramSystem::scheduleOne(unsigned channel, Tick now)
{
    ChannelTiming &ct = chTiming_[channel];
    if (ct.queue.empty())
        return;
    // Don't commit the data bus far ahead: a request scheduled now is
    // issued — a later-arriving demand can no longer overtake it. Two
    // bursts of lookahead keeps the bus saturated while leaving the
    // reordering to the queue, where FR-FCFS still applies.
    if (ct.busFreeAt > now + Tick{2} * params_.tBURST)
        return;

    catchUpRefresh(channel, now);

    const size_t idx = pickNext(ct);
    const MemRequest chosen = ct.queue[idx];
    ct.queue.erase(ct.queue.begin() +
                   static_cast<std::ptrdiff_t>(idx));

    const Addr addr = chosen.blockAddr;
    const unsigned b = bankOf(addr);
    BankTiming &bt = ct.banks[b];
    Bank &bank = channels_[channel].banks[b];
    const int64_t row = static_cast<int64_t>(rowOf(addr));

    Tick rd_at;
    if (bank.openRow == row) {
        // Row hit: column access as soon as the bank finished
        // activating (and any refresh has drained).
        rd_at = std::max({now, bt.actEnd, bt.refUntil});
        ++*rowHitCounter_;
    } else {
        // Book the pending cycles under the old windows and open row;
        // the ones set below apply from here on.
        settleBank(channel, b);
        Tick act_earliest = std::max(now, bt.refUntil);
        if (bank.openRow >= 0) {
            // Close the open row first; the precharge may not start
            // until tRAS after the ACT that opened it.
            const Tick pre_start = std::max(act_earliest, bt.rasUntil);
            bt.preStart = pre_start;
            bt.preEnd = pre_start + params_.tRP;
            logCmd(Cmd::Pre, pre_start, channel, b, bank.openRow);
            act_earliest = bt.preEnd;
        }
        // Activate respecting tRRD and the four-ACT tFAW window.
        Tick act_at = act_earliest;
        if (ct.anyAct)
            act_at = std::max(act_at, ct.lastActTick + params_.tRRD);
        if (ct.actSeen >= 4) {
            act_at = std::max(act_at,
                              ct.actWindow[ct.actIdx] + params_.tFAW);
        }
        ct.actWindow[ct.actIdx] = act_at;
        ct.actIdx = (ct.actIdx + 1) % 4;
        ++ct.actSeen;
        ct.lastActTick = act_at;
        ct.anyAct = true;

        bt.actStart = act_at;
        bt.actEnd = act_at + params_.tRCD;
        bt.rasUntil = act_at + params_.tRAS;
        bank.openRow = row;
        logCmd(Cmd::Act, act_at, channel, b, row);
        rd_at = bt.actEnd;
        ++*rowConflictCounter_;
    }

    logCmd(Cmd::Rd, rd_at, channel, b, row);
    const Tick data_start =
        std::max(rd_at + params_.tCAS, ct.busFreeAt);
    const Tick data_end = data_start + params_.tBURST;
    ct.busFreeAt = data_end;
    ++transfers_;
    ++*transferCounter_;

    InFlight inf;
    inf.req = chosen;
    inf.dataStart = data_start;
    inf.dataEnd = data_end;
    ct.inFlight.push_back(inf); // dataStart is monotonic per channel.
}

void
TimingDramSystem::tick(Tick now)
{
    for (unsigned ch = 0; ch < config_.channels; ++ch) {
        ChannelTiming &ct = chTiming_[ch];

        // Retire finished transfers. tick() runs at every front
        // transfer's dataEnd (a nextTransitionTick the stall
        // fast-forward stops at), so completed_ stays in true
        // (dataEnd, channel) order.
        while (!ct.inFlight.empty() &&
               ct.inFlight.front().dataEnd <= now) {
            InFlight done = ct.inFlight.front();
            ct.inFlight.pop_front();
            if (done.req.cls == ReqClass::Writeback) {
                // Writebacks need no completion delivery.
                panic_if(pendingWork_ == 0, "pendingWork underflow");
                --pendingWork_;
            } else {
                completed_.push_back(
                    CompletedReq{done.req, done.dataEnd});
            }
        }

        // Commit the transfer occupying the data bus this cycle as
        // the channel occupant (contention attribution + busyUntil).
        if (!ct.inFlight.empty() &&
            ct.inFlight.front().dataStart <= now) {
            const InFlight &cur = ct.inFlight.front();
            setChannelBusy(ch, cur.dataEnd, cur.req.cls, cur.req.refId,
                           cur.req.hintClass);
        }

        scheduleOne(ch, now);
    }
}

Tick
TimingDramSystem::nextTransitionTick(Tick now) const
{
    if (pendingWork_ == 0)
        return kMaxTick;
    // tick() changes state only when it commits the front transfer as
    // the bus occupant (at its dataStart), retires it (at its
    // dataEnd) or schedules a queued request (once the bus is within
    // the two-burst lookahead of free). A transfer starts strictly
    // after the tick that scheduled it (tCAS > 0), so a front that
    // started by @p now was committed then and next changes at its
    // dataEnd.
    const Tick lookahead = Tick{2} * params_.tBURST;
    Tick next = kMaxTick;
    for (const ChannelTiming &ct : chTiming_) {
        if (!ct.inFlight.empty()) {
            const InFlight &front = ct.inFlight.front();
            next = std::min(next, front.dataStart > now ? front.dataStart
                                                        : front.dataEnd);
        }
        if (!ct.queue.empty()) {
            next = std::min(next, ct.busFreeAt > now + 1 + lookahead
                                      ? ct.busFreeAt - lookahead
                                      : now + 1);
        }
    }
    return next;
}

std::optional<MemRequest>
TimingDramSystem::popCompleted(Tick now)
{
    if (completed_.empty() || completed_.front().done > now)
        return std::nullopt;
    MemRequest req = completed_.front().req;
    completed_.pop_front();
    panic_if(pendingWork_ == 0, "pendingWork underflow");
    --pendingWork_;
    return req;
}

TimingDramSystem::BankState
TimingDramSystem::bankState(unsigned channel, unsigned bank,
                            Tick now) const
{
    const BankTiming &bt = chTiming_[channel].banks[bank];
    if (now < bt.refUntil)
        return BankState::Refreshing;
    if (bt.preStart <= now && now < bt.preEnd)
        return BankState::Precharging;
    if (bt.actStart <= now && now < bt.actEnd)
        return BankState::Activating;
    return channels_[channel].banks[bank].openRow >= 0
               ? BankState::Open
               : BankState::Idle;
}

unsigned
TimingDramSystem::activeBanks(Tick now) const
{
    unsigned active = 0;
    for (unsigned ch = 0; ch < config_.channels; ++ch) {
        for (unsigned b = 0; b < config_.banksPerChannel; ++b) {
            switch (bankState(ch, b, now)) {
              case BankState::Activating:
              case BankState::Precharging:
              case BankState::Refreshing:
                ++active;
                break;
              default:
                break;
            }
        }
    }
    return active;
}

void
TimingDramSystem::settleBank(unsigned channel, unsigned bank)
{
    BankTiming &bt = chTiming_[channel].banks[bank];
    const Tick from = bt.bookedTo;
    const Tick to = channels_[channel].accountedTo;
    if (from >= to)
        return;
    bt.bookedTo = to;

    // Split [from, to) by bankState's priority: refresh covers every
    // tick before refUntil, then precharge and activate their
    // windows, and the remainder rests Open or Idle with the open
    // row. A bank's PRE window always ends before its ACT window
    // starts, so those two never overlap.
    const Tick awake = std::clamp(bt.refUntil, from, to);
    const uint64_t refreshing = awake - from;
    const uint64_t precharging = overlap(awake, to, bt.preStart, bt.preEnd);
    const uint64_t activating = overlap(awake, to, bt.actStart, bt.actEnd);
    const BankState resting = channels_[channel].banks[bank].openRow >= 0
                                  ? BankState::Open
                                  : BankState::Idle;
    auto &state = bankCounters_[channel][bank];
    *state[static_cast<unsigned>(BankState::Refreshing)] += refreshing;
    *state[static_cast<unsigned>(BankState::Precharging)] += precharging;
    *state[static_cast<unsigned>(BankState::Activating)] += activating;
    *state[static_cast<unsigned>(resting)] +=
        (to - from) - refreshing - precharging - activating;
}

void
TimingDramSystem::settleChannel(unsigned channel)
{
    for (unsigned b = 0; b < config_.banksPerChannel; ++b)
        settleBank(channel, b);
}

void
TimingDramSystem::accountingGap(unsigned channel, Tick from)
{
    settleChannel(channel);
    for (BankTiming &bt : chTiming_[channel].banks)
        bt.bookedTo = from;
}

void
TimingDramSystem::reset()
{
    DramBackend::reset();
    for (ChannelTiming &ct : chTiming_) {
        ct.queue.clear();
        ct.inFlight.clear();
        ct.busFreeAt = 0;
        ct.lastActTick = 0;
        ct.anyAct = false;
        ct.actWindow = {};
        ct.actIdx = 0;
        ct.actSeen = 0;
        ct.refreshDue = params_.tREFI;
        for (BankTiming &bt : ct.banks)
            bt = BankTiming{};
    }
    completed_.clear();
}

} // namespace grp
