#include "mem/dram_backend/backend.hh"

#include "sim/logging.hh"

namespace grp
{

DramBackend::DramBackend(const DramConfig &config,
                         obs::StatRegistry &registry)
    : config_(config),
      channelShift_(floorLog2(config.channels)),
      blocksPerRow_(config.rowBytes / kBlockBytes),
      blocksPerRowShift_(floorLog2(config.rowBytes / kBlockBytes)),
      bankShift_(floorLog2(config.banksPerChannel)),
      stats_("dram"),
      statReg_(stats_, registry)
{
    fatal_if(!isPowerOfTwo(config.channels) ||
             !isPowerOfTwo(config.banksPerChannel) ||
             !isPowerOfTwo(blocksPerRow_),
             "DRAM geometry must be powers of two");
    channelPeriod_ = config.channels >= 64
                         ? 1
                         : ~0ull / ((1ull << config.channels) - 1);
    rowSpanBlocks_ = uint64_t{config.channels} * blocksPerRow_;
    channels_.resize(config.channels);
    for (Channel &channel : channels_)
        channel.banks.resize(config.banksPerChannel);

    // Registered up front (and cached as references: Counter storage
    // is stable across reset()) so the per-cycle accounting costs a
    // pointer increment, and healthy runs export explicit zeros.
    // Every backend shares this schema; subclasses may register more
    // (the legacy set stays a subset of every backend's export).
    contentionCounters_ = {
        &stats_.counter("contentionDemandCycles"),
        &stats_.counter("contentionPrefetchCycles"),
        &stats_.counter("contentionWritebackCycles"),
        &stats_.counter("contentionIdleCycles"),
    };
    demandStallCounter_ = &stats_.counter("contentionDemandStallCycles");
    rowHitCounter_ = &stats_.counter("rowHits");
    rowConflictCounter_ = &stats_.counter("rowConflicts");
    transferCounter_ = &stats_.counter("transfers");
    cycleCounters_.resize(config.channels);
    for (unsigned ch = 0; ch < config.channels; ++ch) {
        const std::string prefix = "ch" + std::to_string(ch);
        cycleCounters_[ch].slots = {
            &stats_.counter(prefix + "DemandCycles"),
            &stats_.counter(prefix + "PrefetchCycles"),
            &stats_.counter(prefix + "WritebackCycles"),
            &stats_.counter(prefix + "IdleCycles"),
            &stats_.counter(prefix + "Cycles"),
        };
    }
}

unsigned
DramBackend::busyChannels(Tick now) const
{
    unsigned busy = 0;
    for (const Channel &channel : channels_)
        busy += channel.busyUntil > now ? 1 : 0;
    return busy;
}

void
DramBackend::noteChannelCycle(unsigned channel, Tick now)
{
    const Channel &ch = channels_[channel];
    ChannelCycleCounters &counters = cycleCounters_[channel];
    unsigned slot = 3; // Idle.
    if (ch.busyUntil > now) {
        switch (ch.occupantCls) {
          case ReqClass::Demand:    slot = 0; break;
          case ReqClass::Prefetch:  slot = 1; break;
          case ReqClass::Writeback: slot = 2; break;
        }
    }
    ++*counters.slots[slot];
    ++*counters.slots[4]; // Accounted cycles for this channel.
    ++*contentionCounters_[slot];
    if (bankAccounting_)
        accountBankCycles(channel, now, 1);
}

void
DramBackend::noteChannelCycles(unsigned channel, Tick from,
                               uint64_t busy_cycles, uint64_t idle_cycles)
{
    const Channel &ch = channels_[channel];
    ChannelCycleCounters &counters = cycleCounters_[channel];
    if (busy_cycles) {
        unsigned slot = 0;
        switch (ch.occupantCls) {
          case ReqClass::Demand:    slot = 0; break;
          case ReqClass::Prefetch:  slot = 1; break;
          case ReqClass::Writeback: slot = 2; break;
        }
        *counters.slots[slot] += busy_cycles;
        *contentionCounters_[slot] += busy_cycles;
    }
    if (idle_cycles) {
        *counters.slots[3] += idle_cycles;
        *contentionCounters_[3] += idle_cycles;
    }
    *counters.slots[4] += busy_cycles + idle_cycles;
    if (bankAccounting_)
        accountBankCycles(channel, from, busy_cycles + idle_cycles);
}

void
DramBackend::noteAllIdleCycle(Tick now)
{
    for (ChannelCycleCounters &counters : cycleCounters_) {
        ++*counters.slots[3]; // Idle.
        ++*counters.slots[4]; // Accounted cycles for this channel.
    }
    *contentionCounters_[3] += channels_.size();
    if (bankAccounting_) {
        for (unsigned ch = 0; ch < config_.channels; ++ch)
            accountBankCycles(ch, now, 1);
    }
}

void
DramBackend::noteDemandStall(uint64_t waiting)
{
    *demandStallCounter_ += waiting;
}

DramBackend::ChannelCycles
DramBackend::channelCycles(unsigned channel) const
{
    const std::string prefix = "ch" + std::to_string(channel);
    return ChannelCycles{
        stats_.value(prefix + "DemandCycles"),
        stats_.value(prefix + "PrefetchCycles"),
        stats_.value(prefix + "WritebackCycles"),
        stats_.value(prefix + "IdleCycles"),
    };
}

void
DramBackend::reset()
{
    for (Channel &channel : channels_) {
        channel.busyUntil = 0;
        channel.occupantCls = ReqClass::Demand;
        channel.occupantRef = kInvalidRefId;
        channel.occupantHint = obs::HintClass::None;
        for (Bank &bank : channel.banks)
            bank.openRow = -1;
    }
    maxBusyUntil_ = 0;
    pendingWork_ = 0;
    transfers_ = 0;
    stats_.reset();
}

} // namespace grp
