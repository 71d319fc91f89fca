#include "mem/dram_backend/backend.hh"

#include <algorithm>

#include "obs/site_profile.hh"
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
    // is stable across reset()) so booking costs a pointer add, and
    // healthy runs export explicit zeros.
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
    stats_.setSync([this] { settle(); });
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
DramBackend::bookChannel(unsigned channel, Tick to)
{
    Channel &ch = channels_[channel];
    const Tick from = ch.bookedTo;
    if (to <= from)
        return;
    ch.bookedTo = to;
    const uint64_t busy = std::clamp(ch.busyUntil, from, to) - from;
    const uint64_t idle = (to - from) - busy;
    ChannelCycleCounters &counters = cycleCounters_[channel];
    const unsigned cls = static_cast<unsigned>(ch.occupantCls);
    *counters.slots[cls] += busy;
    *contentionCounters_[cls] += busy;
    *counters.slots[3] += idle; // Idle.
    *contentionCounters_[3] += idle;
    *counters.slots[4] += to - from; // Accounted cycles.

    if (busy == 0 || ch.occupantCls != ReqClass::Prefetch ||
        ch.waitingDemands == 0) {
        return;
    }
    const uint64_t waiting = ch.waitingDemands * busy;
    *demandStallCounter_ += waiting;
    obs::SiteProfiler &profiler = obs::SiteProfiler::instance();
    if (profiler.enabled())
        profiler.noteContention(ch.occupantRef, ch.occupantHint, waiting);
}

void
DramBackend::setWaitingDemands(unsigned channel, size_t waiting, Tick now)
{
    bookChannel(channel, now);
    channels_[channel].waitingDemands = waiting;
}

void
DramBackend::settle()
{
    for (unsigned ch = 0; ch < config_.channels; ++ch)
        bookChannel(ch, accountedTo_);
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
        channel.bookedTo = 0;
        channel.waitingDemands = 0;
        channel.occupantCls = ReqClass::Demand;
        channel.occupantRef = kInvalidRefId;
        channel.occupantHint = obs::HintClass::None;
        for (Bank &bank : channel.banks)
            bank.openRow = -1;
    }
    accountedTo_ = 0;
    pendingWork_ = 0;
    transfers_ = 0;
    stats_.reset();
}

} // namespace grp
