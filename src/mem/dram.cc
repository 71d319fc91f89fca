#include "mem/dram.hh"

#include "obs/host_prof.hh"
#include "sim/logging.hh"

namespace grp
{

DramSystem::DramSystem(const DramConfig &config,
                       obs::StatRegistry &registry)
    : DramBackend(config, registry)
{
}

Tick
DramSystem::serve(Addr addr, Tick now, ReqClass cls, RefId ref,
                  obs::HintClass hint)
{
    GRP_HOST_SCOPE(2, DramServe);
    const unsigned ch = channelOf(addr);
    Channel &channel = channels_[ch];
    panic_if(channel.busyUntil > now,
             "serving on a busy channel (busy until %llu, now %llu)",
             (unsigned long long)channel.busyUntil,
             (unsigned long long)now);

    Bank &bank = channel.banks[bankOf(addr)];
    const int64_t row = static_cast<int64_t>(rowOf(addr));
    unsigned access;
    if (bank.openRow == row) {
        access = config_.rowHitCycles;
        ++*rowHitCounter_;
    } else {
        access = config_.rowConflictCycles;
        ++*rowConflictCounter_;
        bank.openRow = row;
    }

    // Bank access overlaps the previous transfer (the channel is
    // pipelined); the channel itself is occupied only for the data
    // transfer, so back-to-back row hits stream at full channel
    // bandwidth.
    const Tick done = now + access + config_.transferCycles;
    setChannelBusy(ch, now, now + config_.transferCycles, cls, ref, hint);
    ++transfers_;
    ++*transferCounter_;
    return done;
}

} // namespace grp
