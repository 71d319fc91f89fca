#include "prefetch/throttled_srp.hh"

#include "obs/host_prof.hh"
#include "sim/logging.hh"

namespace grp
{

ThrottledSrpEngine::ThrottledSrpEngine(const SimConfig &config,
                                       adaptive::Signals::Source source,
                                       double accuracy_floor,
                                       unsigned resume_misses,
                                       obs::StatRegistry &registry)
    : config_(config),
      queue_(config.region.queueEntries, config.region.lifo,
             config.region.bankAware, registry),
      accuracyFloor_(accuracy_floor),
      resumeMisses_(resume_misses),
      signals_(std::move(source)),
      stats_("throttledSrp"),
      statReg_(stats_, registry)
{
    fatal_if(accuracy_floor < 0.0 || accuracy_floor > 1.0,
             "accuracy floor must be in [0, 1]");
    missesWhileThrottledCounter_ =
        &stats_.counter("missesWhileThrottled");
    resumes_ = &stats_.counter("resumes");
    regionsAllocated_ = &stats_.counter("regionsAllocated");
    regionsUpdated_ = &stats_.counter("regionsUpdated");
    throttleEvents_ = &stats_.counter("throttleEvents");
}

void
ThrottledSrpEngine::setPresenceTest(RegionQueue::PresenceTest test)
{
    queue_.setPresenceTest(std::move(test));
}

void
ThrottledSrpEngine::onL2DemandMiss(Addr addr, RefId ref,
                                   const LoadHints &)
{
    GRP_HOST_SCOPE(2, EngineNotify);
    if (throttled_) {
        // The misses a paused prefetcher fails to cover are exactly
        // the opportunity cost the paper calls out. The counter is
        // the only accounting; resume progress is its delta since
        // the pause began (saturating: a stat reset at the warmup
        // boundary restarts the pause, not the run).
        ++*missesWhileThrottledCounter_;
        const uint64_t cur = missesWhileThrottledCounter_->value();
        const uint64_t since = cur >= throttleStartMisses_
                                   ? cur - throttleStartMisses_
                                   : cur;
        if (since >= resumeMisses_) {
            throttled_ = false;
            // Drop the paused era from the next accuracy epoch.
            signals_.reprime();
            dequeuesSinceEval_ = 0;
            ++*resumes_;
        } else {
            return; // No region allocation while paused.
        }
    }
    lifecycle_.note({obs::TraceEvent::HintTrigger, blockAlign(addr),
                     obs::HintClass::Spatial, -1, -1, false, ref});
    if (queue_.noteSpatialMiss(addr, kBlocksPerRegion, 0, ref)) {
        ++*regionsAllocated_;
    } else {
        ++*regionsUpdated_;
    }
}

std::optional<PrefetchCandidate>
ThrottledSrpEngine::dequeuePrefetch(const DramBackend &dram,
                                    unsigned channel)
{
    GRP_HOST_SCOPE(2, EngineDequeue);
    if (throttled_)
        return std::nullopt;

    auto candidate = queue_.dequeue(dram, channel);
    if (!candidate)
        return std::nullopt;

    if (++dequeuesSinceEval_ >= kWindow) {
        dequeuesSinceEval_ = 0;
        const adaptive::EpochSignals epoch = signals_.sample();
        // A window with no issued prefetches carries no signal
        // (filters can eat every dequeue): hold the current state.
        if (epoch.prefetchesIssued > 0 &&
            epoch.accuracy() < accuracyFloor_) {
            throttled_ = true;
            throttleStartMisses_ =
                missesWhileThrottledCounter_->value();
            // The pause discards what is queued; each entry leaves
            // as a drop, so the queue counters keep reconciling with
            // the site profile and the trace.
            queue_.flush();
            ++*throttleEvents_;
        }
    }
    return candidate;
}

void
ThrottledSrpEngine::reset()
{
    queue_.clear();
    dequeuesSinceEval_ = 0;
    throttled_ = false;
    throttleStartMisses_ = 0;
    signals_.reprime();
    stats_.reset();
}

} // namespace grp
