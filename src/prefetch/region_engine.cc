#include "prefetch/region_engine.hh"

#include <algorithm>

#include "obs/host_prof.hh"
#include "sim/logging.hh"

namespace grp
{

namespace
{

const char *
groupName(const SimConfig &config)
{
    if (config.scheme == PrefetchScheme::SrpThrottled)
        return "throttledSrp";
    return config.usesHints() ? "grpEngine" : "hwEngine";
}

} // namespace

RegionEngine::RegionEngine(const SimConfig &config,
                           const FunctionalMemory &mem,
                           adaptive::Signals::Source accuracy,
                           obs::StatRegistry &registry)
    : allocatesRegions_(config.usesRegions()),
      hinted_(config.usesHints()),
      sizedRegions_(config.scheme == PrefetchScheme::GrpVar ||
                    config.scheme == PrefetchScheme::GrpAdaptive),
      governed_(config.scheme == PrefetchScheme::SrpThrottled),
      blocksPerPointer_(config.region.blocksPerPointer),
      indirectFanout_(config.region.indirectFanout),
      mem_(mem),
      queue_(config.region.queueEntries, config.region.lifo,
             config.region.bankAware, registry),
      scanner_(mem),
      stats_(groupName(config)),
      statReg_(stats_, registry),
      signals_(std::move(accuracy))
{
    fatal_if(!config.usesRegions() && !config.usesPointerScan(),
             "the region engine cannot run the %s scheme",
             toString(config.scheme));
    // Each scheme family exports exactly its historical counter set;
    // the rest count into a sink, so no hot path branches on them.
    auto bind = [this](const char *name, bool exported) {
        return exported ? &stats_.counter(name) : &unexported_;
    };
    regionsAllocated_ = bind("regionsAllocated", true);
    regionsUpdated_ = bind("regionsUpdated", true);
    candidatesOffered_ = bind("candidatesOffered", !governed_);
    linesScanned_ = bind("linesScanned", !governed_);
    pointersFound_ = bind("pointersFound", !governed_);
    missesUnhinted_ = bind("missesUnhinted", hinted_);
    indirectOps_ = bind("indirectOps", hinted_);
    indirectTargets_ = bind("indirectTargets", hinted_);
    missesWhileThrottled_ = bind("missesWhileThrottled", governed_);
    resumes_ = bind("resumes", governed_);
    throttleEvents_ = bind("throttleEvents", governed_);
}

void
RegionEngine::setPresenceTest(RegionQueue::PresenceTest test)
{
    queue_.setPresenceTest(std::move(test));
}

void
RegionEngine::setControlPlane(const adaptive::ControlPlane *plane)
{
    plane_ = plane;
    queue_.setControlPlane(plane);
}

void
RegionEngine::onL2DemandMiss(Addr addr, RefId ref, const LoadHints &hints)
{
    GRP_HOST_SCOPE(2, EngineNotify);
    if (!allocatesRegions_)
        return;
    // The compiler's hint gates the spatial engine: misses without a
    // spatial mark do not trigger region prefetches at all. SRP
    // prefetches the full 4 KB region on every L2 miss, with no
    // selectivity — the coverage/traffic trade the hints improve on.
    if (hinted_ && !hints.spatial()) {
        ++*missesUnhinted_;
        return;
    }
    if (throttled_ && !resumeAfterMiss())
        return; // No region allocation while paused.
    lifecycle_.note({obs::TraceEvent::HintTrigger, blockAlign(addr),
                     obs::HintClass::Spatial, -1, -1, false, ref});
    unsigned window = sizedRegions_ ? hints.regionBlocks(kBlocksPerRegion)
                                    : kBlocksPerRegion;
    // The adaptive region-size ladder caps the hinted window; both
    // are powers of two, so the min stays one.
    if (plane_) {
        window = std::min(
            window, plane_->regionBlockCap(obs::HintClass::Spatial));
    }
    const unsigned allocated = queue_.noteSpatialMiss(addr, window, 0, ref);
    if (allocated) {
        ++*regionsAllocated_;
        if (hinted_)
            regionSizes_.sample(allocated);
    } else {
        ++*regionsUpdated_;
    }
}

bool
RegionEngine::resumeAfterMiss()
{
    // The misses a paused prefetcher fails to cover are exactly the
    // opportunity cost the paper calls out. The counter is the only
    // accounting; resume progress is its delta since the pause began
    // (saturating: a stat reset at the warmup boundary restarts the
    // pause, not the run).
    ++*missesWhileThrottled_;
    const uint64_t cur = missesWhileThrottled_->value();
    const uint64_t since = cur >= throttleStartMisses_
                               ? cur - throttleStartMisses_
                               : cur;
    if (since < kResumeMisses)
        return false;
    throttled_ = false;
    // Drop the paused era from the next accuracy epoch.
    signals_.reprime();
    dequeuesSinceEval_ = 0;
    ++*resumes_;
    return true;
}

void
RegionEngine::onFill(Addr block_addr, uint8_t ptr_depth, ReqClass)
{
    GRP_HOST_SCOPE(2, EngineNotify);
    // Only pointer-scanning schemes arm a chase depth: every other
    // fill arrives at depth 0.
    if (ptr_depth == 0)
        return;
    std::array<Addr, 8> pointers;
    const unsigned found = scanner_.scan(block_addr, pointers);
    *linesScanned_ += 1;
    *pointersFound_ += found;
    // Chases deeper than one level came from a recursive-pointer
    // hint; attribute their candidates separately (Table 5).
    const obs::HintClass hint = ptr_depth > 1
                                    ? obs::HintClass::Recursive
                                    : obs::HintClass::Pointer;
    if (found > 0)
        lifecycle_.note({obs::TraceEvent::HintTrigger, block_addr, hint,
                         -1, found});
    for (unsigned i = 0; i < found; ++i) {
        queue_.addPointerTarget(pointers[i], blocksPerPointer_,
                                static_cast<uint8_t>(ptr_depth - 1),
                                kInvalidRefId, hint);
    }
}

void
RegionEngine::indirectPrefetch(Addr base, unsigned elem_size,
                               Addr index_addr, RefId ref)
{
    GRP_HOST_SCOPE(2, EngineNotify);
    // Read the cache block containing &b[i]; every 4-byte word in it
    // is treated as an index into a (§3.3.3). The hardware cannot
    // know the live extent of b, so words past the end of the array
    // generate prefetches too — exactly the over-fetch the paper's
    // design accepts for its simplicity.
    ++*indirectOps_;
    lifecycle_.note({obs::TraceEvent::HintTrigger, blockAlign(index_addr),
                     obs::HintClass::Indirect, -1, -1, false, ref});
    const Addr block = blockAlign(index_addr);
    for (unsigned i = 0; i < kBlockBytes / 4 && i < indirectFanout_; ++i) {
        const uint32_t index = mem_.read32(block + 4ull * i);
        const Addr target =
            base + static_cast<uint64_t>(index) * elem_size;
        queue_.addPointerTarget(target, 1, 0, ref,
                                obs::HintClass::Indirect);
        ++*indirectTargets_;
    }
}

std::optional<PrefetchCandidate>
RegionEngine::dequeuePrefetch(const DramBackend &dram, unsigned channel)
{
    GRP_HOST_SCOPE(2, EngineDequeue);
    if (throttled_)
        return std::nullopt;
    auto candidate = queue_.dequeue(dram, channel);
    if (!candidate)
        return std::nullopt;
    ++*candidatesOffered_;
    if (governed_ && ++dequeuesSinceEval_ >= kThrottleWindow)
        evaluateAccuracy();
    return candidate;
}

void
RegionEngine::evaluateAccuracy()
{
    dequeuesSinceEval_ = 0;
    const adaptive::EpochSignals epoch = signals_.sample();
    // A window with no issued prefetches carries no signal (filters
    // can eat every dequeue): hold the current state.
    if (epoch.prefetchesIssued == 0 || epoch.accuracy() >= kAccuracyFloor)
        return;
    throttled_ = true;
    throttleStartMisses_ = missesWhileThrottled_->value();
    // The pause discards what is queued; each entry leaves as a drop,
    // so the queue counters keep reconciling with the site profile
    // and the trace.
    queue_.flush();
    ++*throttleEvents_;
}

void
RegionEngine::reset()
{
    queue_.clear();
    stats_.reset();
    regionSizes_.reset();
    dequeuesSinceEval_ = 0;
    throttled_ = false;
    throttleStartMisses_ = 0;
    if (governed_)
        signals_.reprime();
}

} // namespace grp
