#include "prefetch/hw_engine.hh"

#include "obs/host_prof.hh"
#include "sim/logging.hh"

namespace grp
{

HwPrefetchEngine::HwPrefetchEngine(const SimConfig &config,
                                   const FunctionalMemory &mem,
                                   obs::StatRegistry &registry)
    : config_(config),
      queue_(config.region.queueEntries, config.region.lifo,
             config.region.bankAware, registry),
      scanner_(mem),
      stats_("hwEngine"),
      statReg_(stats_, registry)
{
    fatal_if(config.usesHints(),
             "HwPrefetchEngine cannot run hint-based schemes; "
             "use GrpEngine");
    regionsAllocated_ = &stats_.counter("regionsAllocated");
    regionsUpdated_ = &stats_.counter("regionsUpdated");
    linesScanned_ = &stats_.counter("linesScanned");
    pointersFound_ = &stats_.counter("pointersFound");
    candidatesOffered_ = &stats_.counter("candidatesOffered");
}

bool
HwPrefetchEngine::usesRegions() const
{
    return config_.scheme == PrefetchScheme::Srp ||
           config_.scheme == PrefetchScheme::SrpPlusPointer;
}

bool
HwPrefetchEngine::usesPointers() const
{
    return config_.scheme == PrefetchScheme::PointerHw ||
           config_.scheme == PrefetchScheme::PointerHwRec ||
           config_.scheme == PrefetchScheme::SrpPlusPointer;
}

void
HwPrefetchEngine::setPresenceTest(RegionQueue::PresenceTest test)
{
    queue_.setPresenceTest(std::move(test));
}

void
HwPrefetchEngine::onL2DemandMiss(Addr addr, RefId ref, const LoadHints &)
{
    GRP_HOST_SCOPE(2, EngineNotify);
    // SRP prefetches the full 4 KB region on every L2 miss, with no
    // selectivity at all — the coverage/traffic trade the paper's
    // hints improve on. The triggering reference still attributes the
    // region for the tracer and site profiler, even though the
    // hardware itself ignores it.
    if (!usesRegions())
        return;
    lifecycle_.note({obs::TraceEvent::HintTrigger, blockAlign(addr),
                     obs::HintClass::Spatial, -1, -1, false, ref});
    if (queue_.noteSpatialMiss(addr, kBlocksPerRegion, 0, ref)) {
        ++*regionsAllocated_;
    } else {
        ++*regionsUpdated_;
    }
}

void
HwPrefetchEngine::onFill(Addr block_addr, uint8_t ptr_depth, ReqClass)
{
    GRP_HOST_SCOPE(2, EngineNotify);
    if (!usesPointers() || ptr_depth == 0)
        return;
    std::array<Addr, 8> pointers;
    const unsigned found = scanner_.scan(block_addr, pointers);
    *linesScanned_ += 1;
    *pointersFound_ += found;
    const obs::HintClass hint = ptr_depth > 1
                                    ? obs::HintClass::Recursive
                                    : obs::HintClass::Pointer;
    if (found > 0)
        lifecycle_.note({obs::TraceEvent::HintTrigger, block_addr, hint,
                         -1, found});
    for (unsigned i = 0; i < found; ++i) {
        queue_.addPointerTarget(pointers[i],
                                config_.region.blocksPerPointer,
                                static_cast<uint8_t>(ptr_depth - 1),
                                kInvalidRefId, hint);
    }
}

std::optional<PrefetchCandidate>
HwPrefetchEngine::dequeuePrefetch(const DramBackend &dram,
                                  unsigned channel)
{
    GRP_HOST_SCOPE(2, EngineDequeue);
    auto candidate = queue_.dequeue(dram, channel);
    if (candidate)
        ++*candidatesOffered_;
    return candidate;
}

void
HwPrefetchEngine::reset()
{
    queue_.clear();
    stats_.reset();
}

} // namespace grp
