#include "core/grp_engine.hh"

#include <algorithm>

#include "obs/host_prof.hh"
#include "sim/logging.hh"

namespace grp
{

GrpEngine::GrpEngine(const SimConfig &config, const FunctionalMemory &mem,
                     obs::StatRegistry &registry)
    : config_(config),
      mem_(mem),
      queue_(config.region.queueEntries, config.region.lifo,
             config.region.bankAware, registry),
      scanner_(mem),
      stats_("grpEngine"),
      statReg_(stats_, registry)
{
    fatal_if(!config.usesHints(),
             "GrpEngine requires the GrpFix, GrpVar or GrpAdaptive "
             "scheme");
    missesUnhinted_ = &stats_.counter("missesUnhinted");
    regionsAllocated_ = &stats_.counter("regionsAllocated");
    regionsUpdated_ = &stats_.counter("regionsUpdated");
    linesScanned_ = &stats_.counter("linesScanned");
    pointersFound_ = &stats_.counter("pointersFound");
    indirectOps_ = &stats_.counter("indirectOps");
    indirectTargets_ = &stats_.counter("indirectTargets");
    candidatesOffered_ = &stats_.counter("candidatesOffered");
}

void
GrpEngine::setPresenceTest(RegionQueue::PresenceTest test)
{
    queue_.setPresenceTest(std::move(test));
}

void
GrpEngine::setControlPlane(const adaptive::ControlPlane *plane)
{
    plane_ = plane;
    queue_.setControlPlane(plane);
}

void
GrpEngine::onL2DemandMiss(Addr addr, RefId ref, const LoadHints &hints)
{
    GRP_HOST_SCOPE(2, EngineNotify);
    // The compiler's hint gates the spatial engine: misses without a
    // spatial mark do not trigger region prefetches at all. Pointer
    // and recursive hints need no action here — the memory system
    // already armed the miss's MSHR counter; the scan runs on fill.
    if (!hints.spatial()) {
        ++*missesUnhinted_;
        return;
    }
    lifecycle_.note({obs::TraceEvent::HintTrigger, blockAlign(addr),
                     obs::HintClass::Spatial, -1, -1, false, ref});
    unsigned window =
        variableRegions() ? hints.regionBlocks(kBlocksPerRegion)
                          : kBlocksPerRegion;
    // The adaptive region-size ladder caps the hinted window; both
    // are powers of two, so the min stays one.
    if (plane_) {
        window = std::min(
            window, plane_->regionBlockCap(obs::HintClass::Spatial));
    }
    const unsigned allocated =
        queue_.noteSpatialMiss(addr, window, 0, ref,
                               obs::HintClass::Spatial);
    if (allocated) {
        ++*regionsAllocated_;
        regionSizes_.sample(allocated);
    } else {
        ++*regionsUpdated_;
    }
}

void
GrpEngine::onFill(Addr block_addr, uint8_t ptr_depth, ReqClass)
{
    GRP_HOST_SCOPE(2, EngineNotify);
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
        queue_.addPointerTarget(pointers[i],
                                config_.region.blocksPerPointer,
                                static_cast<uint8_t>(ptr_depth - 1),
                                kInvalidRefId, hint);
    }
}

void
GrpEngine::indirectPrefetch(Addr base, unsigned elem_size,
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
    const unsigned fanout = config_.region.indirectFanout;
    for (unsigned i = 0; i < kBlockBytes / 4 && i < fanout; ++i) {
        const uint32_t index = mem_.read32(block + 4ull * i);
        const Addr target =
            base + static_cast<uint64_t>(index) * elem_size;
        queue_.addPointerTarget(target, 1, 0, ref,
                                obs::HintClass::Indirect);
        ++*indirectTargets_;
    }
}

std::optional<PrefetchCandidate>
GrpEngine::dequeuePrefetch(const DramBackend &dram, unsigned channel)
{
    GRP_HOST_SCOPE(2, EngineDequeue);
    auto candidate = queue_.dequeue(dram, channel);
    if (candidate)
        ++*candidatesOffered_;
    return candidate;
}

void
GrpEngine::reset()
{
    queue_.clear();
    stats_.reset();
    regionSizes_.reset();
}

} // namespace grp
