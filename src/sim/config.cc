#include "sim/config.hh"

#include "sim/logging.hh"

namespace grp
{

const char *
toString(PrefetchScheme scheme)
{
    switch (scheme) {
      case PrefetchScheme::None: return "none";
      case PrefetchScheme::Stride: return "stride";
      case PrefetchScheme::Srp: return "srp";
      case PrefetchScheme::GrpFix: return "grp-fix";
      case PrefetchScheme::GrpVar: return "grp-var";
      case PrefetchScheme::PointerHw: return "ptr-hw";
      case PrefetchScheme::PointerHwRec: return "ptr-hw-rec";
      case PrefetchScheme::SrpPlusPointer: return "srp+ptr";
      case PrefetchScheme::SrpThrottled: return "srp-throttled";
      case PrefetchScheme::GrpAdaptive: return "grp-adaptive";
    }
    return "?";
}

const char *
toString(Perfection perfection)
{
    switch (perfection) {
      case Perfection::None: return "real";
      case Perfection::PerfectL2: return "perfect-l2";
      case Perfection::PerfectL1: return "perfect-l1";
    }
    return "?";
}

const char *
toString(CompilerPolicy policy)
{
    switch (policy) {
      case CompilerPolicy::Conservative: return "conservative";
      case CompilerPolicy::Default: return "default";
      case CompilerPolicy::Aggressive: return "aggressive";
    }
    return "?";
}

namespace
{

void
validateCache(const CacheConfig &cache, const char *what)
{
    fatal_if(cache.sizeBytes == 0 || !isPowerOfTwo(cache.sizeBytes),
             "%s size must be a non-zero power of two", what);
    fatal_if(cache.assoc == 0, "%s associativity must be non-zero", what);
    fatal_if(cache.sizeBytes % (cache.assoc * kBlockBytes) != 0,
             "%s size must be divisible by assoc * block size", what);
    const uint64_t sets = cache.sizeBytes / (cache.assoc * kBlockBytes);
    fatal_if(!isPowerOfTwo(sets), "%s set count must be a power of two",
             what);
    fatal_if(cache.mshrs == 0, "%s needs at least one MSHR", what);
    fatal_if(cache.mshrTargets == 0,
             "%s mshrTargets must be at least 1: a miss needs a target",
             what);
}

} // namespace

void
PulseConfig::validate() const
{
    fatal_if(dropPct < 0.0 || dropPct >= 100.0,
             "pulse drop threshold must be in [0, 100) percent");
    fatal_if(dropSustainBeats == 0,
             "pulse drop streak must be at least one beat");
}

void
SimConfig::validate() const
{
    validateCache(l1d, "L1D");
    validateCache(l2, "L2");
    fatal_if(l2.sizeBytes < l1d.sizeBytes,
             "L2 must be at least as large as L1D");
    fatal_if(dram.channels == 0 || !isPowerOfTwo(dram.channels),
             "channel count must be a power of two");
    fatal_if(dram.banksPerChannel == 0 ||
             !isPowerOfTwo(dram.banksPerChannel),
             "bank count must be a power of two");
    fatal_if(dram.rowBytes < kBlockBytes ||
             !isPowerOfTwo(dram.rowBytes),
             "row size must be a power of two >= one block");
    fatal_if(cpu.issueWidth == 0 || cpu.retireWidth == 0 ||
             cpu.robEntries == 0, "CPU widths/ROB must be non-zero");
    fatal_if(region.queueEntries == 0, "prefetch queue must be non-empty");
    fatal_if(region.recursiveDepth > 7,
             "recursion counter is 3 bits (max 7)");
    fatal_if(region.blocksPerPointer == 0 ||
                 region.blocksPerPointer > kBlocksPerRegion,
             "region.blocksPerPointer must be in [1, %u]",
             kBlocksPerRegion);
    fatal_if(stride.tableEntries == 0 || stride.tableAssoc == 0 ||
             stride.tableEntries % stride.tableAssoc != 0,
             "stride table shape invalid");
    fatal_if(stride.streamBuffers == 0 || stride.bufferEntries == 0,
             "stream buffer shape invalid");
    fatal_if(stride.trainThreshold > StrideConfig::kMaxConfidence,
             "stride.trainThreshold must be at most %u: the confidence "
             "counter saturates there, so no stream would ever start",
             StrideConfig::kMaxConfidence);
    fatal_if(adaptive.epochCycles == 0,
             "adaptive epoch length must be non-zero");
    fatal_if(adaptive.hysteresisEpochs == 0,
             "adaptive hysteresis must be at least one epoch");
    fatal_if(adaptive.accuracyLow < 0.0 ||
             adaptive.accuracyHigh > 1.0 ||
             adaptive.accuracyLow > adaptive.accuracyHigh,
             "adaptive accuracy thresholds must satisfy "
             "0 <= low <= high <= 1");
    fatal_if(adaptive.idleLow < 0.0 || adaptive.idleHigh > 1.0 ||
             adaptive.idleLow > adaptive.idleHigh,
             "adaptive idle thresholds must satisfy 0 <= low <= high <= 1");
    fatal_if(adaptive.occupancyHigh <= 0.0 ||
             adaptive.occupancyHigh > 1.0,
             "adaptive occupancy threshold must be in (0, 1]");
    fatal_if(adaptive.pollutionHigh < 0.0,
             "adaptive pollution threshold must be non-negative");
}

} // namespace grp
