/**
 * @file
 * Central simulator configuration.
 *
 * Defaults reproduce the machine configuration of the GRP paper
 * (Section 5.1): 1.6 GHz 4-way issue out-of-order core with a 64-entry
 * RUU, 64 KB 2-way split L1s (3-cycle), unified 1 MB 4-way L2
 * (12-cycle), 8 MSHRs per cache, and a 4-channel 800 MHz Rambus-style
 * memory system. The SRP prefetch queue has 32 entries with LIFO
 * scheduling; the stride predictor uses a 1K-entry 4-way table feeding
 * 8 stream buffers of 8 entries each.
 */

#ifndef GRP_SIM_CONFIG_HH
#define GRP_SIM_CONFIG_HH

#include <cstdint>
#include <string>

#include "sim/types.hh"

namespace grp
{

/** Which prefetching scheme drives the L2 prefetch hardware. */
enum class PrefetchScheme
{
    None,           ///< No prefetching (baseline).
    Stride,         ///< Sherwood-style strided stream buffers.
    Srp,            ///< Scheduled region prefetching (no hints).
    GrpFix,         ///< GRP with fixed 4 KB regions.
    GrpVar,         ///< GRP with compiler variable-size regions.
    PointerHw,      ///< Pure hardware pointer prefetching (Fig 9).
    PointerHwRec,   ///< Pure hardware recursive pointer prefetching.
    SrpPlusPointer, ///< SRP combined with HW pointer prefetching.
    SrpThrottled,   ///< SRP with a dynamic accuracy governor
                    ///< (the related-work class of §1).
    GrpAdaptive,    ///< GRP/Var plus the epoch-based feedback
                    ///< controller (src/adaptive/): per-hint-class
                    ///< region size, queue priority, L2 insertion
                    ///< position and pointer depth are retuned from
                    ///< runtime signals every epoch.
};

/** Idealised cache modes for the limit studies in Figure 1. */
enum class Perfection
{
    None,      ///< Realistic hierarchy.
    PerfectL2, ///< Every L2 access hits (12-cycle L2).
    PerfectL1, ///< Every L1 access hits (3-cycle L1).
};

/** Compiler spatial-marking policy (Section 5.4). */
enum class CompilerPolicy
{
    Conservative, ///< Spatial only when reuse is in the innermost loop.
    Default,      ///< Reuse distance bounded by the L2 capacity.
    Aggressive,   ///< Spatial even when reuse distance exceeds the L2.
};

const char *toString(PrefetchScheme scheme);
const char *toString(Perfection perfection);
const char *toString(CompilerPolicy policy);

/** Parameters of one cache level. */
struct CacheConfig
{
    uint64_t sizeBytes = 0;
    unsigned assoc = 0;
    unsigned latency = 0;     ///< Hit latency in CPU cycles.
    unsigned mshrs = 8;       ///< Outstanding distinct-block misses.
    unsigned mshrTargets = 8; ///< Coalesced requests per MSHR.
};

/** Rambus-style DRAM system parameters (in CPU cycles). */
struct DramConfig
{
    unsigned channels = 4;
    unsigned banksPerChannel = 16;
    unsigned rowBytes = 2048;
    /** Bank access when the row is already open. */
    unsigned rowHitCycles = 56;
    /** Precharge + activate + access on a row conflict. */
    unsigned rowConflictCycles = 120;
    /** Channel data-bus occupancy per 64 B transfer. */
    unsigned transferCycles = 32;
    /**
     * DRAM backend selection: "legacy" (the immediate Rambus-style
     * model above) or a cycle-accurate timing preset ("ddr4-2400",
     * "hbm2", "lpddr4" — see mem/dram_backend/presets.hh; presets
     * also override the geometry fields). Empty resolves through the
     * GRP_DRAM environment variable, defaulting to legacy, so every
     * existing configuration is untouched. Resolved names other than
     * legacy participate in the provenance config hash.
     */
    std::string backend;
};

/** Out-of-order core parameters. */
struct CpuConfig
{
    unsigned issueWidth = 4;
    unsigned retireWidth = 4;
    unsigned robEntries = 64;
    unsigned computeLatency = 1;
};

/** Region prefetch queue (SRP/GRP) parameters. */
struct RegionPrefetchConfig
{
    unsigned queueEntries = 32;
    bool lifo = true;          ///< LIFO scheduling (paper default).
    bool lruInsertion = true;  ///< Fill prefetches at LRU position.
    bool bankAware = true;     ///< Prefer prefetches to open DRAM rows.
    /** Recursion depth for `recursive pointer` hints (paper: 6). */
    unsigned recursiveDepth = 6;
    /** Blocks fetched per discovered pointer (paper: 2). */
    unsigned blocksPerPointer = 2;
    /** Max prefetch addresses per indirect instruction (paper: 16). */
    unsigned indirectFanout = 16;
};

/** Epoch-based adaptive prefetch controller (src/adaptive/). */
struct AdaptiveConfig
{
    /** Cycles between controller evaluations. */
    uint64_t epochCycles = 2048;
    /** Per-class accuracy at/above which an epoch votes to raise the
     *  class's knobs (more aggressive). */
    double accuracyHigh = 0.60;
    /** Per-class accuracy at/below which an epoch votes to lower
     *  them (less aggressive). */
    double accuracyLow = 0.20;
    /** Pollution misses per demand L2 access above which every class
     *  votes to lower (needs shadow tags; 0 signal without them). */
    double pollutionHigh = 0.02;
    /** Channel idle fraction required before a raise may also grow
     *  the region size / pointer depth (bandwidth headroom gate). */
    double idleHigh = 0.50;
    /** Idle fraction below which a saturated prefetch queue counts
     *  as congestion (votes to lower). */
    double idleLow = 0.10;
    /** Queue occupancy above which (with idle below idleLow) the
     *  epoch counts as congested. */
    double occupancyHigh = 0.75;
    /** Consecutive same-direction epochs required before any knob
     *  moves (hysteresis against boundary oscillation). */
    unsigned hysteresisEpochs = 2;
    /** Epochs with fewer prefetch fills than this for a class carry
     *  no signal for it: streaks neither grow nor reset. */
    uint64_t minEpochFills = 8;
};

/**
 * Live run telemetry (src/obs/pulse): beat cadence and the stall
 * watchdog's thresholds. Enablement and the sidecar path live in
 * ObsOptions (harness/runner.hh); off by default, and a pulse-off
 * run carries zero telemetry residue.
 */
struct PulseConfig
{
    /** Simulated instructions between beats; 0 derives one from the
     *  run's instruction budget (~1% of it, minimum 1000). */
    uint64_t intervalInstructions = 0;
    /** Force a beat when this many wall-clock milliseconds pass
     *  without the instruction interval elapsing, so a stalled run
     *  keeps pulsing and the watchdog can see it (0 disables the
     *  floor — beats then fire on instruction count only). */
    uint64_t wallFloorMillis = 250;
    /** Watchdog: a beat whose host inst/s falls more than this many
     *  percent below the rolling baseline counts toward a collapse
     *  streak... */
    double dropPct = 50.0;
    /** ...and a streak this many consecutive beats long emits a
     *  `pulse.warn` record (and a nonzero `grpmon --check`). */
    unsigned dropSustainBeats = 3;

    /** Throws (fatal) on nonsensical thresholds. */
    void validate() const;
};

/** Stride prefetcher (PDSB stride component) parameters. */
struct StrideConfig
{
    unsigned tableEntries = 1024;
    unsigned tableAssoc = 4;
    unsigned streamBuffers = 8;
    unsigned bufferEntries = 8;
    unsigned trainThreshold = 2; ///< Confirmations before allocation.

    /** The two-bit confidence counter's ceiling: trainThreshold may
     *  not exceed it. */
    static constexpr unsigned kMaxConfidence = 3;
};

/** Full system configuration. */
struct SimConfig
{
    CacheConfig l1d{64 * 1024, 2, 3, 8, 8};
    CacheConfig l2{1024 * 1024, 4, 12, 8, 8};
    DramConfig dram;
    CpuConfig cpu;
    RegionPrefetchConfig region;
    AdaptiveConfig adaptive;
    StrideConfig stride;

    PrefetchScheme scheme = PrefetchScheme::None;
    Perfection perfection = Perfection::None;
    CompilerPolicy policy = CompilerPolicy::Default;

    /** Safety net against deadlock bugs: abort if a single
     *  instruction stays at the ROB head this many cycles. */
    uint64_t deadlockCycles = 2'000'000;

    /** Throws (fatal) on inconsistent parameters. */
    void validate() const;

    /** True when the scheme consumes compiler hints. */
    bool
    usesHints() const
    {
        return scheme == PrefetchScheme::GrpFix ||
               scheme == PrefetchScheme::GrpVar ||
               scheme == PrefetchScheme::GrpAdaptive;
    }

    /** True when the scheme carries an adaptive controller. */
    bool
    usesAdaptiveController() const
    {
        return scheme == PrefetchScheme::GrpAdaptive;
    }

    /** True when the scheme includes region prefetching. */
    bool
    usesRegions() const
    {
        return scheme == PrefetchScheme::Srp ||
               scheme == PrefetchScheme::SrpPlusPointer ||
               scheme == PrefetchScheme::SrpThrottled || usesHints();
    }

    /** True when the scheme scans returned lines for pointers. */
    bool
    usesPointerScan() const
    {
        return scheme == PrefetchScheme::PointerHw ||
               scheme == PrefetchScheme::PointerHwRec ||
               scheme == PrefetchScheme::SrpPlusPointer || usesHints();
    }
};

} // namespace grp

#endif // GRP_SIM_CONFIG_HH
