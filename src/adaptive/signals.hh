/**
 * @file
 * Epoch signal sampling for the adaptive prefetch controller.
 *
 * A Signals sampler wraps a Source — a callable returning one
 * cumulative Sample of the run's observability state (per-run
 * StatRegistry counters, shadow-tag pollution, DRAM channel cycle
 * accounting, prefetch-queue occupancy) — and turns consecutive
 * Samples into per-epoch deltas (EpochSignals). Deltas saturate at
 * zero per field: the harness zeroes the underlying counters at the
 * warmup/measurement boundary, and a sampler primed before that
 * boundary must yield the post-reset cumulative value rather than a
 * huge wrapped difference.
 *
 * The Source indirection is the testing seam: production code uses
 * memorySource() over a live MemorySystem, while unit tests (and the
 * srp-throttled RegionEngine tests) drive a hand-rolled Sample
 * through a lambda. Everything here reads only per-run state, so
 * controllers built on it preserve the parallel-sweep determinism
 * invariant.
 */

#ifndef GRP_ADAPTIVE_SIGNALS_HH
#define GRP_ADAPTIVE_SIGNALS_HH

#include <array>
#include <cstdint>
#include <functional>

#include "adaptive/control_plane.hh"

namespace grp
{

class MemorySystem;
class PrefetchEngine;

namespace adaptive
{

/** Cumulative per-hint-class prefetch accounting. */
using ClassCounts = obs::ClassCounts;

/** One cumulative reading of the run's feedback state. */
struct Sample
{
    uint64_t prefetchesIssued = 0;
    uint64_t prefetchFills = 0;
    uint64_t usefulPrefetches = 0;
    /** Shadow-tag pollution misses (0 when shadow tags are off). */
    uint64_t pollutionMisses = 0;
    uint64_t l2DemandAccesses = 0;
    /** Accounted DRAM channel cycles (all channels, all classes). */
    uint64_t channelCycles = 0;
    /** Idle subset of channelCycles. */
    uint64_t idleCycles = 0;
    /** Instantaneous prefetch-queue depth (not a delta source). */
    uint64_t queueDepth = 0;
    /** Queue capacity (constant; 0 disables occupancy signals). */
    uint64_t queueCapacity = 0;
    std::array<ClassCounts, kNumClasses> byClass{};
};

/** Per-epoch deltas plus the derived ratios the policy consumes. */
struct EpochSignals
{
    uint64_t prefetchesIssued = 0;
    uint64_t prefetchFills = 0;
    uint64_t usefulPrefetches = 0;
    uint64_t pollutionMisses = 0;
    uint64_t l2DemandAccesses = 0;
    uint64_t channelCycles = 0;
    uint64_t idleCycles = 0;
    uint64_t queueDepth = 0;
    uint64_t queueCapacity = 0;
    std::array<ClassCounts, kNumClasses> byClass{};

    /** Epoch fills for @p cls. */
    uint64_t
    classFills(obs::HintClass cls) const
    {
        return byClass[static_cast<std::size_t>(cls)].fills;
    }

    /** Epoch accuracy for @p cls (useful / fills; 0 with no fills). */
    double
    classAccuracy(obs::HintClass cls) const
    {
        const ClassCounts &c = byClass[static_cast<std::size_t>(cls)];
        return c.fills ? static_cast<double>(c.useful) / c.fills : 0.0;
    }

    /** Fraction of accounted channel cycles spent idle (1.0 with no
     *  accounted cycles: an idle memory system has headroom). */
    double
    idleFraction() const
    {
        return channelCycles
                   ? static_cast<double>(idleCycles) / channelCycles
                   : 1.0;
    }

    /** Prefetch-queue occupancy at the sample point (0 when the
     *  capacity is unknown). */
    double
    queueOccupancy() const
    {
        return queueCapacity
                   ? static_cast<double>(queueDepth) / queueCapacity
                   : 0.0;
    }

    /** Pollution misses per demand L2 access. */
    double
    pollutionRate() const
    {
        return l2DemandAccesses ? static_cast<double>(pollutionMisses) /
                                      l2DemandAccesses
                                : 0.0;
    }

    /** Whole-run accuracy across classes (useful / issued). */
    double
    accuracy() const
    {
        return prefetchesIssued ? static_cast<double>(usefulPrefetches) /
                                      prefetchesIssued
                                : 0.0;
    }
};

/** Turns cumulative Samples into saturating per-epoch deltas. */
class Signals
{
  public:
    using Source = std::function<Sample()>;

    explicit Signals(Source source) : source_(std::move(source)) {}

    /** Read the source and return the delta since the previous call
     *  (since construction for the first). Instantaneous fields
     *  (queue depth/capacity) pass through unchanged. */
    EpochSignals sample();

    /** Re-prime on the current source state: the next sample() delta
     *  starts from here. Call after the underlying counters are
     *  zeroed (warmup boundary) so the epoch spanning the reset
     *  carries post-reset activity only. */
    void reprime();

  private:
    static uint64_t
    delta(uint64_t cur, uint64_t prev)
    {
        // Saturate: a counter reset mid-epoch makes cur < prev; the
        // post-reset cumulative value is then the best delta
        // estimate.
        return cur >= prev ? cur - prev : cur;
    }

    Source source_;
    Sample prev_{};
};

/**
 * Build the production Source over a live memory system: mem.* /
 * dram.* registry counters, the per-hint-class fill/use arrays, and
 * @p engine's queue depth and capacity (may be nullptr: both read 0).
 */
Signals::Source memorySource(MemorySystem &mem,
                             const PrefetchEngine *engine);

} // namespace adaptive
} // namespace grp

#endif // GRP_ADAPTIVE_SIGNALS_HH
