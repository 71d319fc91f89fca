/**
 * @file
 * The epoch-based feedback controller (the tentpole of the adaptive
 * subsystem).
 *
 * Every epoch the controller reads one EpochSignals bundle from its
 * Signals sampler and re-votes, per managed hint class, on whether
 * the class earned more aggression or less:
 *
 *   poor  := accuracy <= accuracyLow
 *            OR pollution rate > pollutionHigh
 *            OR (channel idle < idleLow AND queue occupancy >
 *                occupancyHigh)                  [congestion]
 *   good  := NOT poor AND accuracy >= accuracyHigh
 *
 * A class must vote the same direction hysteresisEpochs times in a
 * row before any knob moves (an epoch with fewer than minEpochFills
 * fills for the class carries no signal and freezes its streaks);
 * each move shifts the class's ladders one level and resets the
 * streak, so a boundary-oscillating signal can never flap a knob.
 * Raising insertion position and queue priority needs only the
 * accuracy vote; growing the region size or pointer depth — the
 * knobs that buy coverage with bandwidth — additionally requires
 * idle >= idleHigh headroom.
 *
 * Ladders (level 0/1/2):
 *   region size (Spatial)    4 / 16 / 64 blocks  (256 B / 1 KB / 4 KB)
 *   insert position (all)    LRU / mid / MRU
 *   queue priority (all)     0 / 1 / 2           (tiers drain high first)
 *   pointer depth (Recursive) 1 / 3 / uncapped
 *
 * The initial state (full region, LRU insertion, priority 1, full
 * depth) makes epoch 0 behave exactly like GrpVar; the controller
 * only deviates on evidence. All inputs are per-run state, so runs
 * are deterministic at any sweep thread count.
 */

#ifndef GRP_ADAPTIVE_CONTROLLER_HH
#define GRP_ADAPTIVE_CONTROLLER_HH

#include <array>
#include <cstdint>
#include <ostream>

#include "adaptive/control_plane.hh"
#include "adaptive/signals.hh"
#include "obs/stat_registry.hh"
#include "sim/config.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace grp
{
namespace adaptive
{

/** The four knobs the controller drives. Values double as the knob
 *  id carried in ctrlTransition trace records. */
enum class Knob : uint8_t
{
    Size = 0,     ///< Spatial region window cap.
    Insert = 1,   ///< L2 insertion position.
    Priority = 2, ///< Prefetch-queue dequeue tier.
    Depth = 3,    ///< Pointer-recursion depth cap.
};

constexpr std::size_t kNumKnobs = 4;
/** Every ladder has three levels. */
constexpr unsigned kNumLevels = 3;

const char *toString(Knob knob);

/** Epoch-based per-hint-class feedback controller. */
class AdaptiveController
{
  public:
    /**
     * @param config Thresholds and epoch geometry.
     * @param max_ptr_depth Depth the top Depth-ladder level maps to
     *        conceptually (reporting only; the plane encodes it as
     *        "uncapped").
     * @param source Cumulative signal source (see signals.hh).
     * @param registry Registry the "adaptive" stat group joins.
     */
    AdaptiveController(const AdaptiveConfig &config,
                       unsigned max_ptr_depth, Signals::Source source,
                       obs::StatRegistry &registry =
                           obs::StatRegistry::current());

    /** The knob table the hardware reads. */
    const ControlPlane &plane() const { return plane_; }

    /** Evaluate one epoch ending at @p now. */
    void onEpoch(Tick now);

    /** Measurement boundary: zero the controller stats and re-prime
     *  the sampler on the freshly reset counters. Knob levels are
     *  kept — the warmed-up operating point is part of the state
     *  warmup exists to establish. */
    void onWarmupBoundary();

    /** Current ladder level of @p knob for @p cls (0..2). */
    unsigned
    level(obs::HintClass cls, Knob knob) const
    {
        return levels_[static_cast<std::size_t>(cls)]
                      [static_cast<std::size_t>(knob)];
    }

    /** Whether the controller drives @p knob for @p cls. */
    static bool managesKnob(obs::HintClass cls, Knob knob);

    uint64_t epochs() const { return epochs_->value(); }

    /** Total knob moves across all knobs and classes. */
    uint64_t totalTransitions() const;

    /** Spatial region cap in blocks (timeseries hook). */
    unsigned
    spatialRegionBlocks() const
    {
        return plane_.regionBlockCap(obs::HintClass::Spatial);
    }

    /** Human-readable state dump (--adaptive-report). */
    void writeReport(std::ostream &os) const;

    StatGroup &stats() { return stats_; }

  private:
    /** Hint classes with at least one managed knob. */
    static constexpr std::array<obs::HintClass, 4> kManagedClasses = {
        obs::HintClass::Spatial,
        obs::HintClass::Pointer,
        obs::HintClass::Recursive,
        obs::HintClass::Indirect,
    };

    void setLevel(obs::HintClass cls, Knob knob, unsigned level);
    void applyLevel(obs::HintClass cls, Knob knob, unsigned level);
    void raiseClass(obs::HintClass cls, bool bandwidth_headroom);
    void lowerClass(obs::HintClass cls);

    AdaptiveConfig config_;
    unsigned maxPtrDepth_;
    Signals signals_;
    ControlPlane plane_;

    /** Ladder levels, indexed [class][knob]. */
    std::array<std::array<unsigned, kNumKnobs>, kNumClasses> levels_{};
    /** Consecutive same-direction votes, per class. */
    std::array<unsigned, kNumClasses> raiseStreak_{};
    std::array<unsigned, kNumClasses> lowerStreak_{};

    StatGroup stats_;
    obs::LifecycleFold lifecycle_; ///< Knob moves: bumps transitions*.
    Counter *epochs_ = nullptr;
    /** Class-epochs skipped for lack of fills. */
    Counter *lowSignalEpochs_ = nullptr;
    /** Per-knob move counts, read for reports (the fold writes them). */
    std::array<const Counter *, kNumKnobs> transitions_{};
    /** Time-in-state: epochs spent at [class][knob][level]; null for
     *  unmanaged (class, knob) pairs. */
    std::array<std::array<std::array<Counter *, kNumLevels>, kNumKnobs>,
               kNumClasses>
        timeInState_{};
    obs::ScopedStatRegistration statReg_;
};

} // namespace adaptive
} // namespace grp

#endif // GRP_ADAPTIVE_CONTROLLER_HH
