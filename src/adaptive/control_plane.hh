/**
 * @file
 * The control plane between the adaptive controller and the prefetch
 * hardware.
 *
 * The controller (src/adaptive/controller.*) owns a ControlPlane and
 * rewrites its per-hint-class knobs at epoch boundaries; the hardware
 * (RegionEngine, RegionQueue, MemorySystem) holds a
 * `const ControlPlane *` and consults it on each decision it covers:
 *
 *  - regionBlockCap: ceiling on the spatial region window, the
 *    4 KB <-> 1 KB <-> 256 B ladder of the issue (64/16/4 blocks);
 *  - insertPos: where prefetch fills land in the L2 recency stack
 *    (LRU <-> mid <-> MRU);
 *  - priority: prefetch-queue dequeue tier (higher drains first);
 *  - ptrDepthCap: ceiling on pointer-recursion depth.
 *
 * A null plane means "no controller": every consumer must behave
 * exactly as before this layer existed, which the knob defaults here
 * also encode (cap 64 = full region, LRU insertion, single priority
 * tier, depth cap above any configurable depth). This file is
 * header-only and depends only on obs/trace.hh (HintClass) so the
 * mem/prefetch/core layers can include it without a link dependency
 * on the controller.
 */

#ifndef GRP_ADAPTIVE_CONTROL_PLANE_HH
#define GRP_ADAPTIVE_CONTROL_PLANE_HH

#include <array>
#include <cstdint>

#include "obs/trace.hh"

namespace grp
{
namespace adaptive
{

/** Number of obs::HintClass values (array extent for per-class
 *  state). */
constexpr std::size_t kNumClasses =
    static_cast<std::size_t>(obs::HintClass::Stride) + 1;

/** Where a prefetch fill lands in the L2 recency stack. */
enum class InsertPos : uint8_t
{
    Lru, ///< Below every live line (paper default, minimal pollution).
    Mid, ///< Halfway up the recency stack.
    Mru, ///< Most recently used (maximal protection).
};

inline const char *
toString(InsertPos pos)
{
    switch (pos) {
      case InsertPos::Lru: return "lru";
      case InsertPos::Mid: return "mid";
      case InsertPos::Mru: return "mru";
    }
    return "?";
}

/** The knob bundle for one hint class. Defaults reproduce the
 *  static (controller-less) hardware exactly. */
struct ClassKnobs
{
    /** Max spatial region window in blocks (power of two). */
    unsigned regionBlockCap = 64;
    /** L2 insertion position for this class's fills. */
    InsertPos insert = InsertPos::Lru;
    /** Dequeue tier in the prefetch queue; tiers drain high to low. */
    uint8_t priority = 1;
    /** Max pointer-recursion depth (255 = uncapped). */
    uint8_t ptrDepthCap = 255;
};

/** Per-hint-class knob table read by the prefetch hardware. */
class ControlPlane
{
  public:
    ClassKnobs &
    knobs(obs::HintClass cls)
    {
        return knobs_[static_cast<std::size_t>(cls)];
    }

    const ClassKnobs &
    knobs(obs::HintClass cls) const
    {
        return knobs_[static_cast<std::size_t>(cls)];
    }

    unsigned
    regionBlockCap(obs::HintClass cls) const
    {
        return knobs(cls).regionBlockCap;
    }

    InsertPos
    insertPos(obs::HintClass cls) const
    {
        return knobs(cls).insert;
    }

    uint8_t
    priority(obs::HintClass cls) const
    {
        return knobs(cls).priority;
    }

    uint8_t
    ptrDepthCap(obs::HintClass cls) const
    {
        return knobs(cls).ptrDepthCap;
    }

    /** Highest priority tier any class currently holds (bounds the
     *  queue's tier scan). */
    uint8_t
    maxPriority() const
    {
        uint8_t max = 0;
        for (const ClassKnobs &k : knobs_)
            if (k.priority > max)
                max = k.priority;
        return max;
    }

  private:
    std::array<ClassKnobs, kNumClasses> knobs_{};
};

} // namespace adaptive
} // namespace grp

#endif // GRP_ADAPTIVE_CONTROL_PLANE_HH
