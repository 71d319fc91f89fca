/**
 * @file
 * Per-hint-site prefetch profiling.
 *
 * GRP's compiler/hardware cooperation operates at the granularity of
 * one annotated load: a static reference (RefId, the simulator's
 * "PC") whose hints gate an engine. The engine-level StatGroups
 * aggregate away exactly that axis, so this profiler keeps a table
 * keyed by (site, hint class) and accumulates the full funnel for
 * each one — hint triggers, candidates enqueued/dropped, prefetches
 * issued/filtered, fills, useful first-uses vs. evicted-unused, and
 * a fill-to-use latency Distribution. The table is the per-site
 * accuracy/timeliness feedback signal that runtime-guided throttling
 * (see ROADMAP.md) will consume, and it is what `grpsim
 * --site-profile` exports.
 *
 * The profiler is a sink of the lifecycle fold (obs/trace.hh): note()
 * gets the very record whose registry counters the fold bumps, and
 * the harness clears the table at the warmup/measurement boundary
 * alongside resetStats(), so summing any column over the sites
 * reconciles with the engine-level totals by construction. Channel
 * contention is a cost rather than a lifecycle event; it arrives
 * through noteContention().
 */

#ifndef GRP_OBS_SITE_PROFILE_HH
#define GRP_OBS_SITE_PROFILE_HH

#include <cstdint>
#include <functional>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "obs/trace.hh"
#include "sim/stats.hh"

namespace grp
{
namespace obs
{
class JsonWriter;
}
}
#include "sim/types.hh"

namespace grp
{
namespace obs
{

/** One (annotated load, hint class) table key. Unattributed
 *  candidates (hardware-discovered pointer targets, carryover uses)
 *  profile under site() == -1. */
struct SiteKey
{
    RefId ref = kInvalidRefId;
    HintClass hint = HintClass::None;

    /** The exported site id: the RefId, or -1 when unattributed. */
    int64_t
    site() const
    {
        return ref == kInvalidRefId ? -1 : static_cast<int64_t>(ref);
    }

    bool
    operator<(const SiteKey &other) const
    {
        if (ref != other.ref)
            return ref < other.ref;
        return hint < other.hint;
    }
};

/** The accumulated funnel for one site. */
struct SiteCounters
{
    uint64_t triggers = 0;      ///< Hint triggers observed.
    uint64_t enqueued = 0;      ///< Candidate blocks queued.
    uint64_t dropped = 0;       ///< Candidate blocks lost to overflow.
    uint64_t issued = 0;        ///< Prefetches started on a channel.
    uint64_t filtered = 0;      ///< Candidates already present.
    uint64_t fills = 0;         ///< Measured-window fills completed.
    uint64_t useful = 0;        ///< Measured-window first-uses.
    uint64_t evictedUnused = 0; ///< Fills evicted untouched.
    uint64_t warmupFills = 0;   ///< Fills of warmup-era requests.
    uint64_t warmupUseful = 0;  ///< First-uses of warmup-era fills.
    /** Demand misses the shadow tags charged to this site's evictions
     *  (counterfactual pollution cost). */
    uint64_t pollutionCaused = 0;
    /** Demand request-cycles queued behind this site's in-flight
     *  prefetch transfers (channel contention cost). */
    uint64_t contentionCycles = 0;

    /** Fill-to-first-use latency, measured-window samples only. */
    Distribution fillToUse;

    /** Useful / issued for this site (0 when nothing was issued). */
    double
    accuracy() const
    {
        return issued ? static_cast<double>(useful) /
                            static_cast<double>(issued)
                      : 0.0;
    }

    /** Fills that never helped: evicted unused, the ranking signal
     *  for the worst-offender report. */
    uint64_t wasted() const { return evictedUnused; }

    /** Counterfactual net benefit in cycles: hits earned minus hits
     *  destroyed, each priced at @p miss_penalty (a memory round
     *  trip), minus cycles demands queued behind this site's
     *  transfers. Negative: the site costs more than it saves. */
    int64_t
    netCycles(uint64_t miss_penalty) const
    {
        const int64_t delta = static_cast<int64_t>(useful) -
                              static_cast<int64_t>(pollutionCaused);
        return delta * static_cast<int64_t>(miss_penalty) -
               static_cast<int64_t>(contentionCycles);
    }
};

/** The per-thread per-site profiler (mirrors Tracer's lifecycle:
 *  the harness enables it for one run and clears it at the
 *  measurement boundary; per-thread so concurrent sweep jobs
 *  profile independently). */
class SiteProfiler
{
  public:
    static SiteProfiler &instance();

    SiteProfiler() : stats_("siteProfile") {}
    SiteProfiler(const SiteProfiler &) = delete;
    SiteProfiler &operator=(const SiteProfiler &) = delete;

    void setEnabled(bool enabled) { enabled_ = enabled; }
    bool enabled() const { return enabled_; }

    /** Wipe the table and the aggregate stats (does not change
     *  enabled()); the harness calls this at the warmup boundary so
     *  the table covers exactly the measured window. */
    void clear();

    /** Fold one lifecycle record into its site's column; records no
     *  column counts (stalls, victim evictions, unattributed
     *  pollution misses, controller moves) are ignored. */
    void note(const TraceRecord &rec);
    /** Demand requests spent @p waiting request-cycles queued behind
     *  the site's in-flight prefetch transfers. The DRAM backend
     *  books these lazily, so the column is current only once the
     *  "dram" stat group has synced: the runner reads "dram" first
     *  (it registers before "siteProfile"), and the warm-up boundary
     *  resets the memory system's stats before clear(). */
    void noteContention(RefId ref, HintClass hint, uint64_t waiting);

    /** Cycles one avoided (or suffered) miss is worth in the
     *  net-cycles score; the harness sets it to the configured DRAM
     *  row-conflict + transfer time. */
    void setMissPenalty(uint64_t cycles) { missPenalty_ = cycles; }
    uint64_t missPenalty() const { return missPenalty_; }

    size_t siteCount() const { return table_.size(); }
    const std::map<SiteKey, SiteCounters> &sites() const
    {
        return table_;
    }

    /** Counters for one site, or nullptr when never seen. */
    const SiteCounters *find(RefId ref, HintClass hint) const;

    /** Aggregate StatGroup ("siteProfile.*"); the harness registers
     *  it into the StatRegistry while profiling is active, so the
     *  registry JSON carries the profile totals. */
    StatGroup &stats() { return stats_; }

    /** Sites ranked worst-first: most wasted fills, then fewest
     *  useful per issued. */
    std::vector<const std::map<SiteKey, SiteCounters>::value_type *>
    ranked() const;

    /** One JSON document (schema grp-site-profile-v1): ranked site
     *  array plus the aggregate totals. @p extra, when set, appends
     *  top-level members (the harness adds the partial-run marker);
     *  absent, the document matches the historical format
     *  byte-for-byte. */
    void exportJson(std::ostream &os,
                    const std::function<void(JsonWriter &)> &extra =
                        {}) const;
    bool exportJsonFile(const std::string &path,
                        const std::function<void(JsonWriter &)>
                            &extra = {}) const;

    /** Human-readable worst-offenders table (top @p top_n sites). */
    void writeReport(std::ostream &os, size_t top_n) const;

  private:
    SiteCounters &entry(RefId ref, HintClass hint);

    bool enabled_ = false;
    std::map<SiteKey, SiteCounters> table_;
    StatGroup stats_;
    /** Default: 120-cycle row conflict + 32-cycle transfer. */
    uint64_t missPenalty_ = 152;
};

} // namespace obs
} // namespace grp

#endif // GRP_OBS_SITE_PROFILE_HH
