/**
 * @file
 * Offline reading and analysis of prefetch lifecycle traces.
 *
 * The Tracer writes .grpbin (obs/bintrace); this module is the other
 * half of that contract: it decodes trace files back into records,
 * renders them as JSONL text, replays each block's lifecycle through
 * a small state
 * machine to check the invariants the simulator is supposed to
 * uphold (every fill was issued, every first-use had a fill, no
 * event touches a block that is not live), and recomputes the
 * per-hint-class and per-site accuracy/timeliness aggregates from
 * the raw events — independently of the simulator's own counters,
 * which is exactly what makes the cross-check worth having. The
 * `grptrace` CLI is the main consumer.
 */

#ifndef GRP_OBS_TRACE_READER_HH
#define GRP_OBS_TRACE_READER_HH

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "obs/trace.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace grp
{
namespace obs
{

/** Inverse of toString(TraceEvent); nullopt for unknown names. */
std::optional<TraceEvent> parseTraceEvent(const std::string &name);

/** Inverse of toString(HintClass); nullopt for unknown names. */
std::optional<HintClass> parseHintClass(const std::string &name);

/** One decoded trace record (absent fields keep the writer's
 *  omitted-value defaults). */
struct TraceLine
{
    Tick t = 0;
    TraceEvent event = TraceEvent::Issue;
    Addr addr = 0;
    HintClass hint = HintClass::None;
    int channel = -1;
    int64_t extra = -1;
    /** Attributed static reference, or -1 when the line had none. */
    int64_t site = -1;
    bool warm = false;
    bool carry = false;
};

/** The outcome of decoding one trace. */
struct TraceParseResult
{
    std::vector<TraceLine> lines;
    /** Why the input, or a record in it, could not be decoded.
     *  Records with unknown names are skipped ("record N: why"), not
     *  fatal; input that is not a .grpbin lifecycle trace gets one
     *  message and no lines. */
    std::vector<std::string> errors;
    /** The file itself could not be opened. */
    bool openFailed = false;
    /** The input had no finalize footer: the writer never closed it
     *  (crash / kill / stale .tmp). The intact prefix is still in
     *  lines, and errors carries one distinct, actionable message. */
    bool truncated = false;
};

/** Read the .grpbin lifecycle trace at @p path
 *  (bintrace::readLifecycle over the file's bytes). */
TraceParseResult readTraceFile(const std::string &path);

/** Render one record as its canonical JSONL line (with trailing
 *  newline) via formatTraceLine(). */
std::string jsonlLine(const TraceLine &line);

/** One lifecycle invariant violation found during replay. */
struct InvariantViolation
{
    size_t line = 0; ///< 1-based index into the parsed lines.
    std::string message;
};

/** Offline funnel aggregates for one hint class or one site
 *  (measured-window events only; warm* columns count warmup-era
 *  events separately, mirroring the simulator's attribution). */
struct FunnelStats
{
    uint64_t triggers = 0;
    uint64_t enqueued = 0;   ///< Candidate blocks (sum of counts).
    uint64_t dropped = 0;
    uint64_t issued = 0;
    uint64_t filtered = 0;
    uint64_t fills = 0;
    uint64_t useful = 0;
    uint64_t evictedUnused = 0;
    uint64_t warmFills = 0;
    uint64_t warmUseful = 0;
    /** Shadow-classified demand misses charged to this class/site. */
    uint64_t pollutionMisses = 0;

    /** Fill-to-first-use distances (the FirstUse extra field). */
    Distribution fillToUse;

    /** Useful / fills over the measured window. */
    double
    accuracy() const
    {
        return fills ? static_cast<double>(useful) /
                           static_cast<double>(fills)
                     : 0.0;
    }
};

/** Everything analyzeTrace() derives from a parsed trace. */
struct TraceAnalysis
{
    uint64_t records = 0;
    uint64_t warmupRecords = 0;
    /** Lifecycle violations, in line order (empty = trace is
     *  consistent). */
    std::vector<InvariantViolation> violations;
    /** Blocks still live (filled, neither used nor evicted) when the
     *  trace ended — expected at end of run, reported for context. */
    uint64_t liveAtEnd = 0;
    /** Issues still unfilled when the trace ended. */
    uint64_t inFlightAtEnd = 0;
    /** Enqueue events were present, so issue-coverage was checked. */
    bool coverageChecked = false;
    /** EvictVictim events were present (shadow tags were on), so
     *  pollution-attribution consistency was checked. */
    bool pollutionChecked = false;
    /** Adaptive-controller knob moves (CtrlTransition records). */
    uint64_t controllerTransitions = 0;

    std::map<HintClass, FunnelStats> byClass;
    /** Keyed by site id (-1 = unattributed). */
    std::map<int64_t, FunnelStats> bySite;
};

/**
 * Replay @p lines through the per-block lifecycle state machine and
 * recompute the funnel aggregates.
 *
 * Checked invariants:
 *  - a Fill must follow an Issue for the same block;
 *  - a FirstUse must hit a filled block (carry-flagged uses are
 *    exempt: their fill predates a stats reset);
 *  - an EvictedUnused must evict a filled block;
 *  - a block is never issued twice without an intervening
 *    use/eviction, and never filled twice;
 *  - when the trace contains Enqueue events (level >= 2), every
 *    non-stride Issue must fall inside a previously enqueued
 *    region window;
 *  - when the trace contains EvictVictim events (shadow tags on),
 *    every attributed PollutionMiss must name a block a prior
 *    EvictVictim recorded (and not yet consumed).
 */
TraceAnalysis analyzeTrace(const std::vector<TraceLine> &lines);

} // namespace obs
} // namespace grp

#endif // GRP_OBS_TRACE_READER_HH
