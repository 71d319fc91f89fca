/**
 * @file
 * Prefetch lifecycle events: the record of one occurrence, the one
 * call that accounts it (LifecycleFold), and the trace sink (Tracer).
 *
 * LifecycleFold::note() is the only writer of the registry counters
 * and per-hint-class counts a lifecycle event feeds; it hands the
 * same record to the tracer at traceLevelOf(event) and to the site
 * profiler, so every prefetch counter, site-profile column and trace
 * funnel is a fold of one record stream (docs/OBSERVABILITY.md
 * tabulates event -> counters -> site column -> level).
 *
 * The per-thread tracer records each prefetch's arc (hint trigger,
 * queue enqueue / drop, channel issue vs. demand-priority stall,
 * fill, first-use or evicted-unused) as a .grpbin flight-recorder
 * stream (obs/bintrace). Per-class accuracy and prefetch-to-use
 * distance (the paper's Table 5 attribution claims) can be
 * recomputed from a level-2 trace. With tracing off (level 0, the
 * default) the fold's level check is one predictable compare per
 * event.
 *
 * Event levels:
 *  1 — lifecycle: issue, fill, firstUse, evictedUnused
 *  2 — queue: hintTrigger, enqueue, drop, filtered; pollution
 *      attribution: evictVictim, pollutionMiss (shadow tags);
 *      adaptive controller knob moves: ctrlTransition
 *  3 — per-cycle: demand-priority / MSHR-reservation stalls
 */

#ifndef GRP_OBS_TRACE_HH
#define GRP_OBS_TRACE_HH

#include <array>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "sim/stats.hh"
#include "sim/types.hh"

namespace grp
{

class EventQueue;

namespace obs
{

namespace bintrace
{
class Writer;
}

/** Whether the Tracer accepts @p path: a "*.grpbin" file, or "-"
 *  for stdout. */
bool isTracePath(const std::string &path);

/** The lifecycle .grpbin string tables: table 0 maps tag bytes to
 *  event names, table 1 maps hint indices to class names. */
std::vector<std::vector<std::string>> lifecycleTables();

/** Which prefetch source / hint class produced a candidate. */
enum class HintClass : uint8_t
{
    None = 0,  ///< No attribution (unhinted or unknown).
    Spatial,   ///< Spatial region (SRP region or `spatial` hint).
    Pointer,   ///< One-level pointer target.
    Recursive, ///< Recursive pointer chase target.
    Indirect,  ///< Indirect prefetch instruction target.
    Stride,    ///< Stride stream-buffer prefetch.
};

const char *toString(HintClass hint);

/** Lifecycle event types (see file comment for levels). */
enum class TraceEvent : uint8_t
{
    HintTrigger,   ///< An L2 miss reached an engine with its hints.
    Enqueue,       ///< A candidate window entered the prefetch queue.
    Drop,          ///< Queue overflow (or a throttle pause) dropped
                   ///< a window's remaining candidates.
    Issue,         ///< A prefetch request started on a DRAM channel.
    Stall,         ///< The prioritizer refused prefetches this cycle.
    Filtered,      ///< A candidate was already present / in flight.
    Fill,          ///< A prefetch fill completed into the L2.
    FirstUse,      ///< A demand first touched a prefetched block.
    EvictedUnused, ///< A prefetched block was evicted untouched.
    EvictVictim,   ///< A prefetch fill evicted a live L2 block; the
                   ///< record carries the victim address and the
                   ///< responsible prefetch's hint/site (shadow-tag
                   ///< pollution attribution, level 2).
    PollutionMiss, ///< A demand miss the shadow tags classify as
                   ///< prefetch-caused; hint/site name the charged
                   ///< prefetch when the victim table attributed it.
    CtrlTransition, ///< The adaptive controller moved a knob for a
                    ///< hint class (level 2). The record reuses the
                    ///< channel field for the knob id (0 region
                    ///< size, 1 insert position, 2 queue priority,
                    ///< 3 pointer depth) and extra for the new
                    ///< ladder level (0..2).
};

const char *toString(TraceEvent event);

/** Trace level of each event type (see file comment). */
constexpr int
traceLevelOf(TraceEvent event)
{
    switch (event) {
      case TraceEvent::Issue:
      case TraceEvent::Fill:
      case TraceEvent::FirstUse:
      case TraceEvent::EvictedUnused:
        return 1;
      case TraceEvent::Stall:
        return 3;
      default:
        return 2;
    }
}

/** Largest fill-to-use distance (cycles) a FirstUse record's extra
 *  carries: the memory system clamps to it, which keeps every
 *  Distribution sampling the value bounded, and a trace reader
 *  reports a larger value as corrupt instead of sampling it. */
constexpr uint64_t kFillToUseCap = 65535;

/** A Stall record's extra: why the prioritizer refused prefetches.
 *  Value 1 (a queued demand without a demand MSHR) cannot occur and
 *  is retired; the others keep their values in existing traces. */
enum class StallReason : uint8_t { DemandInFlight = 0, MshrReserve = 2 };

/** One trace emission. Fields with default values are omitted from
 *  the output line. */
struct TraceRecord
{
    TraceRecord(TraceEvent event_, Addr addr_ = 0,
                HintClass hint_ = HintClass::None, int channel_ = -1,
                int64_t extra_ = -1, bool carryover_ = false,
                RefId site_ = kInvalidRefId)
        : event(event_), addr(addr_), hint(hint_), channel(channel_),
          extra(extra_), carryover(carryover_), site(site_)
    {}

    TraceEvent event;
    Addr addr;
    HintClass hint;
    int channel;
    /** Event-specific payload: candidate count for Enqueue/Drop,
     *  pointer depth for Issue, fill-to-use cycles for FirstUse, a
     *  StallReason for Stall. */
    int64_t extra;
    /** The record is attributed to the warmup era (fills whose
     *  request predates the measurement boundary, and first-uses of
     *  such fills). */
    bool carryover;
    /** Static reference ("PC") the event is attributed to; omitted
     *  from the line when invalid (hardware-discovered targets). */
    RefId site;
};

/**
 * Render one record as the canonical JSONL trace line (including the
 * trailing newline): the one text form of a lifecycle record, printed
 * by `grptrace --jsonl` and by its query mode.
 *
 * @return Bytes written into @p buf (capacity @p cap).
 */
size_t formatTraceLine(char *buf, size_t cap, Tick tick,
                       const TraceRecord &rec, bool warm);

/** The per-thread .grpbin trace sink. */
class Tracer
{
  public:
    /**
     * The calling thread's tracer. Per-thread rather than
     * process-wide so concurrent sweep jobs (one job per pool
     * thread) trace independently; each run opens, flips and closes
     * its own sink via ScopedTrace.
     */
    static Tracer &instance();

    Tracer() = default;
    ~Tracer();
    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    /**
     * Start writing to @p path; enables emission once a level > 0 is
     * set. Returns false (with a warning) when @p path fails
     * isTracePath() or the file cannot be opened. The stream
     * gets a large (256 KB) output buffer so records pay one memcpy,
     * not one syscall, each.
     *
     * Crash safety: the trace is written to "<path>.tmp" and
     * published with one rename when close() finalizes it, like
     * every JSON artefact (obs/atomic_file) — readers never see a
     * partial file at @p path, and a crashed run leaves only the
     * .tmp behind. The sentinel path "-" streams to stdout instead
     * (no rename; the stream still carries its footer, so a piped
     * consumer sees a finalized container).
     */
    bool open(const std::string &path);

    /** Flush, finalize (footer), close and publish the sink; tracing
     *  reverts to disabled. Also runs on destruction, so buffered
     *  records are never lost. */
    void close();

    /** Records between checkpoints for subsequently opened
     *  sinks (0 disables checkpoints; default 8192). */
    void setCheckpointInterval(uint64_t records)
    {
        checkpointInterval_ = records;
    }

    void setLevel(int level) { level_ = level; }
    int level() const { return level_; }

    /** Cycle source for timestamps (cleared with nullptr). */
    void setClock(const EventQueue *events) { clock_ = events; }

    /** Mark records as warmup-era until flipped (the harness flips
     *  this at the measurement boundary). */
    void setWarmup(bool warmup) { warmup_ = warmup; }
    bool warmup() const { return warmup_; }

    /** Cheap per-site guard: a sink is open and @p lvl is enabled. */
    bool
    enabled(int lvl) const
    {
        return out_ != nullptr && lvl <= level_;
    }

    /** Emit one record (caller must have checked enabled()). */
    void record(const TraceRecord &rec);

    uint64_t recordsWritten() const { return records_; }

  private:
    /** stdio stream buffer size; large enough that --trace runs do
     *  a filesystem write every few thousand records, not every
     *  record. */
    static constexpr size_t kStreamBufBytes = 256 * 1024;

    std::FILE *out_ = nullptr;
    /** Backing storage handed to setvbuf(); must outlive out_. */
    std::unique_ptr<char[]> iobuf_;
    /** The encoder over out_ (owns no stream). */
    std::unique_ptr<bintrace::Writer> bin_;
    /** Writing to stdout ("-"): flush instead of close + publish. */
    bool toStdout_ = false;
    /** Publication target; the open stream writes publishPath_+".tmp". */
    std::string publishPath_;
    uint64_t checkpointInterval_ = 8192;
    int level_ = 0;
    const EventQueue *clock_ = nullptr;
    bool warmup_ = false;
    uint64_t records_ = 0;
};

/** Measured-window prefetch fills and first uses of one hint class. */
struct ClassCounts
{
    uint64_t fills = 0;
    uint64_t useful = 0;
};

/** ClassCounts indexed by HintClass. */
using ClassCountTable =
    std::array<ClassCounts, static_cast<std::size_t>(HintClass::Stride) + 1>;

/** The one accounting path for lifecycle records. Counters live in
 *  the emitting component's StatGroup (mem.*, regionQueue.*), bound
 *  once; events that feed no counter need no binding. fold() is the
 *  event -> counter table. */
class LifecycleFold
{
  public:
    /** Memory-side events; per-class fills and uses go to @p by_class. */
    void bindMemory(StatGroup &mem, ClassCountTable &by_class);
    /** Shadow-tag events, bound only with shadow tags on. */
    void bindPollution(StatGroup &mem);
    /** Queue drops. */
    void bindQueue(StatGroup &queue);
    /** Adaptive-controller knob moves, counted per knob id. */
    void bindController(StatGroup &adaptive);

    /** Fold one occurrence of @p rec. The memory system folds
     *  @p count identical owed stall cycles at once; it defers them
     *  only while stalls are not traced, so the tracer still sees
     *  every stall. */
    void
    note(const TraceRecord &rec, uint64_t count = 1)
    {
        // The per-cycle event stays inline: a counter bump and a
        // level check (stalls feed no site column).
        if (rec.event == TraceEvent::Stall) {
            *(rec.extra == static_cast<int64_t>(StallReason::MshrReserve)
                  ? mshrThrottled_
                  : demandThrottled_) += count;
            Tracer &tracer = Tracer::instance();
            if (tracer.enabled(traceLevelOf(TraceEvent::Stall)))
                tracer.record(rec);
            return;
        }
        fold(rec);
    }

  private:
    void fold(const TraceRecord &rec);

    Counter *issued_ = nullptr;
    Counter *demandThrottled_ = nullptr;
    Counter *mshrThrottled_ = nullptr;
    Counter *filtered_ = nullptr;
    Counter *useful_ = nullptr;
    Counter *carryoverUseful_ = nullptr;
    Distribution *useDistance_ = nullptr;
    Counter *evictedUnused_ = nullptr;
    ClassCountTable *byClass_ = nullptr;
    Counter *victimsRecorded_ = nullptr;
    Counter *pollutionMisses_ = nullptr;
    Counter *pollutionAttributed_ = nullptr;
    Counter *pollutionUnattributed_ = nullptr;
    Counter *entriesDropped_ = nullptr;
    Counter *candidatesDropped_ = nullptr;
    /** Indexed by a CtrlTransition record's knob id (its channel). */
    std::array<Counter *, 4> transitions_{};
};

} // namespace obs
} // namespace grp

#endif // GRP_OBS_TRACE_HH
