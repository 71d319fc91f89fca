/**
 * @file
 * The `.grpbin` binary flight-recorder trace container.
 *
 * The one on-disk encoding of the prefetch lifecycle trace, and of
 * the access-stream capture: varint-encoded, delta-timestamped
 * binary records (about 7 B each) in a self-describing container,
 * cheap enough to leave on at paper-scale (200M-instruction) windows,
 * with offline tooling doing the heavy lifting. Two stream kinds
 * share the container:
 *
 *  - Lifecycle (kind 0): every lifecycle event type, field for field
 *    (jsonlLine() in obs/trace_reader renders a decoded record as
 *    text; `grptrace --jsonl` prints a whole trace that way).
 *  - Access (kind 1): the RefId-tagged demand-access stream the CPU
 *    consumed, recorded for trace-driven replay (src/harness/capture).
 *
 * Container layout (all integers LEB128 varints unless noted):
 *
 *   header   "GRPB", u8 version, u8 kind, u16 reserved (zero)
 *            meta: n, then n x (key string, value string)
 *            tables: t, then t x (s, then s x string)
 *            (strings are varint length + bytes; table 0 names the
 *            record tags, so readers never depend on enum numbering)
 *   body     records; tag bytes below 0xFE index table 0. Lifecycle
 *            streams pack the hint class into the tag byte — tag =
 *            hint_index * |table 0| + event_index, decodable from the
 *            table sizes alone (hint 0 is "none") — and delta-encode both
 *            timestamps (modular delta from the previous record's
 *            tick) and addresses (zigzag delta from the previous
 *            record's address — region prefetching touches
 *            near-sequential blocks, so most deltas fit one byte; the
 *            address base resets to 0 at every checkpoint so an
 *            indexed seek can prime it without reading the prefix)
 *   0xFE     checkpoint: key (cumulative tick / op count), record
 *            index, warm-record count, then per-event cumulative
 *            record counts (one per table-0 entry) — a seekable
 *            snapshot: decoding may resume at any checkpoint with the
 *            delta clock primed from `key`
 *   0xFF     footer: checkpoint directory (offset, key, record index
 *            per entry), total records, final key
 *   trailer  u64 LE footer offset, "GRPE" (8+4 fixed bytes)
 *
 * The trailer doubles as the finalize marker: a file without it was
 * truncated (crash, kill, or a stale .tmp) and readers report that as
 * a distinct condition while still scanning the intact prefix.
 */

#ifndef GRP_OBS_BINTRACE_HH
#define GRP_OBS_BINTRACE_HH

#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/trace.hh"
#include "obs/trace_reader.hh"
#include "sim/types.hh"

namespace grp
{
namespace obs
{
namespace bintrace
{

constexpr char kMagic[4] = {'G', 'R', 'P', 'B'};
constexpr char kEndMagic[4] = {'G', 'R', 'P', 'E'};
constexpr uint8_t kVersion = 1;
/** Trailer bytes: u64 footer offset + end magic. */
constexpr size_t kTrailerBytes = 8 + 4;

/** What the record stream carries. */
enum class StreamKind : uint8_t
{
    Lifecycle = 0, ///< Prefetch lifecycle events (obs/trace.hh).
    Access = 1,    ///< RefId-tagged CPU access stream (replay).
};

/** Reserved tag bytes (real record tags index string table 0). */
constexpr uint8_t kCheckpointTag = 0xFE;
constexpr uint8_t kFooterTag = 0xFF;

/** Records between checkpoints (the writer's default cadence). */
constexpr uint64_t kDefaultCheckpointInterval = 8192;

/** Lifecycle record field-presence flags (the fields jsonlLine()
 *  omits at their default values; the hint class needs no flag — it
 *  lives in the tag byte, with index 0 meaning "none"). */
enum LifecycleFlags : uint8_t
{
    kHasAddr = 1 << 0,
    kHasChannel = 1 << 1,
    kHasExtra = 1 << 2,
    kHasSite = 1 << 3,
    kIsWarm = 1 << 4,
    kIsCarry = 1 << 5,
};

/** Append @p value to @p buf as LEB128; returns bytes written
 *  (at most 10). */
size_t putVarint(uint8_t *buf, uint64_t value);

/** Decode one LEB128 varint from [@p p, @p end); advances @p p.
 *  Returns false on truncation or overlong (> 10 byte) input. */
bool readVarint(const uint8_t *&p, const uint8_t *end, uint64_t &value);

/** Zigzag-fold a modular difference so small negative deltas encode
 *  as small varints (0, -1, 1, -2, ... -> 0, 1, 2, 3, ...). */
inline uint64_t
zigzag(uint64_t delta)
{
    const int64_t d = static_cast<int64_t>(delta);
    return (static_cast<uint64_t>(d) << 1) ^
           static_cast<uint64_t>(d >> 63);
}

/** Inverse of zigzag(). */
inline uint64_t
unzigzag(uint64_t value)
{
    return (value >> 1) ^ (~(value & 1) + 1);
}

/** One checkpoint directory entry. */
struct CheckpointRef
{
    uint64_t offset = 0; ///< Byte offset of the 0xFE tag.
    /** Cumulative position key: the delta-clock value (lifecycle:
     *  tick of the preceding record; access: ops so far). */
    uint64_t key = 0;
    uint64_t recordIndex = 0; ///< Records before the checkpoint.
};

/** Parsed container header + footer (not the records themselves). */
struct Container
{
    uint8_t version = 0;
    StreamKind kind = StreamKind::Lifecycle;
    std::vector<std::pair<std::string, std::string>> meta;
    std::vector<std::vector<std::string>> tables;
    size_t bodyOffset = 0; ///< First record byte.
    /** The finalize trailer was present and consistent. */
    bool finalized = false;
    size_t footerOffset = 0; ///< Valid iff finalized.
    std::vector<CheckpointRef> checkpoints; ///< Iff finalized.
    uint64_t totalRecords = 0;              ///< Iff finalized.
    uint64_t finalKey = 0;                  ///< Iff finalized.

    /** First meta value for @p key, if any. */
    std::optional<std::string> metaValue(std::string_view key) const;
};

/**
 * Parse the header and (when the trailer is present) the footer.
 * Returns false only for structurally unusable input (bad magic,
 * corrupt header) with @p error set; a missing/inconsistent trailer
 * is NOT an error here — it parses with finalized == false so the
 * caller can scan the prefix and report truncation distinctly.
 */
bool parseContainer(std::string_view data, Container &out,
                    std::string *error);

/**
 * The streaming writer behind Tracer (lifecycle) and the capture
 * sidecar (access). Writes through an already-open stdio stream the
 * caller owns; finalize() must run before the stream is closed for
 * the file to carry the footer + trailer.
 */
class Writer
{
  public:
    /**
     * Writes the container header immediately.
     *
     * @param tables Table 0 must name the record tags.
     * @param checkpoint_interval Records between checkpoints (0
     *        disables checkpoints; the footer is still written).
     */
    Writer(std::FILE *out, StreamKind kind,
           std::vector<std::vector<std::string>> tables,
           std::vector<std::pair<std::string, std::string>> meta = {},
           uint64_t checkpoint_interval = kDefaultCheckpointInterval);

    Writer(const Writer &) = delete;
    Writer &operator=(const Writer &) = delete;

    /** Emit one lifecycle record (Lifecycle streams only). */
    void record(const TraceRecord &rec, Tick tick, bool warm);

    /** Emit one pre-encoded record (Access streams): @p tag indexes
     *  table 0, @p payload holds the already-varint-encoded fields,
     *  @p key_after is the cumulative position key (ops so far). */
    void rawRecord(uint8_t tag, const uint8_t *payload, size_t len,
                   uint64_t key_after);

    /** Write the checkpoint directory, footer and trailer. Records
     *  must not be emitted afterwards. Idempotent. */
    void finalize();

    uint64_t recordsWritten() const { return records_; }
    uint64_t bytesWritten() const { return bytes_; }

  private:
    void emit(const uint8_t *buf, size_t len);
    void maybeCheckpoint();

    std::FILE *out_;
    StreamKind kind_;
    /** |table 0|: the modulus of the joint (hint, event) tag byte. */
    size_t eventCount_;
    uint64_t interval_;
    uint64_t sinceCheckpoint_ = 0;
    uint64_t records_ = 0;
    uint64_t bytes_ = 0;
    uint64_t warmRecords_ = 0;
    uint64_t key_ = 0; ///< Delta clock (lifecycle) / op count (access).
    uint64_t addrKey_ = 0; ///< Address-delta base (lifecycle).
    std::vector<uint64_t> tagCounts_;
    std::vector<CheckpointRef> checkpoints_;
    bool finalized_ = false;
};

/**
 * Decode a lifecycle .grpbin into TraceLines. Input that is not a
 * lifecycle .grpbin gets one error and no lines. Unknown tags/hints
 * (a newer writer) skip the record with a "record N:" error; a
 * missing trailer sets truncated and adds one distinct, actionable
 * error, after scanning the intact prefix.
 */
TraceParseResult readLifecycle(std::string_view data);

/** Record filter for the indexed query mode. */
struct QueryFilter
{
    /** Inclusive tick window; records outside it are skipped. */
    std::optional<Tick> fromTick;
    std::optional<Tick> toTick;
    /** Exact site match (-1 selects unattributed records). */
    std::optional<int64_t> site;
    std::optional<TraceEvent> event;
};

struct QueryResult
{
    std::vector<TraceLine> lines;
    /** Records actually decoded (< total when the index seeked). */
    uint64_t recordsScanned = 0;
    /** The checkpoint directory was used to skip the prefix. */
    bool seeked = false;
    std::vector<std::string> errors;
    bool truncated = false;
};

/**
 * Scan @p data for records matching @p filter. With @p use_index and
 * a finalized file whose filter has a fromTick bound, decoding starts
 * at the last checkpoint at or before the window instead of at the
 * first record, and stops once past toTick.
 */
QueryResult query(std::string_view data, const QueryFilter &filter,
                  bool use_index = true);

} // namespace bintrace
} // namespace obs
} // namespace grp

#endif // GRP_OBS_BINTRACE_HH
