#include "obs/bintrace.hh"

#include <cstring>

#include "sim/logging.hh"

namespace grp
{
namespace obs
{
namespace bintrace
{

namespace
{

/** Largest encodable record: tag + flags + 6 varints of <= 10 bytes. */
constexpr size_t kMaxRecordBytes = 2 + 6 * 10;

void
putString(std::vector<uint8_t> &out, std::string_view text)
{
    uint8_t buf[10];
    const size_t n = putVarint(buf, text.size());
    out.insert(out.end(), buf, buf + n);
    out.insert(out.end(), text.begin(), text.end());
}

bool
readString(const uint8_t *&p, const uint8_t *end, std::string &out)
{
    uint64_t len = 0;
    if (!readVarint(p, end, len) ||
        len > static_cast<uint64_t>(end - p))
        return false;
    out.assign(reinterpret_cast<const char *>(p),
               static_cast<size_t>(len));
    p += len;
    return true;
}

/** The four fixed header bytes after the magic. */
constexpr size_t kFixedHeaderBytes = 4 + 1 + 1 + 2;

} // namespace

size_t
putVarint(uint8_t *buf, uint64_t value)
{
    size_t n = 0;
    do {
        uint8_t byte = value & 0x7f;
        value >>= 7;
        if (value)
            byte |= 0x80;
        buf[n++] = byte;
    } while (value);
    return n;
}

bool
readVarint(const uint8_t *&p, const uint8_t *end, uint64_t &value)
{
    value = 0;
    unsigned shift = 0;
    while (p != end && shift < 70) {
        const uint8_t byte = *p++;
        value |= static_cast<uint64_t>(byte & 0x7f) << shift;
        if (!(byte & 0x80))
            return true;
        shift += 7;
    }
    return false;
}

std::optional<std::string>
Container::metaValue(std::string_view key) const
{
    for (const auto &[k, v] : meta) {
        if (k == key)
            return v;
    }
    return std::nullopt;
}

bool
parseContainer(std::string_view data, Container &out,
               std::string *error)
{
    auto fail = [&](const char *why) {
        if (error)
            *error = why;
        return false;
    };
    if (data.size() < 4 || std::memcmp(data.data(), kMagic, 4) != 0)
        return fail("not a .grpbin trace (bad magic)");
    if (data.size() < kFixedHeaderBytes)
        return fail("header truncated");
    const uint8_t *base =
        reinterpret_cast<const uint8_t *>(data.data());
    const uint8_t *end = base + data.size();
    const uint8_t *p = base + 4;
    out.version = *p++;
    if (out.version != kVersion)
        return fail("unsupported .grpbin version");
    const uint8_t kind = *p++;
    if (kind > static_cast<uint8_t>(StreamKind::Access))
        return fail("unknown stream kind");
    out.kind = static_cast<StreamKind>(kind);
    p += 2; // reserved

    uint64_t n = 0;
    if (!readVarint(p, end, n) || n > 1024)
        return fail("corrupt meta section");
    out.meta.clear();
    for (uint64_t i = 0; i < n; ++i) {
        std::string key, value;
        if (!readString(p, end, key) || !readString(p, end, value))
            return fail("corrupt meta section");
        out.meta.emplace_back(std::move(key), std::move(value));
    }

    uint64_t tables = 0;
    if (!readVarint(p, end, tables) || tables > 16)
        return fail("corrupt string tables");
    out.tables.clear();
    for (uint64_t t = 0; t < tables; ++t) {
        uint64_t strings = 0;
        if (!readVarint(p, end, strings) || strings > 253)
            return fail("corrupt string tables");
        std::vector<std::string> table;
        for (uint64_t s = 0; s < strings; ++s) {
            std::string name;
            if (!readString(p, end, name))
                return fail("corrupt string tables");
            table.push_back(std::move(name));
        }
        out.tables.push_back(std::move(table));
    }
    if (out.tables.empty() || out.tables[0].empty())
        return fail("missing record-tag table");
    out.bodyOffset = static_cast<size_t>(p - base);

    // The trailer, when present and consistent, locates the footer.
    out.finalized = false;
    if (data.size() < out.bodyOffset + kTrailerBytes ||
        std::memcmp(end - 4, kEndMagic, 4) != 0)
        return true; // Unfinalized: scannable prefix only.
    uint64_t footer_offset = 0;
    std::memcpy(&footer_offset, end - kTrailerBytes, 8);
    if (footer_offset < out.bodyOffset ||
        footer_offset >= data.size() - kTrailerBytes ||
        base[footer_offset] != kFooterTag)
        return true; // Trailer bytes are not a consistent finalize.

    const uint8_t *f = base + footer_offset + 1;
    const uint8_t *fend = end - kTrailerBytes;
    uint64_t checkpoints = 0;
    if (!readVarint(f, fend, checkpoints))
        return true;
    std::vector<CheckpointRef> refs;
    for (uint64_t i = 0; i < checkpoints; ++i) {
        CheckpointRef ref;
        if (!readVarint(f, fend, ref.offset) ||
            !readVarint(f, fend, ref.key) ||
            !readVarint(f, fend, ref.recordIndex))
            return true;
        // An indexed seek jumps to the offset: it must lie in the body.
        if (ref.offset < out.bodyOffset || ref.offset >= footer_offset)
            return true;
        refs.push_back(ref);
    }
    uint64_t total = 0, final_key = 0;
    if (!readVarint(f, fend, total) ||
        !readVarint(f, fend, final_key))
        return true;
    out.footerOffset = static_cast<size_t>(footer_offset);
    out.checkpoints = std::move(refs);
    out.totalRecords = total;
    out.finalKey = final_key;
    out.finalized = true;
    return true;
}

Writer::Writer(std::FILE *out, StreamKind kind,
               std::vector<std::vector<std::string>> tables,
               std::vector<std::pair<std::string, std::string>> meta,
               uint64_t checkpoint_interval)
    : out_(out), kind_(kind), interval_(checkpoint_interval)
{
    panic_if(tables.empty() || tables[0].empty(),
             "bintrace writer needs a record-tag table");
    eventCount_ = tables[0].size();
    panic_if(kind == StreamKind::Lifecycle &&
                 (tables.size() < 2 ||
                  eventCount_ * tables[1].size() >= kCheckpointTag),
             "lifecycle tag space (|events| x |hints|) must fit "
             "below the checkpoint tag");
    tagCounts_.assign(eventCount_, 0);

    std::vector<uint8_t> header;
    header.insert(header.end(), kMagic, kMagic + 4);
    header.push_back(kVersion);
    header.push_back(static_cast<uint8_t>(kind));
    header.push_back(0);
    header.push_back(0);
    uint8_t buf[10];
    size_t n = putVarint(buf, meta.size());
    header.insert(header.end(), buf, buf + n);
    for (const auto &[key, value] : meta) {
        putString(header, key);
        putString(header, value);
    }
    n = putVarint(buf, tables.size());
    header.insert(header.end(), buf, buf + n);
    for (const auto &table : tables) {
        n = putVarint(buf, table.size());
        header.insert(header.end(), buf, buf + n);
        for (const std::string &name : table)
            putString(header, name);
    }
    emit(header.data(), header.size());
}

void
Writer::emit(const uint8_t *buf, size_t len)
{
    std::fwrite(buf, 1, len, out_);
    bytes_ += len;
}

void
Writer::record(const TraceRecord &rec, Tick tick, bool warm)
{
    panic_if(kind_ != StreamKind::Lifecycle,
             "lifecycle record on a non-lifecycle stream");
    uint8_t buf[kMaxRecordBytes];
    const uint8_t event_tag = static_cast<uint8_t>(rec.event);
    // The tag byte jointly encodes (hint, event); hint index 0 is
    // HintClass::None — exactly the records whose JSONL line omits
    // the hint field, so no presence flag is needed.
    buf[0] = static_cast<uint8_t>(
        static_cast<size_t>(rec.hint) * eventCount_ + event_tag);
    uint8_t flags = 0;
    if (rec.addr)
        flags |= kHasAddr;
    if (rec.channel >= 0)
        flags |= kHasChannel;
    if (rec.extra >= 0)
        flags |= kHasExtra;
    if (rec.site != kInvalidRefId)
        flags |= kHasSite;
    if (warm)
        flags |= kIsWarm;
    if (rec.carryover)
        flags |= kIsCarry;
    buf[1] = flags;
    // Modular delta: decoding adds it back mod 2^64, so even a
    // non-monotonic clock round-trips exactly.
    size_t n = 2 + putVarint(buf + 2, tick - key_);
    if (flags & kHasAddr) {
        // Zigzag delta from the previous record's address: region
        // prefetching walks near-sequential blocks, so most deltas
        // fit one byte where a raw address takes five.
        n += putVarint(buf + n, zigzag(rec.addr - addrKey_));
        addrKey_ = rec.addr;
    }
    if (flags & kHasChannel)
        n += putVarint(buf + n, static_cast<uint64_t>(rec.channel));
    if (flags & kHasExtra)
        n += putVarint(buf + n, static_cast<uint64_t>(rec.extra));
    if (flags & kHasSite)
        n += putVarint(buf + n, rec.site);
    emit(buf, n);
    key_ = tick;
    ++records_;
    if (event_tag < tagCounts_.size())
        ++tagCounts_[event_tag];
    if (warm)
        ++warmRecords_;
    ++sinceCheckpoint_;
    maybeCheckpoint();
}

void
Writer::rawRecord(uint8_t tag, const uint8_t *payload, size_t len,
                  uint64_t key_after)
{
    uint8_t head = tag;
    emit(&head, 1);
    emit(payload, len);
    key_ = key_after;
    ++records_;
    if (tag < tagCounts_.size())
        ++tagCounts_[tag];
    ++sinceCheckpoint_;
    maybeCheckpoint();
}

void
Writer::maybeCheckpoint()
{
    if (!interval_ || sinceCheckpoint_ < interval_)
        return;
    sinceCheckpoint_ = 0;
    // Indexed seeks prime the address base to 0 at a checkpoint, so
    // the writer must reset it too (the next record pays one full
    // address, every later one is a delta again).
    addrKey_ = 0;
    checkpoints_.push_back({bytes_, key_, records_});
    std::vector<uint8_t> cp;
    cp.push_back(kCheckpointTag);
    uint8_t buf[10];
    size_t n = putVarint(buf, key_);
    cp.insert(cp.end(), buf, buf + n);
    n = putVarint(buf, records_);
    cp.insert(cp.end(), buf, buf + n);
    n = putVarint(buf, warmRecords_);
    cp.insert(cp.end(), buf, buf + n);
    n = putVarint(buf, tagCounts_.size());
    cp.insert(cp.end(), buf, buf + n);
    for (uint64_t count : tagCounts_) {
        n = putVarint(buf, count);
        cp.insert(cp.end(), buf, buf + n);
    }
    emit(cp.data(), cp.size());
}

void
Writer::finalize()
{
    if (finalized_)
        return;
    finalized_ = true;
    const uint64_t footer_offset = bytes_;
    std::vector<uint8_t> footer;
    footer.push_back(kFooterTag);
    uint8_t buf[10];
    size_t n = putVarint(buf, checkpoints_.size());
    footer.insert(footer.end(), buf, buf + n);
    for (const CheckpointRef &ref : checkpoints_) {
        n = putVarint(buf, ref.offset);
        footer.insert(footer.end(), buf, buf + n);
        n = putVarint(buf, ref.key);
        footer.insert(footer.end(), buf, buf + n);
        n = putVarint(buf, ref.recordIndex);
        footer.insert(footer.end(), buf, buf + n);
    }
    n = putVarint(buf, records_);
    footer.insert(footer.end(), buf, buf + n);
    n = putVarint(buf, key_);
    footer.insert(footer.end(), buf, buf + n);
    uint8_t trailer[kTrailerBytes];
    std::memcpy(trailer, &footer_offset, 8);
    std::memcpy(trailer + 8, kEndMagic, 4);
    footer.insert(footer.end(), trailer, trailer + kTrailerBytes);
    emit(footer.data(), footer.size());
}

namespace
{

/** Per-stream decode context resolved once from the string tables:
 *  tag -> TraceEvent and hint index -> HintClass, with unknown names
 *  kept as nullopt so newer writers degrade to skipped records. */
struct LifecycleTables
{
    std::vector<std::optional<TraceEvent>> events;
    std::vector<std::optional<HintClass>> hints;
};

LifecycleTables
resolveTables(const Container &container)
{
    LifecycleTables tables;
    for (const std::string &name : container.tables[0])
        tables.events.push_back(parseTraceEvent(name));
    if (container.tables.size() > 1) {
        for (const std::string &name : container.tables[1])
            tables.hints.push_back(parseHintClass(name));
    }
    return tables;
}

enum class DecodeStatus
{
    Ok,        ///< One record decoded into the output line.
    Skipped,   ///< Valid framing, unknown name; error recorded.
    Checkpoint,///< Consumed a checkpoint record.
    Footer,    ///< Reached the footer tag; scanning is done.
    Truncated, ///< Ran out of bytes mid-record.
};

/**
 * Decode one body item at @p p, advancing it. @p key is the delta
 * clock and @p addr_key the address-delta base (both primed when
 * seeking: key from the checkpoint directory, addr_key to 0 — the
 * writer resets its base at every checkpoint). @p index counts
 * records for error messages.
 */
DecodeStatus
decodeOne(const uint8_t *&p, const uint8_t *end,
          const LifecycleTables &tables, uint64_t &key,
          uint64_t &addr_key, uint64_t index, TraceLine &line,
          std::string *error)
{
    const uint8_t tag = *p++;
    if (tag == kFooterTag)
        return DecodeStatus::Footer;
    if (tag == kCheckpointTag) {
        uint64_t cp_key, records, warm, counts;
        if (!readVarint(p, end, cp_key) ||
            !readVarint(p, end, records) ||
            !readVarint(p, end, warm) || !readVarint(p, end, counts))
            return DecodeStatus::Truncated;
        for (uint64_t i = 0; i < counts; ++i) {
            uint64_t count;
            if (!readVarint(p, end, count))
                return DecodeStatus::Truncated;
        }
        addr_key = 0; // Mirrors the writer's checkpoint reset.
        return DecodeStatus::Checkpoint;
    }
    if (p == end)
        return DecodeStatus::Truncated;
    const uint8_t flags = *p++;
    uint64_t dt = 0;
    if (!readVarint(p, end, dt))
        return DecodeStatus::Truncated;
    key += dt;
    line = TraceLine{};
    line.t = key;
    uint64_t value = 0;
    if (flags & kHasAddr) {
        if (!readVarint(p, end, value))
            return DecodeStatus::Truncated;
        addr_key += unzigzag(value);
        line.addr = addr_key;
    }
    // The tag jointly encodes (hint, event) modulo the file's own
    // event-table size, so the split is well-defined even for tables
    // a newer writer grew.
    const size_t event_index = tag % tables.events.size();
    const size_t hint_index = tag / tables.events.size();
    if (flags & kHasChannel) {
        if (!readVarint(p, end, value))
            return DecodeStatus::Truncated;
        line.channel = static_cast<int>(value);
    }
    if (flags & kHasExtra) {
        if (!readVarint(p, end, value))
            return DecodeStatus::Truncated;
        line.extra = static_cast<int64_t>(value);
    }
    if (flags & kHasSite) {
        if (!readVarint(p, end, value))
            return DecodeStatus::Truncated;
        line.site = static_cast<int64_t>(value);
    }
    line.warm = flags & kIsWarm;
    line.carry = flags & kIsCarry;

    if (!tables.events[event_index]) {
        if (error)
            *error = "record " + std::to_string(index + 1) +
                     ": unknown event tag " + std::to_string(tag);
        return DecodeStatus::Skipped;
    }
    line.event = *tables.events[event_index];
    // Hint index 0 is the omitted-field default (HintClass::None).
    if (hint_index) {
        if (hint_index >= tables.hints.size() ||
            !tables.hints[hint_index]) {
            if (error)
                *error = "record " + std::to_string(index + 1) +
                         ": unknown hint index " +
                         std::to_string(hint_index);
            return DecodeStatus::Skipped;
        }
        line.hint = *tables.hints[hint_index];
    }
    return DecodeStatus::Ok;
}

constexpr const char *kTruncatedMessage =
    "truncated or unfinalized .grpbin trace: the finalize footer is "
    "missing (the run was killed mid-trace, or this is a stale .tmp "
    "file); records up to the damage were scanned";

} // namespace

TraceParseResult
readLifecycle(std::string_view data)
{
    TraceParseResult result;
    Container container;
    std::string error;
    if (!parseContainer(data, container, &error)) {
        result.errors.push_back(error);
        return result;
    }
    if (container.kind != StreamKind::Lifecycle) {
        result.errors.push_back(
            "not a lifecycle trace (this .grpbin holds an access "
            "capture stream; replay it with grpsim --replay)");
        return result;
    }
    const LifecycleTables tables = resolveTables(container);
    const uint8_t *base =
        reinterpret_cast<const uint8_t *>(data.data());
    const uint8_t *p = base + container.bodyOffset;
    const uint8_t *end =
        base + (container.finalized
                    ? container.footerOffset
                    : data.size());
    uint64_t key = 0;
    uint64_t addr_key = 0;
    uint64_t index = 0;
    while (p < end) {
        TraceLine line;
        const DecodeStatus status = decodeOne(
            p, end, tables, key, addr_key, index, line, &error);
        if (status == DecodeStatus::Truncated) {
            result.truncated = true;
            break;
        }
        if (status == DecodeStatus::Footer)
            break;
        if (status == DecodeStatus::Checkpoint)
            continue;
        ++index;
        if (status == DecodeStatus::Skipped) {
            result.errors.push_back(error);
            continue;
        }
        result.lines.push_back(line);
    }
    // Without the trailer the file was never finalized, even when
    // every record before the footer tag is intact.
    if (!container.finalized)
        result.truncated = true;
    if (result.truncated)
        result.errors.push_back(kTruncatedMessage);
    return result;
}

bintrace::QueryResult
query(std::string_view data, const QueryFilter &filter, bool use_index)
{
    QueryResult result;
    Container container;
    std::string error;
    if (!parseContainer(data, container, &error)) {
        result.errors.push_back(error);
        return result;
    }
    if (container.kind != StreamKind::Lifecycle) {
        result.errors.push_back("not a lifecycle trace");
        return result;
    }
    const LifecycleTables tables = resolveTables(container);
    const uint8_t *base =
        reinterpret_cast<const uint8_t *>(data.data());
    const uint8_t *p = base + container.bodyOffset;
    const uint8_t *end =
        base + (container.finalized ? container.footerOffset
                                    : data.size());
    uint64_t key = 0;
    uint64_t addr_key = 0;
    uint64_t index = 0;

    // Indexed seek: resume at the last checkpoint whose key (the
    // preceding record's tick) is below the window start. Trace ticks
    // are non-decreasing, so nothing before it can match.
    if (use_index && container.finalized && filter.fromTick) {
        const CheckpointRef *best = nullptr;
        for (const CheckpointRef &ref : container.checkpoints) {
            if (ref.key < *filter.fromTick)
                best = &ref;
            else
                break;
        }
        if (best) {
            // Skip the checkpoint record itself (it re-states what
            // the directory entry already told us).
            p = base + best->offset;
            key = best->key;
            index = best->recordIndex;
            result.seeked = true;
        }
    }

    while (p < end) {
        TraceLine line;
        const DecodeStatus status = decodeOne(
            p, end, tables, key, addr_key, index, line, &error);
        if (status == DecodeStatus::Truncated) {
            result.truncated = true;
            break;
        }
        if (status == DecodeStatus::Footer)
            break;
        if (status == DecodeStatus::Checkpoint)
            continue;
        ++index;
        ++result.recordsScanned;
        if (status == DecodeStatus::Skipped) {
            result.errors.push_back(error);
            continue;
        }
        if (filter.toTick && line.t > *filter.toTick)
            break; // Ticks are non-decreasing: done.
        if (filter.fromTick && line.t < *filter.fromTick)
            continue;
        if (filter.site && line.site != *filter.site)
            continue;
        if (filter.event && line.event != *filter.event)
            continue;
        result.lines.push_back(line);
    }
    if (!container.finalized)
        result.truncated = true;
    if (result.truncated)
        result.errors.push_back(kTruncatedMessage);
    return result;
}

} // namespace bintrace
} // namespace obs
} // namespace grp
