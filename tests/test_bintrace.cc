/** @file Tests for the .grpbin binary flight-recorder container:
 *  round-trip fidelity over every record type, checkpoint-seek query
 *  equivalence against a full scan, the distinct
 *  truncated/unfinalized error reporting, and clean rejection of
 *  corrupt input. */

#include <gtest/gtest.h>

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "harness/runner.hh"
#include "obs/bintrace.hh"
#include "obs/trace.hh"
#include "obs/trace_reader.hh"
#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"

namespace grp
{
namespace
{

std::string
tempPath(const char *name)
{
    return ::testing::TempDir() + name;
}

std::string
slurp(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    EXPECT_TRUE(is.is_open()) << path;
    std::ostringstream text;
    text << is.rdbuf();
    return text.str();
}

/** Run one traced simulation; returns the trace path. */
std::string
runTraced(const char *name, int level, uint64_t checkpoint_interval = 0,
          uint64_t instructions = 60'000)
{
    setQuiet(true);
    const std::string path = tempPath(name);
    SimConfig config;
    config.scheme = PrefetchScheme::GrpVar;
    RunOptions opts;
    opts.maxInstructions = instructions;
    opts.obs.tracePath = path;
    opts.obs.traceLevel = level;
    if (checkpoint_interval)
        obs::Tracer::instance().setCheckpointInterval(
            checkpoint_interval);
    runWorkload("mcf", config, opts);
    obs::Tracer::instance().setCheckpointInterval(8192); // Restore.
    return path;
}

/** Hand-driven records covering every event type and field
 *  combination, regardless of what a simulation happens to emit. */
struct RecordedTrace
{
    std::string path;
    std::vector<obs::TraceRecord> records;
    std::vector<uint64_t> ticks;
    /** Records before this index were written during warmup. */
    size_t warmupEnd = 0;
};

RecordedTrace
writeAllRecordTypes(const char *stem)
{
    RecordedTrace out;
    out.path = tempPath((std::string(stem) + ".grpbin").c_str());

    // Every event type once, plus field-presence variations:
    // addresses that jump backwards (zigzag deltas), the None hint
    // (omitted field), carry/warm flags, large extras and sites.
    out.records = {
        {obs::TraceEvent::HintTrigger, 0x40000000,
         obs::HintClass::Spatial, -1, -1, false, 3},
        {obs::TraceEvent::Enqueue, 0x40000000,
         obs::HintClass::Spatial, -1, 63, false, 3},
        {obs::TraceEvent::Drop, 0x3f000000, obs::HintClass::Pointer,
         -1, 8, false, kInvalidRefId},
        {obs::TraceEvent::Issue, 0x40000040,
         obs::HintClass::Recursive, 2, 1, false, 7},
        {obs::TraceEvent::Stall, 0, obs::HintClass::None, -1, -1,
         false, kInvalidRefId},
        {obs::TraceEvent::Filtered, 0x40000080,
         obs::HintClass::Indirect, -1, -1, false, 12345},
        {obs::TraceEvent::Fill, 0x40000040, obs::HintClass::Stride,
         1, -1, true, kInvalidRefId},
        {obs::TraceEvent::FirstUse, 0x40000040,
         obs::HintClass::None, -1, 900, false, 7},
        {obs::TraceEvent::EvictedUnused, 0x10, obs::HintClass::Spatial,
         -1, -1, false, kInvalidRefId},
        {obs::TraceEvent::EvictVictim, 0xdeadbeef00,
         obs::HintClass::Pointer, -1, -1, false, 9},
        {obs::TraceEvent::PollutionMiss, 0xdeadbeef00,
         obs::HintClass::Pointer, -1, -1, false, 9},
        {obs::TraceEvent::CtrlTransition, 0, obs::HintClass::Spatial,
         2, 1, false, kInvalidRefId},
    };
    // Ticks exercise dt = 0 runs and large jumps.
    out.ticks = {0,    0,    5,     5,     5,      1000,
                 1000, 1000, 99999, 99999, 100000, 1u << 20};

    obs::Tracer &tracer = obs::Tracer::instance();
    EXPECT_TRUE(tracer.open(out.path)) << "open failed";
    tracer.setLevel(3);
    EventQueue clock;
    tracer.setClock(&clock);
    tracer.setWarmup(true);
    out.warmupEnd = out.records.size() / 2;
    for (size_t i = 0; i < out.records.size(); ++i) {
        clock.advanceTo(out.ticks[i]);
        if (i == out.warmupEnd)
            tracer.setWarmup(false);
        tracer.record(out.records[i]);
    }
    tracer.setClock(nullptr);
    tracer.close();
    return out;
}

TEST(Bintrace, VarintRoundTrip)
{
    for (uint64_t value :
         {0ull, 1ull, 127ull, 128ull, 300ull, (1ull << 32),
          ~0ull, (1ull << 63)}) {
        uint8_t buf[10];
        const size_t n = obs::bintrace::putVarint(buf, value);
        ASSERT_LE(n, 10u);
        const uint8_t *p = buf;
        uint64_t back = 0;
        ASSERT_TRUE(obs::bintrace::readVarint(p, buf + n, back));
        EXPECT_EQ(back, value);
        EXPECT_EQ(p, buf + n);
    }
}

TEST(Bintrace, ZigzagRoundTrip)
{
    const uint64_t deltas[] = {0,          1,         ~0ull /* -1 */,
                               64,         (uint64_t)-64,
                               1ull << 40, (uint64_t)-(1ll << 40)};
    for (uint64_t delta : deltas) {
        EXPECT_EQ(obs::bintrace::unzigzag(obs::bintrace::zigzag(delta)),
                  delta);
    }
    // Small magnitudes stay small on the wire.
    EXPECT_LE(obs::bintrace::zigzag((uint64_t)-2), 4u);
}

TEST(Bintrace, AllRecordTypesRoundTrip)
{
    const RecordedTrace written = writeAllRecordTypes("grp_bt_all");
    const obs::TraceParseResult parsed = obs::readTraceFile(written.path);

    EXPECT_FALSE(parsed.truncated);
    EXPECT_TRUE(parsed.errors.empty());
    ASSERT_EQ(parsed.lines.size(), written.records.size());
    ASSERT_EQ(parsed.lines.size(), 12u); // One per event type.

    for (size_t i = 0; i < parsed.lines.size(); ++i) {
        const obs::TraceRecord &in = written.records[i];
        const obs::TraceLine &out = parsed.lines[i];
        EXPECT_EQ(out.t, written.ticks[i]) << i;
        EXPECT_EQ(out.event, in.event) << i;
        EXPECT_EQ(out.addr, in.addr) << i;
        EXPECT_EQ(out.hint, in.hint) << i;
        EXPECT_EQ(out.channel, in.channel) << i;
        EXPECT_EQ(out.extra, in.extra) << i;
        EXPECT_EQ(out.site, in.site == kInvalidRefId
                                ? -1
                                : static_cast<int64_t>(in.site))
            << i;
        EXPECT_EQ(out.warm, i < written.warmupEnd) << i;
        EXPECT_EQ(out.carry, in.carryover) << i;
    }
}

TEST(Bintrace, QuerySeekMatchesFullScan)
{
    // A small checkpoint interval guarantees several checkpoints
    // even in a short run.
    const std::string bin = runTraced("grp_bt_seek.grpbin", 2, 256);
    const std::string data = slurp(bin);

    obs::bintrace::Container container;
    ASSERT_TRUE(
        obs::bintrace::parseContainer(data, container, nullptr));
    ASSERT_TRUE(container.finalized);
    ASSERT_GT(container.checkpoints.size(), 1u);

    // Query the second half of the tick range, every event type.
    const obs::TraceParseResult all = obs::readTraceFile(bin);
    ASSERT_FALSE(all.lines.empty());
    obs::bintrace::QueryFilter filter;
    filter.fromTick = all.lines[all.lines.size() / 2].t;

    const obs::bintrace::QueryResult indexed =
        obs::bintrace::query(data, filter, true);
    const obs::bintrace::QueryResult scanned =
        obs::bintrace::query(data, filter, false);

    EXPECT_TRUE(indexed.seeked);
    EXPECT_FALSE(scanned.seeked);
    EXPECT_LT(indexed.recordsScanned, scanned.recordsScanned);
    ASSERT_EQ(indexed.lines.size(), scanned.lines.size());
    for (size_t i = 0; i < indexed.lines.size(); ++i) {
        EXPECT_EQ(obs::jsonlLine(indexed.lines[i]),
                  obs::jsonlLine(scanned.lines[i]))
            << i;
    }
}

TEST(Bintrace, QueryFiltersSiteAndEvent)
{
    const std::string bin = runTraced("grp_bt_filter.grpbin", 2);
    const std::string data = slurp(bin);

    obs::bintrace::QueryFilter filter;
    filter.event = obs::TraceEvent::Fill;
    const obs::bintrace::QueryResult fills =
        obs::bintrace::query(data, filter, true);
    ASSERT_FALSE(fills.lines.empty());
    for (const obs::TraceLine &line : fills.lines)
        EXPECT_EQ(line.event, obs::TraceEvent::Fill);

    // Cross-check the count against a full parse.
    const obs::TraceParseResult all = obs::readTraceFile(bin);
    size_t expected = 0;
    for (const obs::TraceLine &line : all.lines)
        expected += line.event == obs::TraceEvent::Fill;
    EXPECT_EQ(fills.lines.size(), expected);
}

TEST(Bintrace, TruncatedFileReportsDistinctError)
{
    const std::string bin = runTraced("grp_bt_trunc.grpbin", 1);
    const std::string data = slurp(bin);
    ASSERT_GT(data.size(), 400u);

    // Chop the trailer + some records off: the reader must flag
    // truncation distinctly while still scanning the prefix.
    const std::string damaged = data.substr(0, data.size() - 200);
    const obs::TraceParseResult parsed =
        obs::bintrace::readLifecycle(damaged);
    EXPECT_TRUE(parsed.truncated);
    EXPECT_FALSE(parsed.lines.empty());
    ASSERT_FALSE(parsed.errors.empty());
    EXPECT_NE(parsed.errors.back().find("truncated or unfinalized"),
              std::string::npos);

    // The intact file parses clean.
    const obs::TraceParseResult intact = obs::bintrace::readLifecycle(data);
    EXPECT_FALSE(intact.truncated);
    EXPECT_TRUE(intact.errors.empty());

    // A truncated prefix holds a prefix of the intact lines.
    ASSERT_LT(parsed.lines.size(), intact.lines.size());
    for (size_t i = 0; i < parsed.lines.size(); ++i) {
        EXPECT_EQ(obs::jsonlLine(parsed.lines[i]),
                  obs::jsonlLine(intact.lines[i]))
            << i;
    }
}

TEST(Bintrace, StdoutSinkProducesFinalizedContainer)
{
    // "-" streams to stdout; redirect fd 1 to a file and check the
    // container still carries its finalize footer (piped consumers
    // must see a complete document).
    const std::string path = tempPath("grp_bt_stdout.grpbin");
    std::fflush(stdout);
    const int saved = dup(STDOUT_FILENO);
    ASSERT_GE(saved, 0);
    const int fd =
        ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    ASSERT_GE(fd, 0);
    ASSERT_GE(dup2(fd, STDOUT_FILENO), 0);
    ::close(fd);

    obs::Tracer &tracer = obs::Tracer::instance();
    const bool opened = tracer.open("-");
    if (opened) {
        tracer.setLevel(1);
        tracer.record({obs::TraceEvent::Issue, 0x1000,
                       obs::HintClass::Spatial, 0, -1, false, 1});
        tracer.record({obs::TraceEvent::Fill, 0x1000,
                       obs::HintClass::Spatial, -1, -1, false, 1});
        tracer.close();
    }
    std::fflush(stdout);
    dup2(saved, STDOUT_FILENO);
    ::close(saved);
    ASSERT_TRUE(opened);

    const obs::TraceParseResult parsed = obs::readTraceFile(path);
    EXPECT_FALSE(parsed.truncated);
    ASSERT_EQ(parsed.lines.size(), 2u);
    EXPECT_EQ(parsed.lines[1].event, obs::TraceEvent::Fill);
}

TEST(Bintrace, CrashSafetyPublishesOnlyOnClose)
{
    // While the sink is open, only "<path>.tmp" exists; close()
    // finalizes and renames. A reader therefore never sees a partial
    // file at the published path.
    const std::string path = tempPath("grp_bt_crash.grpbin");
    std::remove(path.c_str());
    std::remove((path + ".tmp").c_str());

    obs::Tracer &tracer = obs::Tracer::instance();
    ASSERT_TRUE(tracer.open(path));
    tracer.setLevel(1);
    for (uint32_t i = 0; i < 100; ++i) {
        tracer.record({obs::TraceEvent::Issue, 0x1000 + 64ull * i,
                       obs::HintClass::Spatial, 0, -1, false, 1});
    }
    EXPECT_FALSE(std::ifstream(path).is_open())
        << "trace published before finalize";
    EXPECT_TRUE(std::ifstream(path + ".tmp").is_open())
        << "no .tmp while the sink is open";
    tracer.close();
    EXPECT_TRUE(std::ifstream(path).is_open());
    EXPECT_FALSE(std::ifstream(path + ".tmp").is_open());

    const obs::TraceParseResult parsed = obs::readTraceFile(path);
    EXPECT_FALSE(parsed.truncated);
    EXPECT_EQ(parsed.lines.size(), 100u);
}

TEST(Bintrace, TracerAcceptsOnlyGrpbinPaths)
{
    EXPECT_TRUE(obs::isTracePath("x.grpbin"));
    EXPECT_TRUE(obs::isTracePath("dir/x.grpbin"));
    EXPECT_TRUE(obs::isTracePath("-"));
    EXPECT_FALSE(obs::isTracePath("x.jsonl"));
    EXPECT_FALSE(obs::isTracePath(".grpbin"));
    EXPECT_FALSE(obs::isTracePath("x.grpbin.tmp"));

    // A rejected path opens nothing: no file, tracing stays off.
    setQuiet(true);
    const std::string path = tempPath("grp_bt_reject.jsonl");
    std::remove(path.c_str());
    obs::Tracer &tracer = obs::Tracer::instance();
    EXPECT_FALSE(tracer.open(path));
    tracer.setLevel(1);
    EXPECT_FALSE(tracer.enabled(1));
    tracer.close();
    EXPECT_FALSE(std::ifstream(path).is_open());
    EXPECT_FALSE(std::ifstream(path + ".tmp").is_open());
}

TEST(Bintrace, BinarySmallerThanJsonlRendering)
{
    const std::string bin = runTraced("grp_bt_size.grpbin", 2);
    const size_t bin_size = slurp(bin).size();
    size_t jsonl_size = 0;
    for (const obs::TraceLine &line : obs::readTraceFile(bin).lines)
        jsonl_size += obs::jsonlLine(line).size();
    ASSERT_GT(jsonl_size, 0u);
    ASSERT_GT(bin_size, 0u);
    // The container's reason to exist: ten-fold smaller than the
    // same records as JSONL text.
    EXPECT_GE(jsonl_size, 10u * bin_size)
        << jsonl_size << " vs " << bin_size;
}

/** Damaged input decodes to a clean verdict: the reader returns
 *  lines, errors and/or truncated, and never crashes, hangs or reads
 *  out of bounds (the sanitizer build runs this too). */
obs::TraceParseResult
expectCleanVerdict(const std::string &path, const std::string &data,
                   const std::string &what)
{
    SCOPED_TRACE(what);
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(data.data(), static_cast<std::streamsize>(data.size()));
    }
    const obs::TraceParseResult parsed = obs::readTraceFile(path);
    EXPECT_FALSE(parsed.openFailed);
    // Every record takes at least three bytes (tag, flags, time).
    EXPECT_LE(3 * parsed.lines.size(), data.size());

    // The indexed query path trusts the checkpoint directory for its
    // seek (past every checkpoint here, so it always seeks); a damaged
    // directory must not send it out of bounds.
    obs::bintrace::QueryFilter filter;
    filter.fromTick = std::numeric_limits<Tick>::max();
    const obs::bintrace::QueryResult queried =
        obs::bintrace::query(data, filter, true);
    EXPECT_LE(3 * queried.lines.size(), data.size());
    return parsed;
}

TEST(Bintrace, CorruptInputRejectedCleanly)
{
    // A small real level-2 trace with frequent checkpoints, so the
    // mutations hit records, checkpoints, the footer directory and
    // the trailer alike.
    const std::string bin = runTraced("grp_bt_fuzz.grpbin", 2, 32, 6'000);
    const std::string data = slurp(bin);
    const obs::TraceParseResult intact = obs::readTraceFile(bin);
    ASSERT_TRUE(intact.errors.empty());
    ASSERT_FALSE(intact.truncated);
    ASSERT_GT(intact.lines.size(), 100u);
    const std::string path = tempPath("grp_bt_fuzz_case.grpbin");

    // Every truncation point (a stride of them on larger traces): the
    // damage is flagged, and what decodes is a prefix of the intact
    // records.
    const size_t stride = std::max<size_t>(1, data.size() / 4096);
    for (size_t cut = 0; cut < data.size(); cut += stride) {
        const obs::TraceParseResult parsed = expectCleanVerdict(
            path, data.substr(0, cut),
            "truncated at " + std::to_string(cut));
        EXPECT_TRUE(parsed.truncated || !parsed.errors.empty()) << cut;
        ASSERT_LE(parsed.lines.size(), intact.lines.size()) << cut;
        for (size_t i = 0; i < parsed.lines.size(); ++i) {
            ASSERT_EQ(obs::jsonlLine(parsed.lines[i]),
                      obs::jsonlLine(intact.lines[i]))
                << "cut " << cut << " record " << i;
        }
    }

    // Every single-bit flip in the footer and trailer (the checkpoint
    // directory the seek trusts).
    obs::bintrace::Container container;
    ASSERT_TRUE(obs::bintrace::parseContainer(data, container, nullptr));
    for (size_t pos = container.footerOffset; pos < data.size(); ++pos) {
        for (unsigned bit = 0; bit < 8; ++bit) {
            std::string damaged = data;
            damaged[pos] = static_cast<char>(damaged[pos] ^ (1u << bit));
            expectCleanVerdict(path, damaged,
                               "footer flip at " + std::to_string(pos) +
                                   " bit " + std::to_string(bit));
        }
    }

    // Fixed-seed byte flips and deletions anywhere in the file.
    Rng rng(0x6772706266757a7aull);
    for (int i = 0; i < 400; ++i) {
        std::string damaged = data;
        const size_t pos = rng.below(damaged.size());
        damaged[pos] = static_cast<char>(
            damaged[pos] ^ static_cast<char>(1u << rng.below(8)));
        expectCleanVerdict(path, damaged,
                           "bit flip at " + std::to_string(pos));
    }
    for (int i = 0; i < 200; ++i) {
        std::string damaged = data;
        const size_t pos = rng.below(damaged.size());
        const size_t len = 1 + rng.below(16);
        damaged.erase(pos, len);
        expectCleanVerdict(path, damaged,
                           "deleted " + std::to_string(len) + " at " +
                               std::to_string(pos));
    }
    std::remove(path.c_str());
}

} // namespace
} // namespace grp
