/**
 * @file
 * The offline trace reader's contract: input that is not a .grpbin
 * lifecycle trace gets one clean error; records with names the
 * reader does not know are skipped with a "record N:" error, never a
 * fatal; the invariant checker reports 1-based record positions; and
 * jsonlLine() renders every event type byte-for-byte as pinned here.
 */

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/bintrace.hh"
#include "obs/trace_reader.hh"

using namespace grp;
using namespace grp::obs;

namespace
{

/** Encode @p records as a finalized lifecycle container whose string
 *  tables are @p tables; record i gets tick 10 * (i + 1). */
std::string
encode(std::vector<std::vector<std::string>> tables,
       const std::vector<TraceRecord> &records)
{
    std::FILE *file = std::tmpfile();
    EXPECT_NE(file, nullptr);
    bintrace::Writer writer(file, std::move(tables));
    Tick tick = 0;
    for (const TraceRecord &rec : records)
        writer.record(rec, tick += 10, false);
    writer.finalize();
    std::rewind(file);
    std::string data;
    char buf[4096];
    while (const size_t n = std::fread(buf, 1, sizeof buf, file))
        data.append(buf, n);
    std::fclose(file);
    return data;
}

/** lifecycleTables() with one name replaced, as a newer writer with
 *  a name this reader does not know would emit it. */
std::vector<std::vector<std::string>>
tablesRenaming(size_t table, size_t index, const std::string &name)
{
    std::vector<std::vector<std::string>> tables = lifecycleTables();
    tables[table][index] = name;
    return tables;
}

TEST(TraceReaderErrors, NonGrpbinInputGetsOneError)
{
    // The text a JSONL trace holds is not a trace this reader reads.
    const std::string text =
        "{\"t\":5,\"ev\":\"issue\",\"addr\":4096}\n"
        "{\"t\":9,\"ev\":\"fill\",\"addr\":4096}\n";
    const TraceParseResult result = bintrace::readLifecycle(text);
    EXPECT_TRUE(result.lines.empty());
    EXPECT_FALSE(result.truncated);
    ASSERT_EQ(result.errors.size(), 1u);
    EXPECT_NE(result.errors[0].find("not a .grpbin"), std::string::npos);

    // The same through a file, and for empty input.
    const std::string path =
        ::testing::TempDir() + "grp_trace_reader_text.jsonl";
    std::ofstream(path) << text;
    EXPECT_EQ(readTraceFile(path).errors, result.errors);
    std::remove(path.c_str());
    EXPECT_EQ(bintrace::readLifecycle("").errors.size(), 1u);
}

TEST(TraceReaderErrors, AccessCaptureIsNotALifecycleTrace)
{
    // Stream kind 0 is the only one; byte 5 of the header holds it.
    // Older builds wrote kind 1 for access-stream captures.
    std::string data = encode(lifecycleTables(),
                              {{TraceEvent::Issue, 64},
                               {TraceEvent::Fill, 64}});
    ASSERT_EQ(data[5], 0);
    for (const char kind : {'\x01', '\xff'}) {
        SCOPED_TRACE(static_cast<int>(static_cast<uint8_t>(kind)));
        data[5] = kind;
        const TraceParseResult result = bintrace::readLifecycle(data);
        EXPECT_TRUE(result.lines.empty());
        ASSERT_EQ(result.errors.size(), 1u);
        EXPECT_NE(result.errors[0].find("not a lifecycle trace"),
                  std::string::npos);
        const bintrace::QueryResult queried =
            bintrace::query(data, bintrace::QueryFilter{});
        EXPECT_TRUE(queried.lines.empty());
        ASSERT_EQ(queried.errors.size(), 1u);
        EXPECT_EQ(queried.errors[0], result.errors[0]);
    }
}

TEST(TraceReaderErrors, UnknownEventSkippedWithRecordNumber)
{
    const size_t fill = static_cast<size_t>(TraceEvent::Fill);
    const std::string data =
        encode(tablesRenaming(0, fill, "warp"),
               {{TraceEvent::Issue, 64}, {TraceEvent::Fill, 64},
                {TraceEvent::FirstUse, 64}});
    const TraceParseResult result = bintrace::readLifecycle(data);
    EXPECT_FALSE(result.truncated);
    ASSERT_EQ(result.lines.size(), 2u);
    EXPECT_EQ(result.lines[0].event, TraceEvent::Issue);
    EXPECT_EQ(result.lines[1].event, TraceEvent::FirstUse);
    ASSERT_EQ(result.errors.size(), 1u);
    EXPECT_EQ(result.errors[0].rfind("record 2:", 0), 0u);
    EXPECT_NE(result.errors[0].find("event"), std::string::npos);
}

TEST(TraceReaderErrors, UnknownHintClassSkippedWithRecordNumber)
{
    const size_t spatial = static_cast<size_t>(HintClass::Spatial);
    const std::string data = encode(
        tablesRenaming(1, spatial, "psychic"),
        {{TraceEvent::Issue, 64, HintClass::Spatial}});
    const TraceParseResult result = bintrace::readLifecycle(data);
    EXPECT_TRUE(result.lines.empty());
    ASSERT_EQ(result.errors.size(), 1u);
    EXPECT_EQ(result.errors[0].rfind("record 1:", 0), 0u);
    EXPECT_NE(result.errors[0].find("hint"), std::string::npos);
}

TEST(TraceReaderErrors, MissingFileSetsOpenFailed)
{
    const TraceParseResult result =
        readTraceFile("/nonexistent/grp-trace-reader-test.grpbin");
    EXPECT_TRUE(result.openFailed);
    ASSERT_EQ(result.errors.size(), 1u);
    EXPECT_NE(result.errors[0].find("cannot open"), std::string::npos);
}

TEST(TraceReaderErrors, AnalyzerReportsLineNumbersNotAborts)
{
    // A use without a fill and a double fill: both must surface as
    // positioned violations, and the analysis must still complete.
    const std::string data = encode(
        lifecycleTables(),
        {{TraceEvent::Issue, 64, HintClass::Spatial},
         {TraceEvent::FirstUse, 64},
         {TraceEvent::Issue, 128, HintClass::Spatial},
         {TraceEvent::Fill, 128, HintClass::Spatial},
         {TraceEvent::Fill, 128, HintClass::Spatial}});
    const TraceParseResult parsed = bintrace::readLifecycle(data);
    ASSERT_TRUE(parsed.errors.empty());
    const TraceAnalysis analysis = analyzeTrace(parsed.lines);

    ASSERT_EQ(analysis.violations.size(), 2u);
    EXPECT_EQ(analysis.violations[0].line, 2u);
    EXPECT_NE(analysis.violations[0].message.find("in flight"),
              std::string::npos);
    EXPECT_EQ(analysis.violations[1].line, 5u);
    EXPECT_NE(analysis.violations[1].message.find("filled twice"),
              std::string::npos);
    EXPECT_EQ(analysis.records, 5u);
}

TEST(TraceReaderErrors, StrideFillWithoutIssueIsAViolation)
{
    // Every prefetch class reaches the L2 through a channel issue,
    // the stride prefetcher's included; a fill with no issue before
    // it is corrupt whatever its class.
    const std::string data = encode(
        lifecycleTables(), {{TraceEvent::Fill, 64, HintClass::Stride}});
    const TraceParseResult parsed = bintrace::readLifecycle(data);
    ASSERT_TRUE(parsed.errors.empty());
    const TraceAnalysis analysis = analyzeTrace(parsed.lines);
    ASSERT_EQ(analysis.violations.size(), 1u);
    EXPECT_EQ(analysis.violations[0].line, 1u);
    EXPECT_NE(analysis.violations[0].message.find("without an issue"),
              std::string::npos);
}

/** analyzeTrace() over an issue, a fill and a first use of one
 *  spatial prefetch whose fill-to-use distance is @p distance. */
TraceAnalysis
analyzeOneUse(int64_t distance)
{
    const std::string data = encode(
        lifecycleTables(),
        {{TraceEvent::Issue, 64, HintClass::Spatial},
         {TraceEvent::Fill, 64, HintClass::Spatial},
         {TraceEvent::FirstUse, 64, HintClass::Spatial, -1, distance}});
    const TraceParseResult parsed = bintrace::readLifecycle(data);
    EXPECT_TRUE(parsed.errors.empty());
    return analyzeTrace(parsed.lines);
}

TEST(TraceReaderErrors, FillToUsePastTheCapIsAViolationNotASample)
{
    // The writer clamps fill-to-use distances to kFillToUseCap; one
    // corrupt record past it must not size the analyzer's
    // one-bucket-per-value Distribution (2^40 buckets).
    const TraceAnalysis corrupt = analyzeOneUse(int64_t{1} << 40);
    ASSERT_EQ(corrupt.violations.size(), 1u);
    EXPECT_EQ(corrupt.violations[0].line, 3u);
    EXPECT_NE(corrupt.violations[0].message.find("exceeds"),
              std::string::npos);
    EXPECT_EQ(corrupt.byClass.at(HintClass::Spatial).fillToUse.samples(),
              0u);

    // A distance at the cap is a sample.
    const TraceAnalysis capped =
        analyzeOneUse(static_cast<int64_t>(kFillToUseCap));
    EXPECT_TRUE(capped.violations.empty());
    const Distribution &samples =
        capped.byClass.at(HintClass::Spatial).fillToUse;
    EXPECT_EQ(samples.samples(), 1u);
    EXPECT_EQ(samples.sum(), kFillToUseCap);
}

/** A line with every optional field at its omitted default. */
TraceLine
bare(Tick t, TraceEvent event)
{
    TraceLine line;
    line.t = t;
    line.event = event;
    return line;
}

/** A line with every optional field present. */
TraceLine
full(Tick t, TraceEvent event, Addr addr, HintClass hint, int channel,
     int64_t extra, int64_t site)
{
    TraceLine line = bare(t, event);
    line.addr = addr;
    line.hint = hint;
    line.channel = channel;
    line.extra = extra;
    line.site = site;
    line.warm = true;
    line.carry = true;
    return line;
}

TEST(JsonlLine, GoldenRenderingOfEveryEvent)
{
    // The one text form of a lifecycle record (grptrace --jsonl and
    // query mode print it): each event with its optional fields all
    // absent, then all present, 64-bit extremes included.
    const std::vector<std::pair<TraceLine, std::string>> golden = {
        {bare(0, TraceEvent::HintTrigger),
         R"({"t":0,"ev":"hintTrigger"})"},
        {full(1, TraceEvent::HintTrigger, 4096, HintClass::Spatial, 0,
              0, 0),
         R"({"t":1,"ev":"hintTrigger","addr":4096,"hint":"spatial","ch":0,"x":0,"site":0,"warm":true,"carry":true})"},
        {bare(2, TraceEvent::Enqueue), R"({"t":2,"ev":"enqueue"})"},
        {full(3, TraceEvent::Enqueue, 8192, HintClass::Pointer, 1, 63,
              12),
         R"({"t":3,"ev":"enqueue","addr":8192,"hint":"pointer","ch":1,"x":63,"site":12,"warm":true,"carry":true})"},
        {bare(4, TraceEvent::Drop), R"({"t":4,"ev":"drop"})"},
        {full(5, TraceEvent::Drop, 0x3f000000, HintClass::Recursive, 2,
              8, 4294967294),
         R"({"t":5,"ev":"drop","addr":1056964608,"hint":"recursive","ch":2,"x":8,"site":4294967294,"warm":true,"carry":true})"},
        {bare(6, TraceEvent::Issue), R"({"t":6,"ev":"issue"})"},
        {full(7, TraceEvent::Issue, 0x40000040, HintClass::Indirect, 3,
              1, 7),
         R"({"t":7,"ev":"issue","addr":1073741888,"hint":"indirect","ch":3,"x":1,"site":7,"warm":true,"carry":true})"},
        {bare(8, TraceEvent::Stall), R"({"t":8,"ev":"stall"})"},
        {full(9, TraceEvent::Stall, 64, HintClass::Stride, 0, 2, 1),
         R"({"t":9,"ev":"stall","addr":64,"hint":"stride","ch":0,"x":2,"site":1,"warm":true,"carry":true})"},
        {bare(10, TraceEvent::Filtered), R"({"t":10,"ev":"filtered"})"},
        {full(11, TraceEvent::Filtered, 128, HintClass::Spatial, 1, 0,
              12345),
         R"({"t":11,"ev":"filtered","addr":128,"hint":"spatial","ch":1,"x":0,"site":12345,"warm":true,"carry":true})"},
        {bare(12, TraceEvent::Fill), R"({"t":12,"ev":"fill"})"},
        {full(13, TraceEvent::Fill, 0xffffffffffffffc0ull,
              HintClass::Pointer, 2147483647, 9223372036854775807ll,
              3),
         R"({"t":13,"ev":"fill","addr":18446744073709551552,"hint":"pointer","ch":2147483647,"x":9223372036854775807,"site":3,"warm":true,"carry":true})"},
        {bare(14, TraceEvent::FirstUse), R"({"t":14,"ev":"firstUse"})"},
        {full(15, TraceEvent::FirstUse, 4160, HintClass::Recursive, 0,
              900, 9),
         R"({"t":15,"ev":"firstUse","addr":4160,"hint":"recursive","ch":0,"x":900,"site":9,"warm":true,"carry":true})"},
        {bare(16, TraceEvent::EvictedUnused),
         R"({"t":16,"ev":"evictedUnused"})"},
        {full(17, TraceEvent::EvictedUnused, 16, HintClass::Indirect, 1,
              0, 2),
         R"({"t":17,"ev":"evictedUnused","addr":16,"hint":"indirect","ch":1,"x":0,"site":2,"warm":true,"carry":true})"},
        {bare(18, TraceEvent::EvictVictim),
         R"({"t":18,"ev":"evictVictim"})"},
        {full(19, TraceEvent::EvictVictim, 0xdeadbeef00,
              HintClass::Stride, 0, 5, 9),
         R"({"t":19,"ev":"evictVictim","addr":956397711104,"hint":"stride","ch":0,"x":5,"site":9,"warm":true,"carry":true})"},
        {bare(20, TraceEvent::PollutionMiss),
         R"({"t":20,"ev":"pollutionMiss"})"},
        {full(21, TraceEvent::PollutionMiss, 0xdeadbeef00,
              HintClass::Pointer, 1, 3, 9),
         R"({"t":21,"ev":"pollutionMiss","addr":956397711104,"hint":"pointer","ch":1,"x":3,"site":9,"warm":true,"carry":true})"},
        {bare(22, TraceEvent::CtrlTransition),
         R"({"t":22,"ev":"ctrlTransition"})"},
        {full(18446744073709551615ull, TraceEvent::CtrlTransition, 1,
              HintClass::Spatial, 3, 2, 0),
         R"({"t":18446744073709551615,"ev":"ctrlTransition","addr":1,"hint":"spatial","ch":3,"x":2,"site":0,"warm":true,"carry":true})"},
    };
    ASSERT_EQ(golden.size(),
              2 * (static_cast<size_t>(TraceEvent::CtrlTransition) + 1));
    for (const auto &[line, text] : golden)
        EXPECT_EQ(jsonlLine(line), text + "\n");

    // Each flag renders alone too, in the writer's field order.
    TraceLine warm = bare(1, TraceEvent::Fill);
    warm.warm = true;
    EXPECT_EQ(jsonlLine(warm), "{\"t\":1,\"ev\":\"fill\",\"warm\":true}\n");
    TraceLine carry = bare(1, TraceEvent::FirstUse);
    carry.carry = true;
    EXPECT_EQ(jsonlLine(carry),
              "{\"t\":1,\"ev\":\"firstUse\",\"carry\":true}\n");
}

} // namespace
