/** @file Tests for the offline trace tooling: event and hint-class
 *  name parsing, the lifecycle invariant checker (consistent traces
 *  pass, each corruption class is caught), the offline funnel
 *  recompute, and the Chrome trace_event export. */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "obs/chrome_trace.hh"
#include "obs/json_reader.hh"
#include "obs/trace_reader.hh"

namespace grp
{
namespace
{

using obs::HintClass;
using obs::TraceEvent;
using obs::TraceLine;

TraceLine
make(TraceEvent event, Addr addr, HintClass hint = HintClass::Spatial,
     Tick t = 0, int64_t extra = -1, bool warm = false,
     bool carry = false, int64_t site = -1)
{
    TraceLine line;
    line.t = t;
    line.event = event;
    line.addr = addr;
    line.hint = hint;
    line.extra = extra;
    line.warm = warm;
    line.carry = carry;
    line.site = site;
    return line;
}

TEST(TraceReader, ParseEventAndHintAreInversesOfToString)
{
    EXPECT_EQ(obs::parseTraceEvent("evictedUnused"),
              TraceEvent::EvictedUnused);
    EXPECT_EQ(obs::parseHintClass("recursive"), HintClass::Recursive);
    EXPECT_FALSE(obs::parseTraceEvent("bogus"));
    EXPECT_FALSE(obs::parseHintClass("bogus"));
}

TEST(TraceAnalysis, ConsistentLifecyclePasses)
{
    std::vector<TraceLine> lines;
    // Full arc with an enqueue covering the issue.
    lines.push_back(make(TraceEvent::Enqueue, 4096, HintClass::Spatial,
                         1, 8));
    lines.push_back(make(TraceEvent::Issue, 4096 + 128));
    lines.push_back(make(TraceEvent::Fill, 4096 + 128,
                         HintClass::Spatial, 40));
    lines.push_back(make(TraceEvent::FirstUse, 4096 + 128,
                         HintClass::Spatial, 55, 15));
    // Arc ending in eviction.
    lines.push_back(make(TraceEvent::Issue, 4096 + 192));
    lines.push_back(make(TraceEvent::Fill, 4096 + 192));
    lines.push_back(make(TraceEvent::EvictedUnused, 4096 + 192));
    // Stride arc: issued with no covering enqueue, which is exempt
    // from the coverage check.
    lines.push_back(make(TraceEvent::Issue, 1 << 20, HintClass::Stride));
    lines.push_back(make(TraceEvent::Fill, 1 << 20,
                         HintClass::Stride));
    lines.push_back(make(TraceEvent::FirstUse, 1 << 20,
                         HintClass::Stride));
    // Carryover use of a pre-trace fill.
    TraceLine carry = make(TraceEvent::FirstUse, 1 << 21,
                           HintClass::None, 60, 0, false, true);
    lines.push_back(carry);
    // Re-prefetch of an address whose arc completed.
    lines.push_back(make(TraceEvent::Issue, 4096 + 128));

    const obs::TraceAnalysis a = obs::analyzeTrace(lines);
    EXPECT_TRUE(a.violations.empty())
        << a.violations.front().message;
    EXPECT_TRUE(a.coverageChecked);
    EXPECT_EQ(a.inFlightAtEnd, 1u);
    EXPECT_EQ(a.liveAtEnd, 0u);

    const obs::FunnelStats &spatial =
        a.byClass.at(HintClass::Spatial);
    EXPECT_EQ(spatial.enqueued, 8u);
    EXPECT_EQ(spatial.issued, 3u);
    EXPECT_EQ(spatial.fills, 2u);
    EXPECT_EQ(spatial.useful, 1u);
    EXPECT_EQ(spatial.evictedUnused, 1u);
    EXPECT_EQ(spatial.fillToUse.sum(), 15u);
    const obs::FunnelStats &none = a.byClass.at(HintClass::None);
    EXPECT_EQ(none.warmUseful, 1u);
    EXPECT_EQ(none.useful, 0u);
}

TEST(TraceAnalysis, CatchesEachCorruptionClass)
{
    auto violations = [](std::vector<TraceLine> lines) {
        return obs::analyzeTrace(lines).violations.size();
    };

    // Fill without an issue (non-stride).
    EXPECT_EQ(violations({make(TraceEvent::Fill, 64)}), 1u);
    // Use without a fill.
    EXPECT_EQ(violations({make(TraceEvent::FirstUse, 64)}), 1u);
    // Use while still in flight.
    EXPECT_EQ(violations({make(TraceEvent::Issue, 64),
                          make(TraceEvent::FirstUse, 64)}),
              1u);
    // Eviction without a fill.
    EXPECT_EQ(violations({make(TraceEvent::EvictedUnused, 64)}), 1u);
    // Double issue.
    EXPECT_EQ(violations({make(TraceEvent::Issue, 64),
                          make(TraceEvent::Issue, 64)}),
              1u);
    // Double fill.
    EXPECT_EQ(violations({make(TraceEvent::Issue, 64),
                          make(TraceEvent::Fill, 64),
                          make(TraceEvent::Fill, 64)}),
              1u);
    // Issue outside every enqueued window (coverage active only
    // once an enqueue appears).
    EXPECT_EQ(violations({make(TraceEvent::Enqueue, 4096,
                               HintClass::Spatial, 0, 4),
                          make(TraceEvent::Issue, 1 << 20)}),
              1u);
    EXPECT_EQ(violations({make(TraceEvent::Issue, 1 << 20)}), 0u);
}

TEST(ChromeTrace, EmitsBalancedSpansAndCounters)
{
    std::vector<TraceLine> lines;
    lines.push_back(make(TraceEvent::Issue, 4096, HintClass::Pointer,
                         10, 1, false, false, 3));
    lines.push_back(make(TraceEvent::Fill, 4096, HintClass::Pointer,
                         60));
    lines.push_back(make(TraceEvent::FirstUse, 4096,
                         HintClass::Pointer, 90, 30));
    lines.push_back(make(TraceEvent::Drop, 8192, HintClass::Spatial,
                         95, 6));
    lines.push_back(make(TraceEvent::Fill, 1 << 20,
                         HintClass::Stride, 100));
    lines.push_back(make(TraceEvent::EvictedUnused, 1 << 20,
                         HintClass::Stride, 140));

    const std::string timeseries_text =
        "{\"schema\":\"grp-timeseries-v1\",\"bucket\":64,"
        "\"series\":{\"depth\":{\"t\":[0,64],\"v\":[2,4]}}}";
    std::string error;
    auto timeseries = obs::parseJson(timeseries_text, &error);
    ASSERT_TRUE(timeseries) << error;

    std::ostringstream os;
    obs::writeChromeTrace(os, lines, timeseries.get());
    auto doc = obs::parseJson(os.str(), &error);
    ASSERT_TRUE(doc) << error;
    const obs::JsonValue *events = doc->find("traceEvents");
    ASSERT_TRUE(events && events->isArray());

    size_t begins = 0, ends = 0, counters = 0, instants = 0;
    size_t metadata = 0;
    for (const obs::JsonValue &event : events->asArray()) {
        ASSERT_TRUE(event.isObject());
        const std::string ph = event.find("ph")->asString();
        if (ph == "b") {
            ++begins;
            // Async events carry the span id and category.
            EXPECT_TRUE(event.find("id"));
            EXPECT_EQ(event.find("cat")->asString(), "prefetch");
        } else if (ph == "e") {
            ++ends;
        } else if (ph == "C") {
            ++counters;
        } else if (ph == "i") {
            ++instants;
        } else if (ph == "M") {
            ++metadata;
        }
    }
    // Two arcs: pointer (issue-open) and stride (fill-open: no issue
    // precedes it).
    EXPECT_EQ(begins, 2u);
    EXPECT_EQ(ends, 2u);
    EXPECT_EQ(counters, 2u);  // Two time-series samples.
    EXPECT_EQ(instants, 1u);  // The drop.
    EXPECT_GE(metadata, 2u);  // Process + thread names.

    // Span begin/end pair on the same id.
    std::string open_id, close_id;
    for (const obs::JsonValue &event : events->asArray()) {
        const std::string ph = event.find("ph")->asString();
        const obs::JsonValue *name = event.find("name");
        if (ph == "b" && name->asString() == "pointer")
            open_id = event.find("id")->asString();
        if (ph == "e" && name->asString() == "pointer")
            close_id = event.find("id")->asString();
    }
    EXPECT_FALSE(open_id.empty());
    EXPECT_EQ(open_id, close_id);
}

TEST(ChromeTrace, ReprefetchedBlockGetsFreshSpanId)
{
    std::vector<TraceLine> lines;
    lines.push_back(make(TraceEvent::Issue, 64, HintClass::Spatial, 0));
    lines.push_back(make(TraceEvent::Fill, 64, HintClass::Spatial, 5));
    lines.push_back(make(TraceEvent::FirstUse, 64, HintClass::Spatial,
                         9, 4));
    lines.push_back(make(TraceEvent::Issue, 64, HintClass::Spatial,
                         20));

    std::ostringstream os;
    obs::writeChromeTrace(os, lines);
    std::string error;
    auto doc = obs::parseJson(os.str(), &error);
    ASSERT_TRUE(doc) << error;

    std::vector<std::string> begin_ids;
    for (const obs::JsonValue &event :
         doc->find("traceEvents")->asArray()) {
        if (event.find("ph")->asString() == "b")
            begin_ids.push_back(event.find("id")->asString());
    }
    ASSERT_EQ(begin_ids.size(), 2u);
    EXPECT_NE(begin_ids[0], begin_ids[1]);
}

TEST(ChromeTrace, SkipsTimeseriesSamplesNoTickHolds)
{
    const std::string timeseries_text =
        "{\"series\":{\"depth\":{\"t\":[-1,1e300,64],"
        "\"v\":[1,2,3]}}}";
    std::string error;
    auto timeseries = obs::parseJson(timeseries_text, &error);
    ASSERT_TRUE(timeseries) << error;
    std::ostringstream os;
    obs::writeChromeTrace(os, {}, timeseries.get());
    auto doc = obs::parseJson(os.str(), &error);
    ASSERT_TRUE(doc) << error;
    size_t counters = 0;
    for (const obs::JsonValue &event :
         doc->find("traceEvents")->asArray()) {
        if (event.find("ph")->asString() == "C") {
            ++counters;
            EXPECT_EQ(event.find("ts")->asNumber(), 64.0);
        }
    }
    EXPECT_EQ(counters, 1u);
}

} // namespace
} // namespace grp
