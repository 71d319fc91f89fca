/** @file End-to-end tests for the prefetch lifecycle tracer:
 *  lifecycle ordering, warmup attribution consistency with
 *  RunResult, and level filtering, read back from .grpbin traces. */

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "harness/runner.hh"
#include "obs/trace.hh"
#include "obs/trace_reader.hh"
#include "sim/logging.hh"

namespace grp
{
namespace
{

/** The records of the .grpbin trace at @p path. */
std::vector<obs::TraceLine>
records(const std::string &path)
{
    const obs::TraceParseResult parsed = obs::readTraceFile(path);
    EXPECT_TRUE(parsed.errors.empty()) << path << ": "
                                       << parsed.errors.front();
    return parsed.lines;
}

/** A record from the measured window with no warmup attribution. */
bool
measured(const obs::TraceLine &rec)
{
    return !rec.warm && !rec.carry;
}

RunResult
runTraced(const std::string &workload, PrefetchScheme scheme,
          const std::string &trace_path, int trace_level,
          uint64_t instructions = 60'000)
{
    setQuiet(true);
    SimConfig config;
    config.scheme = scheme;
    RunOptions opts;
    opts.maxInstructions = instructions;
    opts.obs.tracePath = trace_path;
    opts.obs.traceLevel = trace_level;
    return runWorkload(workload, config, opts);
}

std::string
tracePath(const char *name)
{
    return ::testing::TempDir() + name;
}

TEST(Trace, LifecycleOrderingPerBlock)
{
    const std::string path = tracePath("grp_trace_order.grpbin");
    runTraced("mcf", PrefetchScheme::GrpVar, path, 2);
    const std::vector<obs::TraceLine> trace = records(path);
    ASSERT_FALSE(trace.empty());

    // Ticks never go backwards: the trace is an event-ordered log.
    for (size_t i = 1; i < trace.size(); ++i)
        EXPECT_GE(trace[i].t, trace[i - 1].t);

    // Per block: first issue <= first fill <= first use.
    std::map<uint64_t, uint64_t> first_issue, first_fill, first_use;
    for (const obs::TraceLine &rec : trace) {
        if (!rec.addr)
            continue;
        auto note = [&](std::map<uint64_t, uint64_t> &m) {
            m.emplace(rec.addr, rec.t);
        };
        if (rec.event == obs::TraceEvent::Issue)
            note(first_issue);
        else if (rec.event == obs::TraceEvent::Fill)
            note(first_fill);
        else if (rec.event == obs::TraceEvent::FirstUse)
            note(first_use);
    }
    ASSERT_FALSE(first_fill.empty());
    size_t chained = 0;
    for (const auto &[addr, fill_tick] : first_fill) {
        auto issue = first_issue.find(addr);
        // Stream-buffer fills have no issue record; DRAM fills do.
        if (issue != first_issue.end()) {
            EXPECT_LE(issue->second, fill_tick) << std::hex << addr;
        }
        auto use = first_use.find(addr);
        if (use != first_use.end() && use->second >= fill_tick)
            ++chained;
    }
    // At least some blocks complete the full fill -> first-use arc.
    EXPECT_GT(chained, 0u);
}

TEST(Trace, MeasuredEventsMatchRunResult)
{
    const std::string path = tracePath("grp_trace_counts.grpbin");
    const RunResult result =
        runTraced("mcf", PrefetchScheme::GrpVar, path, 2);
    const std::vector<obs::TraceLine> trace = records(path);

    uint64_t measured_use = 0, carry_use = 0, measured_fills = 0;
    std::map<obs::HintClass, uint64_t> use_by_hint, fills_by_hint;
    for (const obs::TraceLine &rec : trace) {
        if (rec.event == obs::TraceEvent::FirstUse) {
            if (measured(rec)) {
                ++measured_use;
                ++use_by_hint[rec.hint];
            } else {
                ++carry_use;
            }
        } else if (rec.event == obs::TraceEvent::Fill && measured(rec)) {
            ++measured_fills;
            ++fills_by_hint[rec.hint];
        }
    }

    // Measured first-uses reproduce the run's useful-prefetch count;
    // warmup-era uses are attributed separately.
    EXPECT_EQ(measured_use, result.usefulPrefetches);
    EXPECT_GE(carry_use, result.warmupUsefulPrefetches);

    // Every measured fill increments the prefetchFills counter (the
    // counter additionally includes boundary-straddling fills).
    EXPECT_LE(measured_fills, result.prefetchFills);
    EXPECT_GT(measured_fills, 0u);

    // Per-hint-class accuracy is recomputable: each class uses at
    // most what it filled, and the classes partition the totals.
    uint64_t use_sum = 0, fill_sum = 0;
    for (const auto &[hint, fills] : fills_by_hint) {
        EXPECT_LE(use_by_hint[hint], fills) << obs::toString(hint);
        fill_sum += fills;
    }
    for (const auto &[hint, uses] : use_by_hint)
        use_sum += uses;
    EXPECT_EQ(use_sum, measured_use);
    EXPECT_EQ(fill_sum, measured_fills);
    if (measured_fills) {
        const double trace_accuracy =
            static_cast<double>(measured_use) /
            static_cast<double>(measured_fills);
        // The trace denominator excludes boundary-straddling fills,
        // so it can only read at or above the RunResult ratio.
        EXPECT_GE(trace_accuracy + 1e-12, result.accuracy());
        EXPECT_LE(trace_accuracy, 1.0);
    }
}

TEST(Trace, EvictedUnusedMatchesCounter)
{
    const std::string path = tracePath("grp_trace_evict.grpbin");
    const RunResult result =
        runTraced("art", PrefetchScheme::Srp, path, 1, 150'000);
    const std::vector<obs::TraceLine> trace = records(path);

    // Aggressive SRP on a streaming workload must waste some fills.
    uint64_t evicted_measured_window = 0;
    for (const obs::TraceLine &rec : trace) {
        if (rec.event == obs::TraceEvent::EvictedUnused && !rec.warm)
            ++evicted_measured_window;
    }
    EXPECT_GT(evicted_measured_window, 0u);
    EXPECT_EQ(evicted_measured_window,
              result.stats.value("mem.prefetchEvictedUnused"));
}

TEST(Trace, LevelOneFiltersQueueAndStallEvents)
{
    const std::string path = tracePath("grp_trace_lvl1.grpbin");
    runTraced("mcf", PrefetchScheme::GrpVar, path, 1);
    const std::vector<obs::TraceLine> trace = records(path);
    ASSERT_FALSE(trace.empty());
    for (const obs::TraceLine &rec : trace) {
        EXPECT_NE(rec.event, obs::TraceEvent::HintTrigger);
        EXPECT_NE(rec.event, obs::TraceEvent::Enqueue);
        EXPECT_NE(rec.event, obs::TraceEvent::Drop);
        EXPECT_NE(rec.event, obs::TraceEvent::Filtered);
        EXPECT_NE(rec.event, obs::TraceEvent::Stall);
    }
}

TEST(Trace, LevelTwoAddsQueueEvents)
{
    const std::string path = tracePath("grp_trace_lvl2.grpbin");
    runTraced("mcf", PrefetchScheme::GrpVar, path, 2);
    const std::vector<obs::TraceLine> trace = records(path);
    bool saw_queue_event = false;
    for (const obs::TraceLine &rec : trace) {
        if (rec.event == obs::TraceEvent::HintTrigger || rec.event == obs::TraceEvent::Enqueue)
            saw_queue_event = true;
        EXPECT_NE(rec.event, obs::TraceEvent::Stall); // Level 3 only.
    }
    EXPECT_TRUE(saw_queue_event);
}

TEST(Trace, DisabledWhenNoPathGiven)
{
    setQuiet(true);
    SimConfig config;
    config.scheme = PrefetchScheme::GrpVar;
    RunOptions opts;
    opts.maxInstructions = 20'000;
    const uint64_t before = obs::Tracer::instance().recordsWritten();
    runWorkload("mcf", config, opts);
    EXPECT_EQ(obs::Tracer::instance().recordsWritten(), before);
    EXPECT_FALSE(obs::Tracer::instance().enabled(1));
}

} // namespace
} // namespace grp
