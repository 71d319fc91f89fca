/** @file Tests for the per-hint-site profiler: unit-level funnel
 *  accounting, worst-offender ranking, the JSON export schema, and —
 *  the property the whole design hangs on — that the registry
 *  counters, the per-site table and a trace's funnel, all folds of
 *  one lifecycle record stream, agree exactly over real runs. */

#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <tuple>

#include "harness/runner.hh"
#include "obs/json_reader.hh"
#include "obs/site_profile.hh"
#include "obs/trace_reader.hh"
#include "sim/logging.hh"

namespace grp
{
namespace
{

using obs::HintClass;
using obs::TraceEvent;

/** Enables the global profiler for one test and always restores the
 *  disabled/empty state, so tests cannot leak into each other. */
class ProfilerGuard
{
  public:
    ProfilerGuard()
    {
        obs::SiteProfiler::instance().clear();
        obs::SiteProfiler::instance().setEnabled(true);
    }
    ~ProfilerGuard()
    {
        obs::SiteProfiler::instance().setEnabled(false);
        obs::SiteProfiler::instance().clear();
    }
};

/** A lifecycle record attributed to (@p ref, @p hint). */
obs::TraceRecord
record(TraceEvent event, RefId ref, HintClass hint, int64_t extra = -1,
       bool carryover = false)
{
    return {event, 0, hint, -1, extra, carryover, ref};
}

TEST(SiteProfile, FunnelAccounting)
{
    ProfilerGuard guard;
    obs::SiteProfiler &prof = obs::SiteProfiler::instance();
    const HintClass spatial = HintClass::Spatial;

    prof.note(record(TraceEvent::HintTrigger, 7, spatial));
    prof.note(record(TraceEvent::Enqueue, 7, spatial, 12));
    prof.note(record(TraceEvent::Drop, 7, spatial, 2));
    prof.note(record(TraceEvent::Issue, 7, spatial, 0));
    prof.note(record(TraceEvent::Filtered, 7, spatial));
    prof.note(record(TraceEvent::Fill, 7, spatial));
    prof.note(record(TraceEvent::FirstUse, 7, spatial, 40));
    prof.note(record(TraceEvent::Fill, 7, spatial, -1, true));
    prof.note(record(TraceEvent::FirstUse, 7, spatial, 9, true));
    prof.note(record(TraceEvent::EvictedUnused, 7, spatial));
    // Events no site column counts leave the table alone.
    prof.note(record(TraceEvent::Stall, 7, spatial, 0));
    prof.note(record(TraceEvent::EvictVictim, 7, spatial));
    prof.note(record(TraceEvent::PollutionMiss, 7, HintClass::None));

    const obs::SiteCounters *site = prof.find(7, spatial);
    ASSERT_TRUE(site);
    EXPECT_EQ(site->triggers, 1u);
    EXPECT_EQ(site->enqueued, 12u);
    EXPECT_EQ(site->dropped, 2u);
    EXPECT_EQ(site->issued, 1u);
    EXPECT_EQ(site->filtered, 1u);
    EXPECT_EQ(site->fills, 1u);
    EXPECT_EQ(site->useful, 1u);
    EXPECT_EQ(site->evictedUnused, 1u);
    EXPECT_EQ(site->warmupFills, 1u);
    EXPECT_EQ(site->warmupUseful, 1u);
    EXPECT_EQ(site->pollutionCaused, 0u);
    // Only the measured-window use sampled the distance.
    EXPECT_EQ(site->fillToUse.samples(), 1u);
    EXPECT_EQ(site->fillToUse.sum(), 40u);
    EXPECT_DOUBLE_EQ(site->accuracy(), 1.0);

    // The same ref under a different hint class is a distinct site.
    prof.note(record(TraceEvent::Issue, 7, HintClass::Pointer, 1));
    EXPECT_EQ(prof.siteCount(), 2u);
    EXPECT_FALSE(prof.find(8, spatial));

    // Aggregate StatGroup mirrors the table's column sums.
    EXPECT_EQ(prof.stats().value("issued"), 2u);
    EXPECT_EQ(prof.stats().value("enqueued"), 12u);
    EXPECT_EQ(prof.stats().value("useful"), 1u);
    EXPECT_EQ(prof.stats().value("sitesTracked"), 2u);
}

TEST(SiteProfile, DisabledProfilerRecordsNothing)
{
    obs::SiteProfiler &prof = obs::SiteProfiler::instance();
    prof.clear();
    ASSERT_FALSE(prof.enabled());
    // The fold still counts the issue but checks enabled() before
    // forwarding it to the profiler.
    StatGroup mem("mem");
    obs::ClassCountTable by_class{};
    obs::LifecycleFold fold;
    fold.bindMemory(mem, by_class);
    fold.note({TraceEvent::Issue, 64, HintClass::Spatial, 0, 0, false, 3});
    EXPECT_EQ(mem.value("prefetchesIssued"), 1u);
    EXPECT_EQ(prof.siteCount(), 0u);
}

TEST(SiteProfile, InvalidRefProfilesAsUnattributedSite)
{
    ProfilerGuard guard;
    obs::SiteProfiler &prof = obs::SiteProfiler::instance();
    prof.note(record(TraceEvent::Fill, kInvalidRefId, HintClass::Pointer));
    ASSERT_EQ(prof.siteCount(), 1u);
    EXPECT_EQ(prof.sites().begin()->first.site(), -1);
}

TEST(SiteProfile, RankedOrdersWorstFirst)
{
    ProfilerGuard guard;
    obs::SiteProfiler &prof = obs::SiteProfiler::instance();

    // Site 1: accurate. Site 2: wasteful. Site 3: issued, no result.
    prof.note(record(TraceEvent::Issue, 1, HintClass::Spatial));
    prof.note(record(TraceEvent::Fill, 1, HintClass::Spatial));
    prof.note(record(TraceEvent::FirstUse, 1, HintClass::Spatial, 5));
    for (int i = 0; i < 3; ++i) {
        prof.note(record(TraceEvent::Issue, 2, HintClass::Pointer));
        prof.note(record(TraceEvent::Fill, 2, HintClass::Pointer));
        prof.note(record(TraceEvent::EvictedUnused, 2, HintClass::Pointer));
    }
    prof.note(record(TraceEvent::Issue, 3, HintClass::Indirect));

    const auto ranked = prof.ranked();
    ASSERT_EQ(ranked.size(), 3u);
    // Most wasted fills first; ties break toward lower accuracy.
    EXPECT_EQ(ranked[0]->first.ref, 2u);
    EXPECT_EQ(ranked[1]->first.ref, 3u);
    EXPECT_EQ(ranked[2]->first.ref, 1u);

    std::ostringstream report;
    prof.writeReport(report, 2);
    EXPECT_NE(report.str().find("pointer"), std::string::npos);
    // Top-2 report must not contain the healthy site.
    EXPECT_EQ(report.str().find("spatial"), std::string::npos);
}

TEST(SiteProfile, ExportJsonSchema)
{
    ProfilerGuard guard;
    obs::SiteProfiler &prof = obs::SiteProfiler::instance();
    prof.note(record(TraceEvent::Issue, 5, HintClass::Spatial));
    prof.note(record(TraceEvent::Fill, 5, HintClass::Spatial));
    prof.note(record(TraceEvent::FirstUse, 5, HintClass::Spatial, 17));

    std::ostringstream os;
    prof.exportJson(os);
    std::string error;
    auto doc = obs::parseJson(os.str(), &error);
    ASSERT_TRUE(doc) << error;
    EXPECT_EQ(doc->find("schema")->asString(), "grp-site-profile-v1");
    const obs::JsonValue *sites = doc->find("sites");
    ASSERT_TRUE(sites && sites->isArray());
    ASSERT_EQ(sites->asArray().size(), 1u);
    const obs::JsonValue &site = sites->asArray()[0];
    EXPECT_EQ(site.find("site")->asNumber(), 5.0);
    EXPECT_EQ(site.find("hint")->asString(), "spatial");
    EXPECT_EQ(site.find("useful")->asNumber(), 1.0);
    EXPECT_EQ(site.findPath("fillToUse.p50")->asNumber(), 17.0);
    EXPECT_EQ(doc->findPath("totals.issued")->asNumber(), 1.0);
}

/** One (scheme, kernel) run of the reconciliation below. */
using FoldCase = std::tuple<PrefetchScheme, const char *>;

class SiteProfileReconcile : public ::testing::TestWithParam<FoldCase>
{
};

/** The acceptance criterion for the lifecycle fold: over the measured
 *  window of a real run, each registry counter equals its site-profile
 *  total, each total equals the measured column of the funnel
 *  analyzeTrace() recomputes from a level-2 trace, and the exported
 *  per-site rows sum to the totals. */
TEST_P(SiteProfileReconcile, ReconcilesWithRegistryTotals)
{
    setQuiet(true);
    const auto [scheme, workload] = GetParam();
    const std::string stem = ::testing::TempDir() + "grp_reconcile_" +
                             workload + "_" +
                             std::to_string(static_cast<int>(scheme));
    SimConfig config;
    config.scheme = scheme;
    RunOptions opts;
    opts.maxInstructions = 300'000;
    opts.obs.shadow = true;
    opts.obs.siteProfilePath = stem + ".json";
    opts.obs.tracePath = stem + ".grpbin";
    opts.obs.traceLevel = 2;
    const RunResult result = runWorkload(workload, config, opts);
    ASSERT_GT(result.prefetchFills, 0u);
    const obs::StatSnapshot &stats = result.stats;
    const auto total = [&](const std::string &column) {
        return stats.value("siteProfile." + column);
    };

    // Registry counters == site-profile totals.
    EXPECT_EQ(stats.value("mem.prefetchesIssued"), total("issued"));
    EXPECT_EQ(stats.value("mem.prefetchFiltered"), total("filtered"));
    EXPECT_EQ(stats.value("mem.usefulPrefetches"), total("useful"));
    EXPECT_EQ(stats.value("mem.usefulPrefetchWarmupCarryover"),
              total("warmupUseful"));
    EXPECT_EQ(stats.value("mem.prefetchEvictedUnused"),
              total("evictedUnused"));
    EXPECT_EQ(stats.value("regionQueue.candidatesDropped"),
              total("dropped"));
    EXPECT_EQ(stats.value("mem.pollutionAttributed"),
              total("pollutionCaused"));

    // Site-profile totals == the trace funnel's measured columns.
    const obs::TraceParseResult trace =
        obs::readTraceFile(opts.obs.tracePath);
    ASSERT_TRUE(trace.errors.empty()) << trace.errors.front();
    const obs::TraceAnalysis analysis = obs::analyzeTrace(trace.lines);
    EXPECT_TRUE(analysis.violations.empty())
        << analysis.violations.front().message;
    obs::FunnelStats funnel;
    for (const auto &[hint, cls] : analysis.byClass) {
        funnel.triggers += cls.triggers;
        funnel.enqueued += cls.enqueued;
        funnel.dropped += cls.dropped;
        funnel.issued += cls.issued;
        funnel.filtered += cls.filtered;
        funnel.fills += cls.fills;
        funnel.useful += cls.useful;
        funnel.evictedUnused += cls.evictedUnused;
        funnel.pollutionMisses += cls.pollutionMisses;
    }
    EXPECT_EQ(total("issued"), funnel.issued);
    EXPECT_EQ(total("filtered"), funnel.filtered);
    EXPECT_EQ(total("fills"), funnel.fills);
    EXPECT_EQ(total("useful"), funnel.useful);
    EXPECT_EQ(total("evictedUnused"), funnel.evictedUnused);
    EXPECT_EQ(total("dropped"), funnel.dropped);
    EXPECT_EQ(total("enqueued"), funnel.enqueued);
    EXPECT_EQ(total("triggers"), funnel.triggers);
    EXPECT_EQ(funnel.pollutionMisses, stats.value("mem.pollutionMisses"));

    // The exported rows sum to the totals, and every measured first
    // use sampled its site's fill-to-use distance.
    std::ifstream in(opts.obs.siteProfilePath);
    std::ostringstream text;
    text << in.rdbuf();
    std::string error;
    auto doc = obs::parseJson(text.str(), &error);
    ASSERT_TRUE(doc) << error;
    uint64_t issued = 0, samples = 0;
    for (const obs::JsonValue &row : doc->find("sites")->asArray()) {
        issued += static_cast<uint64_t>(row.find("issued")->asNumber());
        samples += static_cast<uint64_t>(
            row.findPath("fillToUse.samples")->asNumber());
    }
    EXPECT_EQ(issued, total("issued"));
    EXPECT_EQ(issued, result.prefetchFills);
    EXPECT_EQ(samples, result.usefulPrefetches);

    // The run-scoped guard restored the global profiler.
    EXPECT_FALSE(obs::SiteProfiler::instance().enabled());
    EXPECT_EQ(obs::SiteProfiler::instance().siteCount(), 0u);
    std::remove(opts.obs.siteProfilePath.c_str());
    std::remove(opts.obs.tracePath.c_str());
}

INSTANTIATE_TEST_SUITE_P(
    SchemesByKernel, SiteProfileReconcile,
    ::testing::Combine(
        ::testing::Values(PrefetchScheme::Srp,
                          PrefetchScheme::SrpPlusPointer,
                          PrefetchScheme::SrpThrottled,
                          PrefetchScheme::GrpVar,
                          PrefetchScheme::GrpAdaptive,
                          PrefetchScheme::Stride),
        ::testing::Values("mcf", "art", "bzip2")),
    [](const ::testing::TestParamInfo<FoldCase> &info) {
        std::string name = std::string(toString(std::get<0>(info.param))) +
                           "_" + std::get<1>(info.param);
        for (char &c : name)
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        return name;
    });

/** The accuracy-clamp counter registers as an explicit zero, so its
 *  absence can never be confused with health. */
TEST(SiteProfile, AccuracyClampCounterExportsZero)
{
    setQuiet(true);
    SimConfig config;
    config.scheme = PrefetchScheme::GrpVar;
    RunOptions opts;
    opts.maxInstructions = 20'000;
    const RunResult result = runWorkload("mcf", config, opts);
    ASSERT_TRUE(result.stats.counters.count("mem.accuracyClampEvents"));
    EXPECT_EQ(result.stats.value("mem.accuracyClampEvents"), 0u);
    EXPECT_LE(result.usefulPrefetches, result.prefetchFills);
}

} // namespace
} // namespace grp
