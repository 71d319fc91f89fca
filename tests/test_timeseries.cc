/** @file Tests for the cycle-bucketed time-series sampler: the JSON
 *  schema round-trips through the in-tree reader, the harness
 *  samples on the configured cadence, and degenerate configurations
 *  (no samples, zero bucket) behave. */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "harness/runner.hh"
#include "obs/json_reader.hh"
#include "obs/timeseries.hh"
#include "sim/logging.hh"

namespace grp
{
namespace
{

std::unique_ptr<obs::JsonValue>
parseFile(const std::string &path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in.is_open()) << path;
    std::ostringstream text;
    text << in.rdbuf();
    std::string error;
    auto doc = obs::parseJson(text.str(), &error);
    EXPECT_TRUE(doc) << error;
    return doc;
}

TEST(TimeSeries, JsonRoundTrip)
{
    obs::TimeSeries series(64);
    series.record("depth", 0, 3.0);
    series.record("depth", 64, 5.5);
    series.record("busy", 0, 1.0);

    std::ostringstream os;
    series.exportJson(os);
    std::string error;
    auto doc = obs::parseJson(os.str(), &error);
    ASSERT_TRUE(doc) << error;

    const obs::JsonValue *schema = doc->find("schema");
    ASSERT_TRUE(schema);
    EXPECT_EQ(schema->asString(), "grp-timeseries-v1");
    const obs::JsonValue *bucket = doc->find("bucket");
    ASSERT_TRUE(bucket);
    EXPECT_EQ(bucket->asNumber(), 64.0);

    const obs::JsonValue *depth = doc->findPath("series.depth");
    ASSERT_TRUE(depth);
    ASSERT_EQ(depth->find("t")->asArray().size(), 2u);
    EXPECT_EQ(depth->find("t")->asArray()[1].asNumber(), 64.0);
    EXPECT_EQ(depth->find("v")->asArray()[1].asNumber(), 5.5);
    const obs::JsonValue *busy = doc->findPath("series.busy");
    ASSERT_TRUE(busy);
    ASSERT_EQ(busy->find("v")->asArray().size(), 1u);
}

TEST(TimeSeries, EmptyRunExportsValidJson)
{
    obs::TimeSeries series(128);
    std::ostringstream os;
    series.exportJson(os);
    std::string error;
    auto doc = obs::parseJson(os.str(), &error);
    ASSERT_TRUE(doc) << error;
    const obs::JsonValue *all = doc->find("series");
    ASSERT_TRUE(all);
    EXPECT_TRUE(all->isObject());
    EXPECT_TRUE(all->asObject().empty());
    EXPECT_EQ(series.seriesCount(), 0u);
    EXPECT_EQ(series.samples("anything"), 0u);
}

TEST(TimeSeries, ZeroBucketIsFatal)
{
    setQuiet(true);
    EXPECT_THROW(obs::TimeSeries series(0), std::runtime_error);
}

TEST(TimeSeries, HarnessSamplesOnTheBucketCadence)
{
    setQuiet(true);
    const std::string path =
        ::testing::TempDir() + "grp_timeseries_cadence.json";
    SimConfig config;
    config.scheme = PrefetchScheme::GrpVar;
    RunOptions opts;
    opts.maxInstructions = 30'000;
    opts.obs.timeseriesPath = path;
    opts.obs.timeseriesBucket = 256;
    runWorkload("mcf", config, opts);

    auto doc = parseFile(path);
    ASSERT_TRUE(doc);
    EXPECT_EQ(doc->find("bucket")->asNumber(), 256.0);
    const obs::JsonValue *all = doc->find("series");
    ASSERT_TRUE(all && all->isObject());
    // The harness records every signal each time the bucket fires,
    // so all series align tick-for-tick on multiples of the bucket.
    ASSERT_FALSE(all->asObject().empty());
    size_t expected = 0;
    for (const auto &[name, series] : all->asObject()) {
        const auto &ticks = series.find("t")->asArray();
        const auto &values = series.find("v")->asArray();
        ASSERT_FALSE(ticks.empty()) << name;
        EXPECT_EQ(ticks.size(), values.size()) << name;
        if (!expected)
            expected = ticks.size();
        EXPECT_EQ(ticks.size(), expected) << name;
        for (size_t i = 0; i < ticks.size(); ++i) {
            const auto tick =
                static_cast<uint64_t>(ticks[i].asNumber());
            EXPECT_EQ(tick % 256, 0u) << name;
            if (i > 0) {
                EXPECT_GT(tick, static_cast<uint64_t>(
                                    ticks[i - 1].asNumber()))
                    << name;
            }
        }
    }
    // Expected sample count: one per bucket boundary reached.
    EXPECT_GT(expected, 1u);
    std::remove(path.c_str());
}

} // namespace
} // namespace grp
