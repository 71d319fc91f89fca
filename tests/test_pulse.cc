/** @file Unit tests for the live-telemetry pulse subsystem. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "harness/runner.hh"
#include "obs/json_reader.hh"
#include "obs/pulse.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"

namespace grp
{
namespace
{

std::string
tempPath(const std::string &name)
{
    return ::testing::TempDir() + name;
}

std::string
slurp(const std::string &path)
{
    std::ifstream file(path);
    std::stringstream ss;
    ss << file.rdbuf();
    return ss.str();
}

obs::PulseAnalysis
analyzeString(const std::string &text)
{
    std::istringstream is(text);
    return obs::analyzePulse(is);
}

obs::PulseAnalysis
analyzeFile(const std::string &path)
{
    std::ifstream is(path);
    return obs::analyzePulse(is);
}

class PulseTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        setQuiet(true);
        obs::clearStopRequest();
        obs::setPulseJobLabel(std::string());
    }

    void TearDown() override
    {
        obs::clearStopRequest();
        obs::setPulseJobLabel(std::string());
    }
};

obs::PulseSample
sample(uint64_t instructions, uint64_t cycles)
{
    obs::PulseSample s;
    s.instructions = instructions;
    s.cycles = cycles;
    return s;
}

TEST_F(PulseTest, MeterDerivesIntervalFromTarget)
{
    obs::PulseRunMeta meta;
    meta.targetInstructions = 250'000;
    obs::PulseMeter meter(nullptr, true, PulseConfig{}, meta);
    EXPECT_EQ(meter.intervalInstructions(), 2500u);

    meta.targetInstructions = 50'000; // 1% would be 500 -> floor 1000
    obs::PulseMeter small(nullptr, true, PulseConfig{}, meta);
    EXPECT_EQ(small.intervalInstructions(), 1000u);

    PulseConfig config;
    config.intervalInstructions = 12'345; // Explicit beats derived.
    obs::PulseMeter fixed(nullptr, true, config, meta);
    EXPECT_EQ(fixed.intervalInstructions(), 12'345u);
    EXPECT_FALSE(fixed.due(12'344));
    EXPECT_TRUE(fixed.due(12'345));
}

TEST_F(PulseTest, SingleRunStreamSealsHealthy)
{
    const std::string path = tempPath("pulse_healthy.jsonl");
    {
        auto sink = std::make_shared<obs::PulseSink>(path);
        ASSERT_TRUE(sink->ok());
        obs::PulseRunMeta meta;
        meta.workload = "mcf";
        meta.scheme = "grp-var";
        meta.seed = 7;
        meta.targetInstructions = 10'000;
        obs::PulseMeter meter(sink, true, PulseConfig{}, meta);
        meter.beat(sample(1000, 400));
        meter.beat(sample(2000, 800));
        meter.finish(sample(10'000, 4000), false, "completed");
    }
    const obs::PulseAnalysis analysis = analyzeFile(path);
    EXPECT_EQ(analysis.verdict, obs::PulseVerdict::Healthy);
    EXPECT_TRUE(analysis.sealed);
    EXPECT_FALSE(analysis.partial);
    EXPECT_EQ(analysis.beats, 3u); // finish() emits the final beat.
    EXPECT_EQ(analysis.warnings, 0u);
    ASSERT_EQ(analysis.jobs.size(), 1u);
    const obs::PulseJobSummary &job = analysis.jobs.begin()->second;
    EXPECT_EQ(job.workload, "mcf");
    EXPECT_EQ(job.scheme, "grp-var");
    EXPECT_EQ(job.instructions, 10'000u);
    EXPECT_EQ(job.targetInstructions, 10'000u);
    EXPECT_TRUE(job.ended);
    EXPECT_FALSE(job.partial);
    std::remove(path.c_str());
}

TEST_F(PulseTest, PartialSealIsHealthyButMarked)
{
    const std::string path = tempPath("pulse_partial.jsonl");
    {
        auto sink = std::make_shared<obs::PulseSink>(path);
        obs::PulseRunMeta meta;
        meta.targetInstructions = 100'000;
        obs::PulseMeter meter(sink, true, PulseConfig{}, meta);
        meter.beat(sample(1000, 500));
        meter.finish(sample(1500, 700), true, "interrupted");
    }
    const obs::PulseAnalysis analysis = analyzeFile(path);
    EXPECT_EQ(analysis.verdict, obs::PulseVerdict::Healthy);
    EXPECT_TRUE(analysis.sealed);
    EXPECT_TRUE(analysis.partial);
    ASSERT_EQ(analysis.jobs.size(), 1u);
    EXPECT_TRUE(analysis.jobs.begin()->second.partial);
    std::remove(path.c_str());
}

TEST_F(PulseTest, UnsealedStreamIsTruncated)
{
    const std::string path = tempPath("pulse_trunc.jsonl");
    {
        auto sink = std::make_shared<obs::PulseSink>(path);
        obs::PulseRunMeta meta;
        meta.targetInstructions = 10'000;
        obs::PulseMeter meter(sink, true, PulseConfig{}, meta);
        meter.beat(sample(1000, 400));
        // Simulate a kill -9: drop the sink without finish()/seal()
        // by re-reading the live file *before* destruction.
        const obs::PulseAnalysis live = analyzeFile(path);
        EXPECT_EQ(live.verdict, obs::PulseVerdict::Truncated);
        EXPECT_FALSE(live.sealed);
        EXPECT_EQ(live.beats, 1u);
    }
    std::remove(path.c_str());
}

TEST_F(PulseTest, TornTailCountsAsTruncatedNotMalformed)
{
    std::string text =
        "{\"ev\":\"start\",\"seq\":0,\"tMonoNs\":10,"
        "\"schema\":\"grp-pulse-v1\",\"workload\":\"mcf\","
        "\"scheme\":\"srp\",\"seed\":1,\"targetInstructions\":1000,"
        "\"intervalInstructions\":100,\"wallFloorMillis\":250,"
        "\"pid\":1}\n"
        "{\"ev\":\"beat\",\"seq\":1,\"tMonoNs\":20,\"instructions\":"
        "100,\"cycles\":50,\"instPerSec\":1.0,\"dInstructions\":100}\n"
        "{\"ev\":\"beat\",\"seq\":2,\"tMo"; // torn mid-record
    const obs::PulseAnalysis analysis = analyzeString(text);
    EXPECT_EQ(analysis.verdict, obs::PulseVerdict::Truncated);
    EXPECT_TRUE(analysis.tornTail);
}

TEST_F(PulseTest, WatchdogWarningsMakeStreamStalled)
{
    const std::string path = tempPath("pulse_stalled.jsonl");
    {
        auto sink = std::make_shared<obs::PulseSink>(path);
        obs::PulseRunMeta meta;
        meta.targetInstructions = 100'000;
        obs::PulseMeter meter(sink, true, PulseConfig{}, meta);
        meter.beat(sample(1000, 5000));
        // Zero instructions across a wall-floor beat with real
        // simulated progress: the definition of a stalled sim.
        meter.beat(sample(1000, 50'000));
        EXPECT_EQ(meter.warnings(), 1u);
        meter.finish(sample(1000, 60'000), false, "completed");
    }
    const obs::PulseAnalysis analysis = analyzeFile(path);
    EXPECT_EQ(analysis.verdict, obs::PulseVerdict::Stalled);
    EXPECT_GE(analysis.warnings, 1u);
    EXPECT_TRUE(analysis.sealed);
    std::remove(path.c_str());
}

TEST_F(PulseTest, HostDeschedulingIsNotAStall)
{
    const std::string path = tempPath("pulse_desched.jsonl");
    {
        auto sink = std::make_shared<obs::PulseSink>(path);
        obs::PulseRunMeta meta;
        meta.targetInstructions = 100'000;
        obs::PulseMeter meter(sink, true, PulseConfig{}, meta);
        meter.beat(sample(1000, 5000));
        // Wall floor fired after the host thread was descheduled:
        // almost no cycles simulated, so no verdict on the sim.
        meter.beat(sample(1000, 5010));
        EXPECT_EQ(meter.warnings(), 0u);
        meter.finish(sample(2000, 9000), false, "completed");
    }
    EXPECT_EQ(analyzeFile(path).verdict, obs::PulseVerdict::Healthy);
    std::remove(path.c_str());
}

TEST_F(PulseTest, SlowdownWarningsAreAdvisoryNotStalled)
{
    // Slowdown warns compare wall-clock inst/s, which a noisy host
    // can depress in a healthy run — they appear in the stream and
    // the warning counts, but must not flip the verdict the way a
    // (simulated-cycle-gated) stall warn does.
    const std::string path = tempPath("pulse_slowdown.jsonl");
    {
        auto sink = std::make_shared<obs::PulseSink>(path);
        obs::PulseRunMeta meta;
        meta.targetInstructions = 10'000'000;
        obs::PulseMeter meter(sink, true, PulseConfig{}, meta);
        // Establish a healthy baseline: huge instruction deltas per
        // (microsecond-scale) beat gap.
        uint64_t inst = 0, cycles = 0;
        for (int i = 0; i < 4; ++i) {
            inst += 1'000'000;
            cycles += 1'000'000;
            meter.beat(sample(inst, cycles));
        }
        // Then collapse: one instruction per beat is orders of
        // magnitude below the EMA however fast the loop runs.
        for (int i = 0; i < 6; ++i) {
            inst += 1;
            cycles += 10;
            meter.beat(sample(inst, cycles));
        }
        EXPECT_GE(meter.warnings(), 1u);
        meter.finish(sample(inst + 1, cycles + 10), false,
                     "completed");
    }
    const obs::PulseAnalysis analysis = analyzeFile(path);
    EXPECT_GE(analysis.warnings, 1u);
    EXPECT_EQ(analysis.verdict, obs::PulseVerdict::Healthy);
    EXPECT_TRUE(analysis.sealed);
    std::remove(path.c_str());
}

TEST_F(PulseTest, MultiplexedJobsEndIndependently)
{
    const std::string path = tempPath("pulse_mux.jsonl");
    {
        auto sink = std::make_shared<obs::PulseSink>(path);
        obs::PulseRunMeta a, b;
        a.job = "mcf/srp";
        a.workload = "mcf";
        a.scheme = "srp";
        a.targetInstructions = 10'000;
        b.job = "gzip/none";
        b.workload = "gzip";
        b.scheme = "none";
        b.targetInstructions = 20'000;
        obs::PulseMeter ma(sink, false, PulseConfig{}, a);
        obs::PulseMeter mb(sink, false, PulseConfig{}, b);
        ma.beat(sample(1000, 500));
        mb.beat(sample(2000, 900));
        ma.finish(sample(10'000, 4000), false, "completed");
        mb.finish(sample(20'000, 9000), false, "completed");
        sink->seal(false, "completed");
    }
    const obs::PulseAnalysis analysis = analyzeFile(path);
    EXPECT_EQ(analysis.verdict, obs::PulseVerdict::Healthy);
    ASSERT_EQ(analysis.jobs.size(), 2u);
    EXPECT_TRUE(analysis.jobs.count("mcf/srp"));
    EXPECT_TRUE(analysis.jobs.count("gzip/none"));
    for (const auto &[name, job] : analysis.jobs) {
        EXPECT_TRUE(job.ended) << name;
        EXPECT_FALSE(job.partial) << name;
    }
    std::remove(path.c_str());
}

TEST_F(PulseTest, SeqRegressionIsMalformed)
{
    std::string text =
        "{\"ev\":\"beat\",\"seq\":5,\"tMonoNs\":10,\"instructions\":"
        "100}\n"
        "{\"ev\":\"beat\",\"seq\":4,\"tMonoNs\":20,\"instructions\":"
        "200}\n";
    const obs::PulseAnalysis analysis = analyzeString(text);
    EXPECT_EQ(analysis.verdict, obs::PulseVerdict::Malformed);
    EXPECT_FALSE(analysis.problems.empty());
}

TEST_F(PulseTest, GarbageInteriorLineIsMalformed)
{
    std::string text =
        "{\"ev\":\"beat\",\"seq\":0,\"tMonoNs\":10,\"instructions\":"
        "100}\n"
        "not json at all\n"
        "{\"ev\":\"beat\",\"seq\":1,\"tMonoNs\":20,\"instructions\":"
        "200}\n";
    EXPECT_EQ(analyzeString(text).verdict,
              obs::PulseVerdict::Malformed);
}

TEST_F(PulseTest, DeeplyNestedRecordIsMalformedNotACrash)
{
    std::string deep = "{\"ev\":\"beat\",\"seq\":1,\"x\":";
    deep += std::string(200'000, '[');
    std::string text =
        "{\"ev\":\"beat\",\"seq\":0,\"tMonoNs\":10,\"instructions\":"
        "100}\n" +
        deep + "\n" +
        "{\"ev\":\"beat\",\"seq\":2,\"tMonoNs\":20,\"instructions\":"
        "200}\n";
    const obs::PulseAnalysis analysis = analyzeString(text);
    EXPECT_EQ(analysis.verdict, obs::PulseVerdict::Malformed);
    ASSERT_FALSE(analysis.problems.empty());
    EXPECT_NE(analysis.problems[0].find("line 2"), std::string::npos);
}

TEST_F(PulseTest, NonIntegerCounterFieldIsMalformed)
{
    // Valid JSON numbers (and non-numbers) that no uint64_t holds:
    // each must mark the record malformed and name the field, never
    // be cast.
    for (const char *value :
         {"-1", "1.5", "1e300", "18446744073709551616", "\"7\"", "null",
          "true", "[]"}) {
        for (const char *field : {"seq", "tMonoNs", "instructions"}) {
            std::string record = "{\"ev\":\"beat\",\"seq\":1,"
                                 "\"tMonoNs\":10,\"instructions\":100}";
            const std::string key = std::string("\"") + field + "\":";
            const size_t at = record.find(key) + key.size();
            record.replace(at, record.find_first_of(",}", at) - at, value);
            const std::string text =
                record + "\n{\"ev\":\"seal\",\"seq\":2,\"tMonoNs\":"
                         "20,\"partial\":false}\n";
            const obs::PulseAnalysis analysis = analyzeString(text);
            EXPECT_EQ(analysis.verdict, obs::PulseVerdict::Malformed)
                << record;
            bool named = false;
            for (const std::string &problem : analysis.problems) {
                if (problem.find(std::string("'") + field + "'") !=
                    std::string::npos)
                    named = true;
            }
            EXPECT_TRUE(named) << record;
        }
    }
}

TEST_F(PulseTest, CorruptStreamsAlwaysEndInAVerdict)
{
    const std::string path = tempPath("pulse_fuzz.jsonl");
    SimConfig config;
    config.scheme = PrefetchScheme::GrpVar;
    RunOptions opts;
    opts.maxInstructions = 20'000;
    opts.obs.pulsePath = path;
    opts.obs.pulse.intervalInstructions = 1'000;
    runWorkload("mcf", config, opts);
    const std::string data = slurp(path);
    std::remove(path.c_str());
    ASSERT_EQ(analyzeString(data).verdict, obs::PulseVerdict::Healthy);
    ASSERT_GT(data.size(), 1000u);

    auto verdictOf = [](const std::string &text) {
        const obs::PulseAnalysis analysis = analyzeString(text);
        EXPECT_TRUE(analysis.verdict == obs::PulseVerdict::Healthy ||
                    !analysis.problems.empty());
        return analysis.verdict;
    };

    // Every truncation point at a fixed stride: short of the seal's
    // last character the stream is never healthy.
    const size_t stride = std::max<size_t>(1, data.size() / 2048);
    for (size_t cut = 0; cut + 1 < data.size(); cut += stride) {
        EXPECT_NE(verdictOf(data.substr(0, cut)),
                  obs::PulseVerdict::Healthy)
            << "truncated at " << cut;
    }

    // Fixed-seed byte flips and deletions anywhere in the stream.
    Rng rng(0x70756c73656675ull);
    for (int i = 0; i < 2000; ++i) {
        std::string damaged = data;
        const size_t pos = rng.below(damaged.size());
        damaged[pos] = static_cast<char>(
            damaged[pos] ^ static_cast<char>(1u << rng.below(8)));
        verdictOf(damaged);
    }
    for (int i = 0; i < 1000; ++i) {
        std::string damaged = data;
        const size_t pos = rng.below(damaged.size());
        damaged.erase(pos, 1 + rng.below(16));
        verdictOf(damaged);
    }
}

TEST_F(PulseTest, RecordAfterSealIsMalformed)
{
    std::string text =
        "{\"ev\":\"beat\",\"seq\":0,\"tMonoNs\":10,\"instructions\":"
        "100}\n"
        "{\"ev\":\"seal\",\"seq\":1,\"tMonoNs\":20,\"beats\":1,"
        "\"warnings\":0,\"partial\":false,\"reason\":\"completed\"}\n"
        "{\"ev\":\"beat\",\"seq\":2,\"tMonoNs\":30,\"instructions\":"
        "200}\n";
    EXPECT_EQ(analyzeString(text).verdict,
              obs::PulseVerdict::Malformed);
}

TEST_F(PulseTest, InstructionCounterRegressionIsMalformed)
{
    std::string text =
        "{\"ev\":\"beat\",\"seq\":0,\"tMonoNs\":10,\"instructions\":"
        "5000}\n"
        "{\"ev\":\"beat\",\"seq\":1,\"tMonoNs\":20,\"instructions\":"
        "4000}\n";
    EXPECT_EQ(analyzeString(text).verdict,
              obs::PulseVerdict::Malformed);
}

TEST_F(PulseTest, WarmupCounterResetDoesNotWrapDeltas)
{
    const std::string path = tempPath("pulse_reset.jsonl");
    {
        auto sink = std::make_shared<obs::PulseSink>(path);
        obs::PulseRunMeta meta;
        meta.targetInstructions = 10'000;
        obs::PulseMeter meter(sink, true, PulseConfig{}, meta);
        obs::PulseSample before = sample(1000, 500);
        before.prefetchFills = 800;
        meter.beat(before);
        // Warmup boundary reset the mem counters to near zero; the
        // delta must be the post-reset value, not a uint64 wrap.
        obs::PulseSample after = sample(2000, 900);
        after.prefetchFills = 50;
        meter.beat(after);
        meter.finish(after, false, "completed");
    }
    std::string error;
    std::istringstream is(slurp(path));
    std::string line;
    bool checked = false;
    while (std::getline(is, line)) {
        const auto record = obs::parseJson(line, &error);
        ASSERT_TRUE(record) << error;
        const obs::JsonValue *ev = record->find("ev");
        const obs::JsonValue *fills = record->find("dFills");
        if (ev && ev->asString() == "beat" && fills &&
            fills->asNumber() == 50.0)
            checked = true;
        if (fills) {
            EXPECT_LT(fills->asNumber(), 1e9);
        }
    }
    EXPECT_TRUE(checked);
    std::remove(path.c_str());
}

TEST_F(PulseTest, RunnerEmitsHealthySealedStream)
{
    const std::string pulse_path = tempPath("pulse_run.jsonl");
    SimConfig config;
    config.scheme = PrefetchScheme::Srp;
    RunOptions opts;
    opts.maxInstructions = 40'000;
    opts.obs.pulsePath = pulse_path;
    const RunResult result = runWorkload("mcf", config, opts);
    EXPECT_FALSE(result.partial);
    const obs::PulseAnalysis analysis = analyzeFile(pulse_path);
    EXPECT_EQ(analysis.verdict, obs::PulseVerdict::Healthy);
    EXPECT_TRUE(analysis.sealed);
    EXPECT_GT(analysis.beats, 10u);
    ASSERT_EQ(analysis.jobs.size(), 1u);
    const obs::PulseJobSummary &job = analysis.jobs.begin()->second;
    EXPECT_EQ(job.workload, "mcf");
    EXPECT_EQ(job.targetInstructions, 50'000u); // + warmup quarter
    EXPECT_GE(job.instructions, 50'000u);
    std::remove(pulse_path.c_str());
}

TEST_F(PulseTest, RunnerPulseOffChangesNothing)
{
    // Identical runs with and without telemetry must agree on every
    // simulated number — the beat hooks observe, never perturb.
    SimConfig config;
    config.scheme = PrefetchScheme::GrpVar;
    RunOptions plain;
    plain.maxInstructions = 30'000;
    const RunResult base = runWorkload("equake", config, plain);
    RunOptions pulsed = plain;
    pulsed.obs.pulsePath = tempPath("pulse_identity.jsonl");
    const RunResult with = runWorkload("equake", config, pulsed);
    EXPECT_EQ(base.cycles, with.cycles);
    EXPECT_EQ(base.instructions, with.instructions);
    EXPECT_EQ(base.prefetchFills, with.prefetchFills);
    EXPECT_EQ(base.usefulPrefetches, with.usefulPrefetches);
    std::remove(pulsed.obs.pulsePath.c_str());
}

TEST_F(PulseTest, StopRequestYieldsPartialResultAndMarkedExports)
{
    const std::string stats_path = tempPath("pulse_stop_stats.json");
    const std::string pulse_path = tempPath("pulse_stop.jsonl");
    SimConfig config;
    RunOptions opts;
    opts.maxInstructions = 400'000; // Long enough to hit the mask.
    opts.obs.pulsePath = pulse_path;
    opts.obs.statsJsonPath = stats_path;
    obs::requestStop();
    const RunResult result = runWorkload("mcf", config, opts);
    obs::clearStopRequest();
    EXPECT_TRUE(result.partial);
    EXPECT_LT(result.instructions + result.cycles, 500'000u);

    std::string error;
    const auto stats = obs::parseJson(slurp(stats_path), &error);
    ASSERT_TRUE(stats) << error;
    const obs::JsonValue *partial = stats->find("partial");
    ASSERT_NE(partial, nullptr);
    EXPECT_TRUE(partial->asBool());

    const obs::PulseAnalysis analysis = analyzeFile(pulse_path);
    EXPECT_EQ(analysis.verdict, obs::PulseVerdict::Healthy);
    EXPECT_TRUE(analysis.sealed);
    EXPECT_TRUE(analysis.partial);
    std::remove(stats_path.c_str());
    std::remove(pulse_path.c_str());
}

TEST_F(PulseTest, StopWorksWithoutPulse)
{
    SimConfig config;
    RunOptions opts;
    opts.maxInstructions = 400'000;
    obs::requestStop();
    const RunResult result = runWorkload("gzip", config, opts);
    obs::clearStopRequest();
    EXPECT_TRUE(result.partial);
}

TEST_F(PulseTest, AnalyzeEmptyStreamIsTruncated)
{
    EXPECT_EQ(analyzeString("").verdict, obs::PulseVerdict::Truncated);
}

TEST_F(PulseTest, PulseConfigValidation)
{
    PulseConfig bad;
    bad.dropPct = 120.0;
    EXPECT_THROW(bad.validate(), std::runtime_error);
    bad = PulseConfig{};
    bad.dropSustainBeats = 0;
    EXPECT_THROW(bad.validate(), std::runtime_error);
}

} // namespace
} // namespace grp
