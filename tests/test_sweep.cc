/**
 * @file
 * Sweep-executor tests: the determinism invariant (parallel results
 * are exactly the serial results, and recording-fed jobs are exactly
 * standalone runs, and concurrent readers of one recording see one
 * stream), outcome ordering, exception capture, and concurrent
 * StatRegistry isolation.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "harness/replay.hh"
#include "harness/sweep.hh"
#include "mem/cache.hh"
#include "obs/stat_registry.hh"
#include "op_stream.hh"
#include "sim/logging.hh"

namespace grp
{
namespace
{

RunOptions
quickOptions()
{
    RunOptions opts;
    opts.maxInstructions = 30'000;
    opts.warmupInstructions = 7'500;
    return opts;
}

std::vector<SweepJob>
fourJobs()
{
    const RunOptions opts = quickOptions();
    std::vector<SweepJob> jobs;
    const struct
    {
        const char *workload;
        PrefetchScheme scheme;
    } grid[] = {
        {"gzip", PrefetchScheme::None},
        {"mcf", PrefetchScheme::Srp},
        {"equake", PrefetchScheme::GrpVar},
        {"twolf", PrefetchScheme::Stride},
    };
    for (const auto &cell : grid) {
        jobs.push_back(SweepJob{
            std::string(cell.workload) + "/" + toString(cell.scheme),
            [workload = std::string(cell.workload),
             scheme = cell.scheme, opts] {
                SimConfig config;
                config.scheme = scheme;
                return runWorkload(workload, config, opts);
            }});
    }
    return jobs;
}

void
expectResultsEqual(const RunResult &a, const RunResult &b)
{
    EXPECT_EQ(a.workload, b.workload);
    EXPECT_EQ(a.scheme, b.scheme);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_DOUBLE_EQ(a.ipc, b.ipc);
    EXPECT_EQ(a.trafficBytes, b.trafficBytes);
    EXPECT_EQ(a.l2DemandAccesses, b.l2DemandAccesses);
    EXPECT_EQ(a.l2MissesTotal, b.l2MissesTotal);
    EXPECT_EQ(a.l2MissesToMemory, b.l2MissesToMemory);
    EXPECT_EQ(a.prefetchFills, b.prefetchFills);
    EXPECT_EQ(a.usefulPrefetches, b.usefulPrefetches);
    EXPECT_EQ(a.warmupUsefulPrefetches, b.warmupUsefulPrefetches);
    EXPECT_EQ(a.regionSizes, b.regionSizes);
    // Every counter the simulation registered, not just the headline
    // scalars: any cross-job interference shows up here first.
    EXPECT_EQ(a.stats.counters, b.stats.counters);
    ASSERT_EQ(a.stats.distributions.size(),
              b.stats.distributions.size());
    auto bit = b.stats.distributions.begin();
    for (const auto &[name, dist] : a.stats.distributions) {
        EXPECT_EQ(name, bit->first);
        EXPECT_EQ(dist.samples, bit->second.samples);
        EXPECT_EQ(dist.sum, bit->second.sum);
        EXPECT_EQ(dist.maxValue, bit->second.maxValue);
        ++bit;
    }
}

TEST(Sweep, ParallelMatchesSerialExactly)
{
    setQuiet(true);
    const std::vector<SweepOutcome> serial = runSweep(fourJobs(), 1);
    const std::vector<SweepOutcome> parallel =
        runSweep(fourJobs(), 4);

    ASSERT_EQ(serial.size(), 4u);
    ASSERT_EQ(parallel.size(), 4u);
    for (size_t i = 0; i < serial.size(); ++i) {
        SCOPED_TRACE(serial[i].label);
        EXPECT_FALSE(serial[i].failed) << serial[i].error;
        EXPECT_FALSE(parallel[i].failed) << parallel[i].error;
        EXPECT_EQ(serial[i].label, parallel[i].label);
        expectResultsEqual(serial[i].result, parallel[i].result);
    }
}

// The adaptive controller reads only per-run state, so a GrpAdaptive
// sweep must stay bit-identical at any thread count — including the
// controller's own stat group (epochs, transitions, time-in-state).
TEST(Sweep, AdaptiveSchemeIsDeterministicAcrossThreadCounts)
{
    setQuiet(true);
    const RunOptions opts = quickOptions();
    auto jobs = [&] {
        std::vector<SweepJob> out;
        for (const char *workload : {"mcf", "equake", "twolf"}) {
            out.push_back(SweepJob{
                std::string(workload) + "/grp-adaptive",
                [workload = std::string(workload), opts] {
                    SimConfig config;
                    config.scheme = PrefetchScheme::GrpAdaptive;
                    // Small epochs so the controller actually steps
                    // within the short test window.
                    config.adaptive.epochCycles = 512;
                    return runWorkload(workload, config, opts);
                }});
        }
        return out;
    };

    const std::vector<SweepOutcome> serial = runSweep(jobs(), 1);
    const std::vector<SweepOutcome> parallel = runSweep(jobs(), 4);
    ASSERT_EQ(serial.size(), 3u);
    ASSERT_EQ(parallel.size(), 3u);
    for (size_t i = 0; i < serial.size(); ++i) {
        SCOPED_TRACE(serial[i].label);
        EXPECT_FALSE(serial[i].failed) << serial[i].error;
        EXPECT_FALSE(parallel[i].failed) << parallel[i].error;
        expectResultsEqual(serial[i].result, parallel[i].result);
        // The run exercised the controller, not just carried it.
        EXPECT_GT(serial[i].result.stats.value("adaptive.epochs"), 0u);
    }
}

// A job fed by a shared SweepRecording must equal the same job built
// standalone. Each kernel's schemes share one recording on four
// threads, so readers extend it on demand under its lock.
TEST(Sweep, RecordedJobsMatchStandaloneRuns)
{
    setQuiet(true);
    const RunOptions opts = quickOptions();
    const auto job = [](const std::string &workload,
                        PrefetchScheme scheme, RunOptions run) {
        return [workload, scheme, run] {
            SimConfig config;
            config.scheme = scheme;
            return runWorkload(workload, config, run);
        };
    };
    std::vector<SweepJob> recorded, standalone;
    std::vector<std::shared_ptr<SweepRecording>> recordings;
    for (const char *workload : {"mcf", "art", "equake"}) {
        recordings.push_back(std::make_shared<SweepRecording>(
            workload, opts.seed, SimConfig{}.l2.sizeBytes));
        RunOptions shared = opts;
        shared.recording = recordings.back();
        for (PrefetchScheme scheme :
             {PrefetchScheme::None, PrefetchScheme::Srp,
              PrefetchScheme::GrpVar, PrefetchScheme::GrpAdaptive}) {
            const std::string label =
                std::string(workload) + "/" + toString(scheme);
            recorded.push_back({label, job(workload, scheme, shared)});
            standalone.push_back({label, job(workload, scheme, opts)});
        }
    }

    const std::vector<SweepOutcome> replayed =
        runSweep(std::move(recorded), 4);
    const std::vector<SweepOutcome> built =
        runSweep(std::move(standalone), 1);
    ASSERT_EQ(replayed.size(), 12u);
    ASSERT_EQ(built.size(), 12u);
    for (size_t i = 0; i < replayed.size(); ++i) {
        SCOPED_TRACE(replayed[i].label);
        EXPECT_FALSE(replayed[i].failed) << replayed[i].error;
        EXPECT_FALSE(built[i].failed) << built[i].error;
        expectResultsEqual(replayed[i].result, built[i].result);
    }
    // The jobs really ran off the recordings.
    for (const auto &recording : recordings)
        EXPECT_GT(recording->opsRecorded(), 0u) << recording->workload();
}

// A recording's program, memory image, hint tables and op stream
// were built for its (workload, seed, L2 size) key; a run with any
// other key must refuse it rather than simulate the wrong stream.
TEST(Sweep, RecordingForAnotherKeyIsFatal)
{
    setQuiet(true);
    const RunOptions opts = quickOptions();
    const uint64_t l2 = SimConfig{}.l2.sizeBytes;
    // Each run differs from the recording in one part of the key. Only
    // the key check's own error counts as a refusal.
    const auto run = [&](const char *workload, uint64_t seed,
                         uint64_t l2_bytes) {
        RunOptions shared = opts;
        shared.recording =
            std::make_shared<SweepRecording>(workload, seed, l2);
        SimConfig config;
        config.l2.sizeBytes = l2_bytes;
        try {
            runWorkload("mcf", config, shared);
        } catch (const std::runtime_error &e) {
            if (std::string(e.what()).find("sweep recording") !=
                std::string::npos)
                throw;
            ADD_FAILURE() << e.what();
        }
    };
    EXPECT_THROW(run("art", opts.seed, l2), std::runtime_error);
    EXPECT_THROW(run("mcf", opts.seed + 1, l2), std::runtime_error);
    EXPECT_THROW(run("mcf", opts.seed, 2 * l2), std::runtime_error);
}

// Threads reading one recording extend it on demand under its lock
// and decode its blocks outside it; every reader, whether a cursor or
// fetchSpan, must see the same stream.
TEST(Sweep, ConcurrentReadersShareOneRecording)
{
    setQuiet(true);
    constexpr uint64_t kOps = 50'000;
    auto rec = std::make_shared<SweepRecording>(
        "mcf", 1, SimConfig{}.l2.sizeBytes);
    std::vector<uint64_t> digests(4);
    std::vector<std::thread> threads;
    for (size_t t = 0; t < digests.size(); ++t) {
        threads.emplace_back([&rec, &digests, t] {
            // The first kOps instructions, read in spans.
            std::vector<TraceOp> insts;
            const TraceOp *ops = nullptr;
            if (t % 2 == 0) {
                const auto reader = SweepRecording::makeReader(rec);
                while (insts.size() < kOps) {
                    const size_t n = reader->nextBatch(&ops);
                    if (n == 0)
                        break;
                    appendInstructions(insts, ops, n, kOps);
                }
            } else {
                // fetchSpan counts instructions, not ops.
                while (insts.size() < kOps) {
                    const size_t n = rec->fetchSpan(insts.size(), &ops);
                    if (n == 0)
                        break;
                    const size_t end = insts.size() + n < kOps
                                           ? insts.size() + n
                                           : kOps;
                    while (insts.size() < end)
                        appendInstructions(insts, ops++, 1, end);
                }
            }
            uint64_t hash = 1469598103934665603ull;
            for (const TraceOp &op : insts) {
                hash = (hash ^ op.addr ^ uint64_t{op.refId} << 40 ^
                        static_cast<uint64_t>(op.kind)) *
                       1099511628211ull;
            }
            digests[t] = insts.size() == kOps ? hash : 0;
        });
    }
    for (std::thread &thread : threads)
        thread.join();
    EXPECT_NE(digests[0], 0u);
    for (uint64_t digest : digests)
        EXPECT_EQ(digest, digests[0]);
    EXPECT_GE(rec->opsRecorded(), kOps);
}

TEST(Sweep, OutcomesKeepSubmissionOrder)
{
    setQuiet(true);
    const std::vector<SweepOutcome> outcomes =
        runSweep(fourJobs(), 4);
    ASSERT_EQ(outcomes.size(), 4u);
    EXPECT_EQ(outcomes[0].result.workload, "gzip");
    EXPECT_EQ(outcomes[1].result.workload, "mcf");
    EXPECT_EQ(outcomes[2].result.workload, "equake");
    EXPECT_EQ(outcomes[3].result.workload, "twolf");
    for (const SweepOutcome &outcome : outcomes)
        EXPECT_GE(outcome.wallSeconds, 0.0);
}

TEST(Sweep, CapturesExceptionsPerJob)
{
    std::vector<SweepJob> jobs;
    jobs.push_back(SweepJob{"ok", [] { return RunResult{}; }});
    jobs.push_back(SweepJob{"throws", []() -> RunResult {
                                throw std::runtime_error("boom");
                            }});
    jobs.push_back(SweepJob{"ok2", [] { return RunResult{}; }});

    for (unsigned threads : {1u, 3u}) {
        const std::vector<SweepOutcome> outcomes =
            runSweep(jobs, threads);
        ASSERT_EQ(outcomes.size(), 3u);
        EXPECT_FALSE(outcomes[0].failed);
        EXPECT_TRUE(outcomes[1].failed);
        EXPECT_EQ(outcomes[1].error, "boom");
        EXPECT_FALSE(outcomes[2].failed);
    }
}

TEST(Sweep, DefaultThreadsHonoursEnvironment)
{
    char saved[64] = {0};
    if (const char *old = getenv("GRP_BENCH_THREADS"))
        snprintf(saved, sizeof(saved), "%s", old);

    setenv("GRP_BENCH_THREADS", "3", 1);
    EXPECT_EQ(defaultSweepThreads(), 3u);
    setenv("GRP_BENCH_THREADS", "0", 1);
    EXPECT_GE(defaultSweepThreads(), 1u);
    unsetenv("GRP_BENCH_THREADS");
    EXPECT_GE(defaultSweepThreads(), 1u);

    if (saved[0])
        setenv("GRP_BENCH_THREADS", saved, 1);
}

// Two registries on one thread: components registered explicitly
// into each must not cross-talk — the property the singleton removal
// bought.
TEST(Sweep, ConcurrentRegistriesAreIsolated)
{
    obs::StatRegistry first, second;
    CacheConfig config{16 * 1024, 2, 3, 4, 4};
    Cache cache_a(config, "cache", false, first);
    Cache cache_b(config, "cache", false, second);

    cache_a.insert(0x1000, false, false);
    cache_a.access(0x1000, false);
    cache_b.insert(0x2000, false, false);

    EXPECT_EQ(first.value("cache.accesses"), 1u);
    EXPECT_EQ(second.value("cache.accesses"), 0u);
    EXPECT_EQ(first.value("cache.demandFills"), 1u);
    EXPECT_EQ(second.value("cache.demandFills"), 1u);
    EXPECT_EQ(first.size(), 1u);
    EXPECT_EQ(second.size(), 1u);

    // The thread default is a third, untouched registry.
    EXPECT_EQ(obs::StatRegistry::current().find("cache"), nullptr);
}

} // namespace
} // namespace grp
