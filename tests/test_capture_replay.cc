/** @file Tests for the access-stream capture/replay path
 *  (src/harness/capture): a same-config replay must reproduce the
 *  live run's memory-system behaviour exactly, every op must survive
 *  the capture encoding, damaged, mutated, mismatched or old-format
 *  captures must be rejected with a diagnosis, and a capture from one
 *  scheme must be able to drive another (trace-driven scheme
 *  sweeps). */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness/capture.hh"
#include "harness/runner.hh"
#include "obs/bintrace.hh"
#include "sim/logging.hh"

namespace grp
{
namespace
{

std::string
tempPath(const char *name)
{
    return ::testing::TempDir() + name;
}

RunOptions
baseOptions()
{
    setQuiet(true);
    RunOptions opts;
    opts.maxInstructions = 60'000;
    opts.seed = 7;
    return opts;
}

RunResult
runCaptured(const char *workload, PrefetchScheme scheme,
            const std::string &capture_path)
{
    SimConfig config;
    config.scheme = scheme;
    RunOptions opts = baseOptions();
    opts.capturePath = capture_path;
    return runWorkload(workload, config, opts);
}

RunResult
runReplayed(const char *workload, PrefetchScheme scheme,
            const std::string &replay_path)
{
    SimConfig config;
    config.scheme = scheme;
    RunOptions opts = baseOptions();
    opts.replayPath = replay_path;
    return runWorkload(workload, config, opts);
}

std::string
readFile(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    EXPECT_TRUE(is.is_open()) << path;
    std::ostringstream text;
    text << is.rdbuf();
    return text.str();
}

void
writeFile(const std::string &path, const std::string &data)
{
    std::ofstream os(path, std::ios::binary);
    os.write(data.data(), static_cast<std::streamsize>(data.size()));
}

/** Replay @p path to its end through ReplayTraceSource: "" when it
 *  replays, else fatal()'s message. */
std::string
replayOutcome(const std::string &path)
{
    try {
        ReplayTraceSource replay(path);
        const TraceOp *ops = nullptr;
        while (replay.nextBatch(&ops) != 0) {
        }
        return "";
    } catch (const std::runtime_error &error) {
        return error.what();
    }
}

/** A TraceSource over a fixed op list. */
class VectorSource : public TraceSource
{
  public:
    explicit VectorSource(std::vector<TraceOp> ops) : ops_(std::move(ops))
    {
    }

    bool
    next(TraceOp &op) override
    {
        if (at_ == ops_.size())
            return false;
        op = ops_[at_++];
        return true;
    }

  private:
    std::vector<TraceOp> ops_;
    size_t at_ = 0;
};

/** Counters under @p prefix from a snapshot, as one diffable map. */
std::map<std::string, uint64_t>
countersWithPrefix(const obs::StatSnapshot &stats,
                   const std::string &prefix)
{
    std::map<std::string, uint64_t> out;
    for (const auto &[name, value] : stats.counters) {
        if (name.rfind(prefix, 0) == 0)
            out.emplace(name, value);
    }
    return out;
}

TEST(CaptureReplay, CaptureProducesFinalizedAccessContainer)
{
    const std::string path = tempPath("grp_cap_basic.grpbin");
    const RunResult live =
        runCaptured("mcf", PrefetchScheme::GrpVar, path);
    ASSERT_GT(live.instructions, 0u);

    std::ifstream is(path, std::ios::binary);
    ASSERT_TRUE(is.is_open());
    std::ostringstream text;
    text << is.rdbuf();
    const std::string data = text.str();

    obs::bintrace::Container container;
    std::string error;
    ASSERT_TRUE(obs::bintrace::parseContainer(data, container, &error))
        << error;
    EXPECT_EQ(container.kind, obs::bintrace::StreamKind::Access);
    EXPECT_TRUE(container.finalized);
    EXPECT_GT(container.totalRecords, 0u);
    ASSERT_TRUE(container.metaValue("workload").has_value());
    EXPECT_EQ(*container.metaValue("workload"), "mcf");
    ASSERT_TRUE(container.metaValue("seed").has_value());
    EXPECT_EQ(*container.metaValue("seed"), "7");
    // No .tmp left behind once the run closed the capture.
    EXPECT_FALSE(std::ifstream(path + ".tmp").is_open());
}

TEST(CaptureReplay, SameConfigReplayIsExact)
{
    // The tentpole fidelity claim: replaying a capture under the
    // same (workload, scheme, seed) reproduces every mem.* and
    // cpu.* counter exactly, not approximately.
    const std::string path = tempPath("grp_cap_exact.grpbin");
    const RunResult live =
        runCaptured("mcf", PrefetchScheme::GrpVar, path);
    const RunResult replay =
        runReplayed("mcf", PrefetchScheme::GrpVar, path);

    EXPECT_EQ(live.instructions, replay.instructions);
    EXPECT_EQ(live.cycles, replay.cycles);
    EXPECT_EQ(live.l2MissesTotal, replay.l2MissesTotal);
    EXPECT_EQ(live.prefetchFills, replay.prefetchFills);
    EXPECT_EQ(live.usefulPrefetches, replay.usefulPrefetches);

    EXPECT_EQ(countersWithPrefix(live.stats, "mem."),
              countersWithPrefix(replay.stats, "mem."));
    EXPECT_EQ(countersWithPrefix(live.stats, "cpu."),
              countersWithPrefix(replay.stats, "cpu."));
}

TEST(CaptureReplay, ReplayIsDeterministic)
{
    // Two replays of the same capture agree with each other too.
    const std::string path = tempPath("grp_cap_det.grpbin");
    runCaptured("equake", PrefetchScheme::Srp, path);
    const RunResult a =
        runReplayed("equake", PrefetchScheme::Srp, path);
    const RunResult b =
        runReplayed("equake", PrefetchScheme::Srp, path);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(countersWithPrefix(a.stats, "mem."),
              countersWithPrefix(b.stats, "mem."));
}

TEST(CaptureReplay, CrossSchemeReplaySmoke)
{
    // The capture is scheme-independent (the interpreter emits every
    // op regardless; the CPU filters), so one recording can drive a
    // scheme sweep. Timing differs across schemes, so the consumer
    // may fetch one fewer op at the instruction-cap tail — this is a
    // smoke test, not an exactness test.
    const std::string path = tempPath("grp_cap_cross.grpbin");
    const RunResult live =
        runCaptured("mcf", PrefetchScheme::GrpVar, path);
    const RunResult replay =
        runReplayed("mcf", PrefetchScheme::Stride, path);
    EXPECT_GT(replay.instructions, 0u);
    // Within one op of the live run's retirement count.
    EXPECT_GE(replay.instructions + 1, live.instructions);
    EXPECT_NE(replay.scheme, live.scheme);
}

TEST(CaptureReplay, WorkloadMismatchIsFatal)
{
    const std::string path = tempPath("grp_cap_wl.grpbin");
    runCaptured("mcf", PrefetchScheme::GrpVar, path);
    EXPECT_THROW(runReplayed("equake", PrefetchScheme::GrpVar, path),
                 std::exception);
}

TEST(CaptureReplay, SeedMismatchIsFatal)
{
    const std::string path = tempPath("grp_cap_seed.grpbin");
    runCaptured("mcf", PrefetchScheme::GrpVar, path);
    SimConfig config;
    config.scheme = PrefetchScheme::GrpVar;
    RunOptions opts = baseOptions();
    opts.seed = 8; // Capture was recorded with seed 7.
    opts.replayPath = path;
    EXPECT_THROW(runWorkload("mcf", config, opts), std::exception);
}

TEST(CaptureReplay, TruncatedCaptureIsFatal)
{
    const std::string path = tempPath("grp_cap_trunc.grpbin");
    runCaptured("mcf", PrefetchScheme::GrpVar, path);

    std::ifstream is(path, std::ios::binary);
    ASSERT_TRUE(is.is_open());
    std::ostringstream text;
    text << is.rdbuf();
    const std::string data = text.str();
    ASSERT_GT(data.size(), 300u);

    const std::string damaged_path =
        tempPath("grp_cap_trunc_cut.grpbin");
    std::ofstream os(damaged_path, std::ios::binary);
    os.write(data.data(),
             static_cast<std::streamsize>(data.size() - 200));
    os.close();

    EXPECT_THROW(
        runReplayed("mcf", PrefetchScheme::GrpVar, damaged_path),
        std::exception);
}

TEST(CaptureReplay, LifecycleTraceIsNotAReplaySource)
{
    // A kind-0 lifecycle trace must be rejected as a replay input
    // with a fatal, not misdecoded.
    const std::string trace = tempPath("grp_cap_kind.grpbin");
    SimConfig config;
    config.scheme = PrefetchScheme::GrpVar;
    RunOptions opts = baseOptions();
    opts.obs.tracePath = trace;
    opts.obs.traceLevel = 1;
    runWorkload("mcf", config, opts);

    EXPECT_THROW(runReplayed("mcf", PrefetchScheme::GrpVar, trace),
                 std::exception);
}

TEST(CaptureReplay, CaptureAndReplayAreMutuallyExclusive)
{
    const std::string path = tempPath("grp_cap_both.grpbin");
    runCaptured("mcf", PrefetchScheme::GrpVar, path);
    SimConfig config;
    config.scheme = PrefetchScheme::GrpVar;
    RunOptions opts = baseOptions();
    opts.replayPath = path;
    opts.capturePath = tempPath("grp_cap_both_out.grpbin");
    EXPECT_THROW(runWorkload("mcf", config, opts), std::exception);
}

TEST(CaptureReplay, EveryOpSurvivesTheCapture)
{
    // Edge values the op codec escapes (RefIds past 20 bits,
    // addresses past 32 bits, compute ops off their defaults) and a
    // stream longer than one block.
    std::mt19937_64 rng(7);
    std::vector<TraceOp> ops;
    for (int i = 0; i < 10'000; ++i) {
        switch (rng() % 6) {
          case 0:
          case 1:
            ops.push_back(TraceOp::compute());
            break;
          case 2:
            ops.push_back(TraceOp::load(rng() >> (rng() % 64),
                                        static_cast<RefId>(rng() % 8)));
            break;
          case 3:
            ops.push_back(TraceOp::store(rng(), kInvalidRefId));
            break;
          case 4:
            ops.push_back(TraceOp::indirect(rng() >> 40, 0xffffffffu,
                                            rng() >> 33, kInvalidRefId));
            break;
          default: {
            TraceOp odd = TraceOp::compute();
            odd.addr = rng();
            ops.push_back(odd);
          }
        }
    }
    const std::string path = tempPath("grp_cap_every_op.grpbin");
    {
        VectorSource inner(ops);
        CaptureTraceSource capture(inner, path, "mcf", 7);
        TraceOp op;
        while (capture.next(op)) {
        }
        EXPECT_EQ(capture.opsCaptured(), ops.size());
    }
    ReplayTraceSource replay(path);
    EXPECT_EQ(replay.totalOps(), ops.size());
    size_t at = 0;
    TraceOp op;
    while (replay.next(op)) {
        ASSERT_LT(at, ops.size());
        const TraceOp &want = ops[at++];
        ASSERT_TRUE(op.kind == want.kind && op.refId == want.refId &&
                    op.addr == want.addr && op.base == want.base &&
                    op.elemSize == want.elemSize)
            << "op " << at - 1;
    }
    EXPECT_EQ(at, ops.size());
}

TEST(CaptureReplay, PerOpCaptureFormatIsRejected)
{
    // The access format of older builds: one record per op under four
    // tags. Replay must refuse it by name, not misdecode it.
    const std::string path = tempPath("grp_cap_per_op.grpbin");
    std::FILE *file = std::fopen(path.c_str(), "wb");
    ASSERT_NE(file, nullptr);
    {
        obs::bintrace::Writer writer(
            file, obs::bintrace::StreamKind::Access,
            {{"computeRun", "load", "store", "indirectPrefetch"}},
            {{"workload", "mcf"}, {"seed", "7"}});
        const uint8_t run[] = {3};     // Three compute ops.
        const uint8_t load[] = {1, 64}; // RefId 1, address 64.
        writer.rawRecord(0, run, sizeof run, 3);
        writer.rawRecord(1, load, sizeof load, 4);
        writer.finalize();
    }
    std::fclose(file);

    const std::string error = replayOutcome(path);
    EXPECT_NE(error.find("computeRun, load, store, indirectPrefetch"),
              std::string::npos)
        << error;
    EXPECT_NE(error.find("re-record"), std::string::npos) << error;
    EXPECT_THROW(runReplayed("mcf", PrefetchScheme::GrpVar, path),
                 std::runtime_error);
}

TEST(CaptureReplay, MutatedCapturesReplayOrFailCleanly)
{
    // A small real capture (mcf/srp, 20k instructions), cut at every
    // stride point and damaged by fixed-seed byte flips and
    // deletions. Each mutant either replays to its end or stops in
    // fatal() with a diagnosis; none may crash or hang (the ASan/UBSan
    // job runs this test).
    setQuiet(true);
    const std::string path = tempPath("grp_cap_mutate.grpbin");
    SimConfig config;
    config.scheme = PrefetchScheme::Srp;
    RunOptions opts = baseOptions();
    opts.maxInstructions = 20'000;
    opts.capturePath = path;
    runWorkload("mcf", config, opts);
    const std::string data = readFile(path);
    ASSERT_EQ(replayOutcome(path), "");
    ASSERT_GT(data.size(), 1000u);

    const std::string mutant_path = tempPath("grp_cap_mutant.grpbin");
    size_t replayed = 0;
    size_t rejected = 0;
    const auto outcome = [&](const std::string &mutant,
                             const std::string &what) {
        writeFile(mutant_path, mutant);
        const std::string error = replayOutcome(mutant_path);
        if (error.empty()) {
            ++replayed;
        } else {
            ++rejected;
            EXPECT_EQ(error.rfind("fatal: ", 0), 0u) << what;
            EXPECT_GT(error.size(), 30u) << what << ": " << error;
        }
        return error;
    };

    // Every cut loses the finalize trailer: always rejected.
    const size_t stride = data.size() / 200 + 1;
    for (size_t cut = 0; cut < data.size(); cut += stride) {
        EXPECT_NE(outcome(data.substr(0, cut),
                          "cut at " + std::to_string(cut)),
                  "")
            << "cut at " << cut;
    }

    std::mt19937_64 rng(0x6f70426c);
    for (int i = 0; i < 300; ++i) {
        std::string mutant = data;
        const size_t at = rng() % data.size();
        mutant[at] = static_cast<char>(mutant[at] ^ (1 + rng() % 255));
        outcome(mutant, "flip at " + std::to_string(at));
    }
    for (int i = 0; i < 100; ++i) {
        std::string mutant = data;
        const size_t at = rng() % data.size();
        mutant.erase(at, 1 + rng() % 16);
        outcome(mutant, "deletion at " + std::to_string(at));
    }
    EXPECT_GT(rejected, 200u);
    EXPECT_EQ(replayed + rejected, 200u + 300u + 100u);
}

TEST(CaptureReplay, MissingCaptureIsFatal)
{
    EXPECT_THROW(runReplayed("mcf", PrefetchScheme::GrpVar,
                             tempPath("grp_cap_nonexistent.grpbin")),
                 std::exception);
}

} // namespace
} // namespace grp
