/** @file Unit tests for the out-of-order CPU model. */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "compiler/hint_generator.hh"
#include "core/engine_factory.hh"
#include "cpu/cpu.hh"
#include "op_stream.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"
#include "workloads/predecode.hh"
#include "workloads/workload.hh"

namespace grp
{
namespace
{

/** A canned trace source. */
class VectorTrace : public TraceSource
{
  public:
    explicit VectorTrace(std::vector<TraceOp> ops)
        : ops_(std::move(ops))
    {
    }

    bool
    next(TraceOp &op) override
    {
        if (pos_ >= ops_.size())
            return false;
        op = ops_[pos_++];
        return true;
    }

  private:
    std::vector<TraceOp> ops_;
    size_t pos_ = 0;
};

/**
 * Serves a fixed op vector through nextBatch(): as one block, or in
 * blocks of fixed-seed random length 1-kMaxRandomBlock, half of
 * which end early on their first indirect prefetch op, if they hold
 * one. Before it returns a block it overwrites the one it returned
 * last with poison, stores to kPoison, so a CPU that kept a pointer
 * into a block past its next nextBatch() call issues one of those.
 */
class BlockTrace : public TraceSource
{
  public:
    static constexpr Addr kPoison = 0xdead000000ull;
    static constexpr size_t kMaxRandomBlock = 300;

    BlockTrace(const std::vector<TraceOp> &ops, bool random)
        : ops_(ops), random_(random)
    {
        for (std::vector<TraceOp> &block : blocks_)
            block.resize(random ? kMaxRandomBlock : ops.size());
    }

    bool
    next(TraceOp &op) override
    {
        if (pos_ == ops_.size())
            return false;
        op = ops_[pos_++];
        return true;
    }

    size_t
    nextBatch(const TraceOp **ops) override
    {
        std::fill(blocks_[cur_].begin(), blocks_[cur_].end(),
                  TraceOp::store(kPoison, 0));
        cur_ ^= 1;
        const auto begin = ops_.begin() + static_cast<std::ptrdiff_t>(pos_);
        size_t n = ops_.size() - pos_;
        if (random_) {
            n = std::min<size_t>(n, 1 + rng_.below(kMaxRandomBlock));
            const auto indirect = std::find_if(
                begin, begin + static_cast<std::ptrdiff_t>(n),
                [](const TraceOp &op) {
                    return op.kind == OpKind::IndirectPrefetch;
                });
            if (rng_.below(2) && indirect != begin + n)
                n = static_cast<size_t>(indirect - begin) + 1;
        }
        std::copy_n(begin, n, blocks_[cur_].begin());
        pos_ += n;
        if (n != 0 && ops_[pos_ - 1].kind == OpKind::IndirectPrefetch)
            ++indirectAtBlockEnd;
        if (n != 0 && pos_ < ops_.size() &&
            ops_[pos_ - 1].kind == OpKind::Compute &&
            ops_[pos_].kind == OpKind::Compute)
            ++runsAcrossBlockEnd;
        *ops = blocks_[cur_].data();
        return n;
    }

    /** Blocks whose last op is an indirect prefetch. */
    uint64_t indirectAtBlockEnd = 0;
    /** Blocks that end between two compute ops: a run split across
     *  blocks. */
    uint64_t runsAcrossBlockEnd = 0;

  private:
    const std::vector<TraceOp> &ops_;
    const bool random_;
    Rng rng_{7};
    size_t pos_ = 0;
    std::vector<TraceOp> blocks_[2];
    unsigned cur_ = 0;
};

class CpuTest : public ::testing::Test
{
  protected:
    void SetUp() override { setQuiet(true); }

    /** Run a trace to completion; returns cycles used. */
    uint64_t
    run(std::vector<TraceOp> ops, const HintTable *hints = nullptr,
        SimConfig config = SimConfig{})
    {
        EventQueue events;
        MemorySystem mem(config, events);
        VectorTrace trace(std::move(ops));
        cpu = std::make_unique<Cpu>(config, mem, events, trace,
                                    hints);
        Tick cycle = 0;
        while (!cpu->done() && cycle < 1'000'000) {
            events.advanceTo(cycle);
            cpu->tick();
            mem.tick();
            ++cycle;
        }
        EXPECT_TRUE(cpu->done());
        return cpu->cycles();
    }

    std::unique_ptr<Cpu> cpu;
};

TEST_F(CpuTest, ComputeRetiresAtFullWidth)
{
    std::vector<TraceOp> ops(400, TraceOp::compute());
    const uint64_t cycles = run(ops);
    EXPECT_EQ(cpu->retiredInstructions(), 400u);
    // 4-wide: at least 100 cycles, with small pipeline overheads.
    EXPECT_GE(cycles, 100u);
    EXPECT_LE(cycles, 110u);
    EXPECT_GT(cpu->ipc(), 3.6);
}

TEST_F(CpuTest, IndependentLoadsOverlap)
{
    // Two loads to distinct blocks on different channels: total time
    // must be far less than two serial DRAM accesses.
    std::vector<TraceOp> serial{TraceOp::load(0x10000, 0)};
    const uint64_t one = run(serial);
    std::vector<TraceOp> both{TraceOp::load(0x20000, 0),
                              TraceOp::load(0x20040, 1)};
    const uint64_t two = run(both);
    EXPECT_LT(two, 2 * one - 20);
}

TEST_F(CpuTest, DependentChainIsBoundedByRob)
{
    // More loads than ROB entries to the same cold blocks still
    // complete (no deadlock) and retire in order.
    std::vector<TraceOp> ops;
    for (unsigned i = 0; i < 200; ++i)
        ops.push_back(TraceOp::load(0x100000 + 8 * i, 0));
    run(ops);
    EXPECT_EQ(cpu->retiredInstructions(), 200u);
}

TEST_F(CpuTest, StoresDoNotBlockRetirement)
{
    std::vector<TraceOp> ops;
    for (unsigned i = 0; i < 64; ++i)
        ops.push_back(TraceOp::store(0x200000 + 64 * i, 0));
    ops.push_back(TraceOp::compute());
    const uint64_t cycles = run(ops);
    // Stores complete from the store buffer; with 8 MSHRs limiting
    // issue, this still finishes quickly relative to 64 serial
    // misses (~150 cycles each).
    EXPECT_LT(cycles, 64 * 150u);
    EXPECT_EQ(cpu->retiredInstructions(), 65u);
}

TEST_F(CpuTest, IndirectOpsAreElidedWithoutHints)
{
    std::vector<TraceOp> ops{
        TraceOp::indirect(0x1000, 8, 0x2000, 0),
        TraceOp::compute(),
    };
    run(ops, nullptr);
    // The unhinted binary contains no indirect prefetch instruction.
    EXPECT_EQ(cpu->retiredInstructions(), 1u);
    EXPECT_EQ(cpu->stats().value("indirectPrefetchOps"), 0u);
}

TEST_F(CpuTest, IndirectOpsExecuteWithHints)
{
    SimConfig config;
    config.scheme = PrefetchScheme::GrpVar;
    HintTable hints;
    std::vector<TraceOp> ops{
        TraceOp::indirect(0x1000, 8, 0x2000, 0),
        TraceOp::compute(),
    };
    run(ops, &hints, config);
    EXPECT_EQ(cpu->retiredInstructions(), 2u);
    EXPECT_EQ(cpu->stats().value("indirectPrefetchOps"), 1u);
}

TEST_F(CpuTest, LoadAndStoreCountsTracked)
{
    std::vector<TraceOp> ops{
        TraceOp::load(0x1000, 0),
        TraceOp::store(0x2000, 1),
        TraceOp::compute(),
        TraceOp::load(0x1008, 2),
    };
    run(ops);
    EXPECT_EQ(cpu->stats().value("loads"), 2u);
    EXPECT_EQ(cpu->stats().value("stores"), 1u);
}

TEST_F(CpuTest, EmptyTraceFinishesImmediately)
{
    run({});
    EXPECT_EQ(cpu->retiredInstructions(), 0u);
    EXPECT_TRUE(cpu->done());
}

/** Run @p source to the end under @p config with the configured
 *  prefetch engine; returns the cycles, the retired instructions and
 *  every counter the run registered (cpu.*, mem.*, the caches', the
 *  DRAM's and the engine's). */
std::map<std::string, uint64_t>
runToEnd(TraceSource &source, const SimConfig &config,
         const FunctionalMemory &fmem, const HintTable *hints)
{
    obs::StatRegistry registry;
    EventQueue events;
    MemorySystem mem(config, events, registry);
    const auto engine = makePrefetchEngine(config, fmem, mem, registry);
    Cpu cpu(config, mem, events, source, hints, registry);
    for (Tick cycle = 0; !cpu.done() && cycle < 10'000'000; ++cycle) {
        events.advanceTo(cycle);
        cpu.tick();
        mem.tick();
    }
    EXPECT_TRUE(cpu.done());
    std::map<std::string, uint64_t> out = registry.snapshot().counters;
    out["cycles"] = cpu.cycles();
    out["retired"] = cpu.retiredInstructions();
    return out;
}

TEST_F(CpuTest, IssueDoesNotDependOnBlockBoundaries)
{
    // equake after the transform: its first 50k instructions carry
    // indirect prefetch ops, which a hinted binary issues and an
    // unhinted one elides. Each compute instruction is its own op
    // here; the next test splits runs.
    FunctionalMemory fmem;
    Program prog = makeWorkload("equake")->build(fmem, 42);
    const unsigned indirect = HintGenerator::transform(prog);
    SimConfig config;
    config.l1d.mshrs = 2; // Rejected loads stay pending across cycles.
    HintTable table;
    HintGenerator(config.policy, config.l2.sizeBytes)
        .analyze(prog, table, indirect);

    DecodedInterpreter interp(prog, fmem, 42);
    const std::vector<TraceOp> ops = instructionsOf(interp, 50'000);
    ASSERT_EQ(ops.size(), 50'000u);
    uint64_t indirect_ops = 0;
    for (const TraceOp &op : ops) {
        indirect_ops += op.kind == OpKind::IndirectPrefetch;
        ASSERT_NE(op.addr / 64, BlockTrace::kPoison / 64);
    }
    ASSERT_GT(indirect_ops, 0u);

    for (const bool hinted : {true, false}) {
        SCOPED_TRACE(hinted ? "hinted" : "unhinted");
        config.scheme =
            hinted ? PrefetchScheme::GrpVar : PrefetchScheme::Srp;
        const HintTable *hints = hinted ? &table : nullptr;
        BlockTrace whole(ops, false);
        VectorTrace by_op(ops);
        BlockTrace random(ops, true);
        const auto expected = runToEnd(whole, config, fmem, hints);
        EXPECT_EQ(expected.at("retired"),
                  ops.size() - (hinted ? 0 : indirect_ops));
        EXPECT_EQ(expected.at("cpu.indirectPrefetchOps"),
                  hinted ? indirect_ops : 0);
        EXPECT_GT(expected.at("cpu.memStalls"), 0u);
        EXPECT_EQ(runToEnd(by_op, config, fmem, hints), expected);
        EXPECT_EQ(runToEnd(random, config, fmem, hints), expected);
        EXPECT_GT(random.indirectAtBlockEnd, 0u);
    }
}

TEST_F(CpuTest, IssueDoesNotDependOnWhereRunsSplit)
{
    // One instruction stream in three forms: every compute run as one
    // op, every instruction as its own op, and runs cut at random
    // points and served in random blocks, so some pieces of a run sit
    // in different blocks. The memory ops are equake's (indirect
    // prefetches included); the runs between them are 1-17
    // instructions long. ROB sizes and widths divide none of them, so
    // a run issues over several cycles and retires in parts: with
    // retire narrower than issue the ROB fills part way through runs,
    // with retire wider it drains and issue width binds. Every form
    // must give the same cycles, retired instructions and registry
    // counters.
    FunctionalMemory fmem;
    Program prog = makeWorkload("equake")->build(fmem, 42);
    const unsigned indirect = HintGenerator::transform(prog);
    SimConfig config;
    config.scheme = PrefetchScheme::GrpVar;
    config.l1d.mshrs = 1; // Rejected loads stay pending across cycles.
    HintTable table;
    HintGenerator(config.policy, config.l2.sizeBytes)
        .analyze(prog, table, indirect);

    DecodedInterpreter interp(prog, fmem, 42);
    Rng rng(11);
    std::vector<TraceOp> runs;
    for (const TraceOp &op : instructionsOf(interp, 20'000)) {
        if (op.kind == OpKind::Compute)
            continue;
        runs.push_back(TraceOp::compute(
            1 + static_cast<uint32_t>(rng.below(17))));
        runs.push_back(op);
    }
    std::vector<TraceOp> single;
    appendInstructions(single, runs.data(), runs.size());
    std::vector<TraceOp> pieces;
    for (const TraceOp &op : runs) {
        uint32_t left = op.count;
        while (op.kind == OpKind::Compute && left > 1 &&
               rng.below(2)) {
            const uint32_t cut =
                1 + static_cast<uint32_t>(rng.below(left - 1));
            pieces.push_back(TraceOp::compute(cut));
            left -= cut;
        }
        TraceOp rest = op;
        rest.count = left;
        pieces.push_back(rest);
    }
    ASSERT_LT(runs.size(), pieces.size());
    ASSERT_LT(pieces.size(), single.size());

    struct Core
    {
        unsigned rob, issue, retire;
    };
    for (const Core core : {Core{5, 3, 2}, Core{7, 2, 3}}) {
        SCOPED_TRACE(core.rob);
        config.cpu.robEntries = core.rob;
        config.cpu.issueWidth = core.issue;
        config.cpu.retireWidth = core.retire;
        BlockTrace counted(runs, false);
        VectorTrace by_instruction(single);
        BlockTrace random(pieces, true);
        const auto expected = runToEnd(counted, config, fmem, &table);
        EXPECT_EQ(expected.at("retired"), single.size());
        EXPECT_GT(expected.at("cpu.robFullStalls"), 0u);
        EXPECT_GT(expected.at("cpu.indirectPrefetchOps"), 0u);
        EXPECT_GT(expected.at("cpu.memStalls"), 0u);
        EXPECT_EQ(runToEnd(by_instruction, config, fmem, &table),
                  expected);
        EXPECT_EQ(runToEnd(random, config, fmem, &table), expected);
        EXPECT_GT(random.runsAcrossBlockEnd, 0u);
    }
}

TEST_F(CpuTest, RefusesAnEmptyComputeRun)
{
    SimConfig config;
    EventQueue events;
    MemorySystem mem(config, events);
    VectorTrace trace({TraceOp::compute(2), TraceOp::compute(0)});
    Cpu cpu(config, mem, events, trace, nullptr);
    EXPECT_THROW(cpu.tick(), std::logic_error);
}

TEST_F(CpuTest, MemStallsAreCounted)
{
    // 20 distinct cold blocks, 8 MSHRs: some issues must stall.
    std::vector<TraceOp> ops;
    for (unsigned i = 0; i < 20; ++i)
        ops.push_back(TraceOp::load(0x400000 + 64 * i, 0));
    run(ops);
    EXPECT_GT(cpu->stats().value("memStalls"), 0u);
}

} // namespace
} // namespace grp
