/**
 * @file
 * The op-stream codec (src/harness/op_codec) and the sweep recording
 * built on it: every instruction stream round-trips exactly, edge
 * values included, and counted compute runs encode to the same words
 * as one-instruction compute ops; the decoder rejects malformed
 * blocks with a reason; and a recording replays each perfSuite()
 * kernel instruction for instruction as the interpreter produced it,
 * at under 4 bytes per instruction.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "compiler/hint_generator.hh"
#include "harness/op_codec.hh"
#include "harness/replay.hh"
#include "harness/suite.hh"
#include "op_stream.hh"
#include "sim/logging.hh"
#include "workloads/predecode.hh"
#include "workloads/workload.hh"

namespace grp
{
namespace
{

::testing::AssertionResult
sameOp(const TraceOp &a, const TraceOp &b)
{
    if (a.kind == b.kind && a.refId == b.refId && a.addr == b.addr &&
        a.base == b.base && a.elemSize == b.elemSize &&
        a.count == b.count)
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << "kind " << int(a.kind) << "/" << int(b.kind) << " ref "
           << a.refId << "/" << b.refId << " addr " << a.addr << "/"
           << b.addr << " base " << a.base << "/" << b.base << " size "
           << a.elemSize << "/" << b.elemSize << " count " << a.count
           << "/" << b.count;
}

/** One sealed block: its words and its instruction count. */
struct EncodedBlock
{
    std::vector<uint64_t> words;
    size_t instructions = 0;

    bool
    operator==(const EncodedBlock &o) const
    {
        return words == o.words && instructions == o.instructions;
    }
};

/** Encode @p ops in kOpBlockOps-instruction blocks, as a recording
 *  does: feed ops until a block is full, seal it, go on. */
std::vector<EncodedBlock>
encodeBlocks(const std::vector<TraceOp> &ops)
{
    std::vector<EncodedBlock> blocks;
    OpBlockEncoder encoder;
    size_t taken = 0;
    for (;;) {
        taken += encoder.add(ops.data() + taken, ops.size() - taken);
        if (encoder.instructions() == 0)
            break;
        // A block is full unless the stream ends in it.
        EXPECT_TRUE(encoder.full() || taken == ops.size());
        encoder.finish();
        blocks.push_back({encoder.words(), encoder.instructions()});
        encoder.clear();
    }
    return blocks;
}

/** Decode @p blocks back to instructions. */
std::vector<TraceOp>
decodeBlocks(const std::vector<EncodedBlock> &blocks)
{
    std::vector<TraceOp> decoded(kOpBlockOps);
    std::vector<TraceOp> out;
    for (const EncodedBlock &block : blocks) {
        size_t n_ops = 0;
        const char *error =
            decodeOpBlock(block.words.data(), block.words.size(),
                          block.instructions, decoded.data(), n_ops);
        EXPECT_EQ(error, nullptr) << error;
        appendInstructions(out, decoded.data(), n_ops);
    }
    return out;
}

/** Encode @p ops in blocks, decode every block back and expect the
 *  instructions unchanged; returns the words used. */
size_t
expectRoundTrip(const std::vector<TraceOp> &ops)
{
    std::vector<TraceOp> want;
    appendInstructions(want, ops.data(), ops.size());
    const std::vector<EncodedBlock> blocks = encodeBlocks(ops);
    const std::vector<TraceOp> got = decodeBlocks(blocks);
    EXPECT_EQ(got.size(), want.size());
    for (size_t i = 0; i < std::min(got.size(), want.size()); ++i)
        EXPECT_TRUE(sameOp(got[i], want[i])) << "instruction " << i;
    size_t words = 0;
    for (const EncodedBlock &block : blocks)
        words += block.words.size();
    return words;
}

TraceOp
op(OpKind kind, RefId ref, Addr addr, Addr base = 0,
   uint32_t elem_size = 0)
{
    TraceOp o;
    o.kind = kind;
    o.refId = ref;
    o.addr = addr;
    o.base = base;
    o.elemSize = elem_size;
    return o;
}

TEST(OpCodec, EdgeValuesRoundTrip)
{
    const RefId refs[] = {0, 0xffff, 0x10000, 0xfffff, 0x100000,
                          kInvalidRefId};
    const Addr addrs[] = {0, 0xffffffffull, 0x100000000ull,
                          ~uint64_t{0}};
    std::vector<TraceOp> ops;
    for (OpKind kind : {OpKind::Compute, OpKind::Load, OpKind::Store,
                        OpKind::IndirectPrefetch}) {
        for (RefId ref : refs) {
            for (Addr addr : addrs) {
                ops.push_back(TraceOp::compute());
                ops.push_back(op(kind, ref, addr));
                ops.push_back(op(kind, ref, addr, addr, 0xffffffffu));
                ops.push_back(op(kind, ref, addr, 8, 4));
            }
        }
    }
    // Compute ops with a single field off its default.
    ops.push_back(op(OpKind::Compute, 0, 0));
    ops.push_back(op(OpKind::Compute, kInvalidRefId, 64));
    ops.push_back(op(OpKind::Compute, kInvalidRefId, 0, 64));
    ops.push_back(op(OpKind::Compute, kInvalidRefId, 0, 0, 8));
    ops.push_back(TraceOp::indirect(0x1000, 0xffffffffu, 0x2000, 3));
    expectRoundTrip(ops);
}

TEST(OpCodec, ComputeRunsLongerThanTheWordField)
{
    // A memory op's word counts at most 1023 compute ops before it;
    // longer runs need a control word first.
    for (size_t run : {1022, 1023, 1024, 1025, 3000, 4095}) {
        std::vector<TraceOp> ops(run, TraceOp::compute());
        ops.push_back(TraceOp::load(0x4000, 2));
        ops.push_back(TraceOp::compute());
        SCOPED_TRACE(run);
        expectRoundTrip(ops);
    }
}

TEST(OpCodec, BlockBoundaries)
{
    // A block of only compute ops is one control word.
    std::vector<TraceOp> computes(kOpBlockOps, TraceOp::compute());
    EXPECT_EQ(expectRoundTrip(computes), 1u);

    // A run that ends exactly at a block boundary: the next block
    // starts with a memory op that counts no compute ops.
    std::vector<TraceOp> ops;
    ops.push_back(TraceOp::store(0x40, 1));
    ops.insert(ops.end(), kOpBlockOps - 1, TraceOp::compute());
    ops.push_back(TraceOp::load(0x80, 1));
    ops.push_back(TraceOp::compute());
    ASSERT_EQ(ops.size(), kOpBlockOps + 2);
    expectRoundTrip(ops);

    // An empty block is zero words and decodes to zero ops.
    OpBlockEncoder encoder;
    encoder.finish();
    EXPECT_TRUE(encoder.words().empty());
    size_t n_ops = 1;
    EXPECT_EQ(decodeOpBlock(nullptr, 0, 0, nullptr, n_ops), nullptr);
    EXPECT_EQ(n_ops, 0u);
}

TEST(OpCodec, CountedRunsEncodeLikeSingleInstructions)
{
    // Runs longer than a memory op's field, runs that end a block
    // exactly, and runs that cross one or two block ends: the
    // counted stream and its one-instruction expansion encode to the
    // same words, so a run is split only where a block ends.
    const std::vector<TraceOp> counted{
        TraceOp::store(0x40, 1),
        TraceOp::compute(5000),
        TraceOp::load(0x80, 1),
        TraceOp::compute(3),
        TraceOp::compute(2 * kOpBlockOps - 5000 - 6),
        TraceOp::load(0xc0, 2),
        TraceOp::compute(2 * kOpBlockOps + 3),
        TraceOp::indirect(0x1000, 8, 0x2000, 3),
        TraceOp::compute(1),
        TraceOp::compute(1023),
        TraceOp::store(0x100, 4),
        TraceOp::compute(7),
    };
    std::vector<TraceOp> single;
    appendInstructions(single, counted.data(), counted.size());
    const std::vector<EncodedBlock> blocks = encodeBlocks(counted);
    EXPECT_EQ(blocks, encodeBlocks(single));
    ASSERT_EQ(blocks.size(), 5u);
    for (size_t i = 0; i + 1 < blocks.size(); ++i)
        EXPECT_EQ(blocks[i].instructions, kOpBlockOps) << i;
    expectRoundTrip(counted);

    // The decoder writes one compute op per encoded run: block 1
    // starts inside the 5000-run, so it decodes to the run's rest,
    // the load, the two runs after it merged into one, and the load
    // at the block's last position.
    std::vector<TraceOp> out(kOpBlockOps);
    size_t n_ops = 0;
    ASSERT_EQ(decodeOpBlock(blocks[1].words.data(),
                            blocks[1].words.size(),
                            blocks[1].instructions, out.data(), n_ops),
              nullptr);
    ASSERT_EQ(n_ops, 4u);
    EXPECT_TRUE(sameOp(out[0], TraceOp::compute(5000 - kOpBlockOps + 1)));
    EXPECT_TRUE(sameOp(out[1], TraceOp::load(0x80, 1)));
    EXPECT_TRUE(sameOp(out[2], TraceOp::compute(2 * kOpBlockOps - 5003)));
    EXPECT_TRUE(sameOp(out[3], TraceOp::load(0xc0, 2)));
}

TEST(OpCodec, EncoderRefusesAnEmptyRun)
{
    OpBlockEncoder encoder;
    const TraceOp ops[] = {TraceOp::load(64, 1), TraceOp::compute(0)};
    EXPECT_THROW(encoder.add(ops, 2), std::logic_error);
}

TEST(OpCodec, RandomStreamsRoundTrip)
{
    std::mt19937_64 rng(20031);
    const auto pick = [&](uint64_t n) { return rng() % n; };
    std::vector<TraceOp> ops;
    for (int i = 0; i < 60'000; ++i) {
        const uint64_t roll = pick(100);
        // Addresses of every width, small RefIds with rare edges.
        const Addr addr = rng() >> pick(64);
        const RefId ref = pick(50) ? static_cast<RefId>(pick(16))
                                   : static_cast<RefId>(rng());
        if (roll < 60) {
            ops.push_back(TraceOp::compute());
        } else if (roll < 61) {
            ops.push_back(op(OpKind::Compute, ref, addr));
        } else if (roll < 80) {
            ops.push_back(TraceOp::load(addr, ref));
        } else if (roll < 95) {
            ops.push_back(TraceOp::store(addr, ref));
        } else {
            ops.push_back(TraceOp::indirect(
                rng() >> pick(64), static_cast<uint32_t>(rng()), addr,
                pick(2) ? kInvalidRefId : ref));
        }
    }
    expectRoundTrip(ops);
}

TEST(OpCodec, DecoderRejectsMalformedBlocks)
{
    std::vector<TraceOp> out(kOpBlockOps);
    const auto decode = [&](std::vector<uint64_t> words,
                            size_t n_insts) {
        size_t n_ops = 0;
        return decodeOpBlock(words.data(), words.size(), n_insts,
                             out.data(), n_ops);
    };
    // Encode one of each record shape to mutate.
    OpBlockEncoder encoder;
    const TraceOp ops[] = {TraceOp::compute(), TraceOp::load(64, 1),
                           TraceOp::indirect(128, 8, 256, 2),
                           TraceOp::store(1ull << 40, 3),
                           TraceOp::compute()};
    encoder.add(ops, 5);
    encoder.finish();
    const std::vector<uint64_t> good = encoder.words();
    ASSERT_EQ(decode(good, 5), nullptr);
    // words: [load+run 1] [indirect] [target] [escape] x3 [run 1]
    ASSERT_EQ(good.size(), 8u);

    EXPECT_NE(decode(good, 4), nullptr);  // more than declared
    EXPECT_NE(decode(good, 6), nullptr);  // fewer than declared
    EXPECT_NE(decode(good, kOpBlockOps + 1), nullptr);
    // Truncated: indirect without its target word, escape without
    // its field words.
    EXPECT_NE(decode({good[0], good[1]}, 3), nullptr);
    EXPECT_NE(decode({good[3], good[4], good[5]}, 1), nullptr);
    // Escape with reserved bits set; an element size past 32 bits.
    EXPECT_NE(decode({good[3] | 1ull << 20, good[4], good[5], good[6]},
                     1),
              nullptr);
    EXPECT_NE(decode({good[3], good[4], good[5], 1ull << 32}, 1),
              nullptr);
    // Unknown control word type; an empty compute run; a run longer
    // than the block's instruction count.
    EXPECT_NE(decode({2ull << 2}, 1), nullptr);
    EXPECT_NE(decode({0}, 0), nullptr);
    EXPECT_NE(decode({uint64_t{kOpBlockOps + 1} << 4}, kOpBlockOps),
              nullptr);
    EXPECT_NE(decode({good[0]}, 1), nullptr); // run 1 + load = 2 ops
    // A memory op whose run would write past a full block's buffer.
    const uint64_t load_after_1023 = 1023ull << 2 | 1;
    EXPECT_NE(decode({uint64_t{kOpBlockOps - 1} << 4, load_after_1023},
                     kOpBlockOps),
              nullptr);
}

constexpr uint64_t kSeed = 42;
constexpr uint64_t kCompareOps = 100'000;

/** The instructions makeTraceSource produces for @p name after the
 *  IR transform a sweep recording applies, cut at @p count. */
std::vector<TraceOp>
interpreterStream(const std::string &name, uint64_t count)
{
    FunctionalMemory fmem;
    Program prog = makeWorkload(name)->build(fmem, kSeed);
    HintGenerator::transform(prog);
    const auto source = makeTraceSource(prog, fmem, kSeed);
    std::vector<TraceOp> insts;
    const TraceOp *batch = nullptr;
    while (insts.size() < count) {
        const size_t n = source->nextBatch(&batch);
        if (n == 0)
            break;
        appendInstructions(insts, batch, n, count);
    }
    return insts;
}

/** The first instruction at or after @p from that continues a run of
 *  plain compute instructions in the same block: a position inside
 *  an encoded run. */
uint64_t
insideRun(const std::vector<TraceOp> &insts, uint64_t from)
{
    for (uint64_t i = std::max<uint64_t>(from, 1); i < insts.size();
         ++i) {
        if (i % kOpBlockOps != 0 && insts[i].kind == OpKind::Compute &&
            insts[i - 1].kind == OpKind::Compute)
            return i;
    }
    ADD_FAILURE() << "no compute run after " << from;
    return from;
}

TEST(SweepRecordingCodec, ReadersReplayTheInterpreterStream)
{
    setQuiet(true);
    for (const std::string &name : perfSuite()) {
        SCOPED_TRACE(name);
        const std::vector<TraceOp> want =
            interpreterStream(name, kCompareOps);
        ASSERT_EQ(want.size(), kCompareOps);

        auto rec = std::make_shared<SweepRecording>(
            name, kSeed, SimConfig{}.l2.sizeBytes);
        const auto reader = SweepRecording::makeReader(rec);
        std::vector<TraceOp> got;
        const TraceOp *batch = nullptr;
        while (got.size() < want.size()) {
            const size_t n = reader->nextBatch(&batch);
            ASSERT_GT(n, 0u) << "stream ended at " << got.size();
            appendInstructions(got, batch, n, want.size());
        }
        for (size_t i = 0; i < want.size(); ++i)
            ASSERT_TRUE(sameOp(got[i], want[i])) << "instruction " << i;

        // fetchSpan from inside a block runs to that block's end and
        // counts instructions; from inside a run it starts with the
        // run's rest.
        const uint64_t in_run = insideRun(want, kOpBlockOps + 7);
        for (uint64_t begin : {uint64_t{0}, uint64_t{1},
                               uint64_t{kOpBlockOps - 1},
                               uint64_t{kOpBlockOps + 7}, in_run,
                               kCompareOps - 1}) {
            const TraceOp *span = nullptr;
            const size_t n = rec->fetchSpan(begin, &span);
            ASSERT_EQ(n, kOpBlockOps - begin % kOpBlockOps) << begin;
            std::vector<TraceOp> insts;
            for (const TraceOp *op = span; insts.size() < n; ++op)
                appendInstructions(insts, op, 1);
            ASSERT_EQ(insts.size(), n) << begin;
            for (size_t i = 0; i < n && begin + i < want.size(); ++i)
                ASSERT_TRUE(sameOp(insts[i], want[begin + i]))
                    << "instruction " << begin + i;
        }
        // Inside a run a span starts with the run's rest: one
        // instruction later, one instruction shorter.
        const TraceOp *span = nullptr;
        ASSERT_GT(rec->fetchSpan(in_run - 1, &span), 0u);
        const uint32_t before = span[0].count;
        ASSERT_GT(rec->fetchSpan(in_run, &span), 0u);
        EXPECT_EQ(span[0].kind, OpKind::Compute);
        EXPECT_EQ(span[0].count + 1, before);

        // The recorded stream costs at most 4 bytes per instruction.
        EXPECT_GE(rec->opsRecorded(), kCompareOps);
        EXPECT_LE(rec->bytesRecorded(), 4 * rec->opsRecorded());
    }
}

} // namespace
} // namespace grp
