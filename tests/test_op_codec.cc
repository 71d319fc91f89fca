/**
 * @file
 * The op-stream codec (src/harness/op_codec) and the sweep recording
 * built on it: every TraceOp round-trips exactly, edge values
 * included; the decoder rejects malformed blocks with a reason; and a
 * recording replays each perfSuite() kernel element for element as
 * the interpreter produced it, at under 4 bytes per op.
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
        a.base == b.base && a.elemSize == b.elemSize)
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << "kind " << int(a.kind) << "/" << int(b.kind) << " ref "
           << a.refId << "/" << b.refId << " addr " << a.addr << "/"
           << b.addr << " base " << a.base << "/" << b.base << " size "
           << a.elemSize << "/" << b.elemSize;
}

/** Encode @p ops in kOpBlockOps blocks, decode every block back and
 *  expect the stream unchanged; returns the words used. */
size_t
expectRoundTrip(const std::vector<TraceOp> &ops)
{
    OpBlockEncoder encoder;
    std::vector<TraceOp> decoded(kOpBlockOps);
    size_t words = 0;
    for (size_t at = 0; at < ops.size(); at += kOpBlockOps) {
        const size_t n = std::min(kOpBlockOps, ops.size() - at);
        encoder.add(ops.data() + at, n);
        encoder.finish();
        const char *error =
            decodeOpBlock(encoder.words().data(), encoder.words().size(),
                          n, decoded.data());
        EXPECT_EQ(error, nullptr) << error;
        for (size_t i = 0; i < n; ++i) {
            EXPECT_TRUE(sameOp(decoded[i], ops[at + i]))
                << "op " << at + i;
        }
        words += encoder.words().size();
        encoder.clear();
    }
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
    EXPECT_EQ(decodeOpBlock(nullptr, 0, 0, nullptr), nullptr);
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
    const auto decode = [&](std::vector<uint64_t> words, size_t n_ops) {
        return decodeOpBlock(words.data(), words.size(), n_ops,
                             out.data());
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

    EXPECT_NE(decode(good, 4), nullptr);  // more ops than declared
    EXPECT_NE(decode(good, 6), nullptr);  // fewer ops than declared
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
    // than the block's op count.
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

/** The stream makeTraceSource produces for @p name after the IR
 *  transform a sweep recording applies, cut at @p count ops. */
std::vector<TraceOp>
interpreterStream(const std::string &name, uint64_t count)
{
    FunctionalMemory fmem;
    Program prog = makeWorkload(name)->build(fmem, kSeed);
    HintGenerator::transform(prog);
    const auto source = makeTraceSource(prog, fmem, kSeed);
    std::vector<TraceOp> ops;
    const TraceOp *batch = nullptr;
    while (ops.size() < count) {
        const size_t n = source->nextBatch(&batch);
        if (n == 0)
            break;
        ops.insert(ops.end(), batch,
                   batch + std::min<uint64_t>(n, count - ops.size()));
    }
    return ops;
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
        uint64_t at = 0;
        const TraceOp *batch = nullptr;
        while (at < want.size()) {
            const size_t n = reader->nextBatch(&batch);
            ASSERT_GT(n, 0u) << "stream ended at op " << at;
            for (size_t i = 0; i < n && at < want.size(); ++i, ++at)
                ASSERT_TRUE(sameOp(batch[i], want[at])) << "op " << at;
        }

        // fetchSpan from inside a block runs to that block's end.
        for (uint64_t begin : {uint64_t{0}, uint64_t{1},
                               uint64_t{kOpBlockOps - 1},
                               uint64_t{kOpBlockOps + 7},
                               kCompareOps - 1}) {
            const TraceOp *span = nullptr;
            const size_t n = rec->fetchSpan(begin, &span);
            ASSERT_EQ(n, kOpBlockOps - begin % kOpBlockOps) << begin;
            for (size_t i = 0; i < n && begin + i < want.size(); ++i)
                ASSERT_TRUE(sameOp(span[i], want[begin + i]))
                    << "op " << begin + i;
        }

        // The recorded stream costs at most 4 bytes per op.
        EXPECT_GE(rec->opsRecorded(), kCompareOps);
        EXPECT_LE(rec->bytesRecorded(), 4 * rec->opsRecorded());
    }
}

} // namespace
} // namespace grp
