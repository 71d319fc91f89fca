/**
 * @file
 * Pins the decoded interpreter's op streams.
 *
 * A pinned stream's digest is the FNV-1a hash of each instruction's
 * kind, addr, refId, base and elemSize, then of the instruction
 * count; a compute op of count n hashes as n compute instructions.
 * Every pinned stream is read through next() and through
 * nextBatch(), each on a fresh interpreter, and both digests must
 * equal the committed constant. The constants are the streams of the
 * tree-walking interpreter the decoded one replaced, which emitted
 * one op per instruction.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <iterator>

#include "compiler/hint_generator.hh"
#include "fnv1a.hh"
#include "sim/logging.hh"
#include "workloads/kernels.hh"
#include "workloads/predecode.hh"
#include "workloads/workload.hh"

namespace grp
{
namespace
{

class PredecodeTest : public ::testing::Test
{
  protected:
    void SetUp() override { setQuiet(true); }

    static void
    expectSameOp(const TraceOp &a, const TraceOp &b,
                 const std::string &name, uint64_t k)
    {
        ASSERT_EQ(a.kind, b.kind) << name << " op " << k;
        ASSERT_EQ(a.addr, b.addr) << name << " op " << k;
        ASSERT_EQ(a.refId, b.refId) << name << " op " << k;
        ASSERT_EQ(a.base, b.base) << name << " op " << k;
        ASSERT_EQ(a.elemSize, b.elemSize) << name << " op " << k;
        ASSERT_EQ(a.count, b.count) << name << " op " << k;
    }
};

// ---------------------------------------------------------------------------
// Pinned stream digests.

/** One reading of an op stream. */
struct Reading
{
    uint64_t digest = 0;
    /** Instructions read (fewer than asked if the stream ended). */
    uint64_t ops = 0;
    uint64_t indirect = 0; ///< Indirect-prefetch ops among them.
};

/** Folds instructions into a Reading. */
class StreamHash
{
  public:
    /** Fold @p op's instructions, stopping once @p limit are in. */
    void
    add(const TraceOp &op, uint64_t limit = ~0ull)
    {
        const uint64_t n = op.kind == OpKind::Compute ? op.count : 1;
        for (uint64_t i = 0; i < n && reading_.ops < limit; ++i) {
            hash_.mix(static_cast<uint64_t>(op.kind));
            hash_.mix(op.addr);
            hash_.mix(op.refId);
            hash_.mix(op.base);
            hash_.mix(op.elemSize);
            ++reading_.ops;
        }
        reading_.indirect += op.kind == OpKind::IndirectPrefetch;
    }

    Reading
    finish()
    {
        hash_.mix(reading_.ops);
        reading_.digest = hash_.value();
        return reading_;
    }

    uint64_t ops() const { return reading_.ops; }

  private:
    Fnv1a hash_;
    Reading reading_;
};

/** The first @p limit instructions of @p source, one next() call
 *  per op. */
Reading
readByOp(TraceSource &source, uint64_t limit)
{
    StreamHash hash;
    TraceOp op;
    while (hash.ops() < limit && source.next(op))
        hash.add(op, limit);
    return hash.finish();
}

/** The first @p limit instructions of @p source, in nextBatch()
 *  spans. */
Reading
readByBatch(TraceSource &source, uint64_t limit)
{
    StreamHash hash;
    while (hash.ops() < limit) {
        const TraceOp *ops = nullptr;
        const size_t run = source.nextBatch(&ops);
        if (run == 0)
            break;
        for (size_t i = 0; i < run && hash.ops() < limit; ++i)
            hash.add(ops[i], limit);
    }
    return hash.finish();
}

/** One stream, read by two fresh interpreters. */
struct Readings
{
    Reading byOp;
    Reading byBatch;
};

/** The first @p limit ops of @p prog at @p seed. The interpreters
 *  only read @p mem, so it can serve further readings. */
Readings
readProgram(const Program &prog, FunctionalMemory &mem, uint64_t seed,
            uint64_t limit)
{
    const DecodedProgram decoded = DecodedProgram::lower(prog);
    DecodedInterpreter by_op(decoded, mem, seed);
    DecodedInterpreter by_batch(decoded, mem, seed);
    return {readByOp(by_op, limit), readByBatch(by_batch, limit)};
}

/** Both readings in @p got have digest @p pinned; @p entry is the
 *  stream's line in its table, printed on a mismatch. */
void
expectPinned(uint64_t pinned, const Readings &got,
             const std::string &what, const char *entry)
{
    EXPECT_EQ(pinned, got.byOp.digest)
        << what << " via next(); this stream's entry: " << entry;
    EXPECT_EQ(pinned, got.byBatch.digest)
        << what << " via nextBatch(); this stream's entry: " << entry;
}

std::string
hex(uint64_t value)
{
    char text[24];
    std::snprintf(text, sizeof text, "0x%016llxull",
                  static_cast<unsigned long long>(value));
    return text;
}

constexpr uint64_t kKernelOps = 150'000;

struct PinnedKernel
{
    const char *name;
    uint64_t built;       ///< As the workload builds it.
    uint64_t transformed; ///< After HintGenerator::transform.
};

// Every kernel at seed 42, first kKernelOps ops. Change a constant
// only in a commit that means to change an op stream, and say there
// which streams changed and why.
const PinnedKernel kPinnedKernels[] = {
    {"gzip", 0xd1a7aca87a21a8a0ull, 0xa035df7da5ae5710ull},
    {"wupwise", 0xaad94b44ca1f9094ull, 0xaad94b44ca1f9094ull},
    {"swim", 0x65aadd2bc0070311ull, 0x65aadd2bc0070311ull},
    {"mgrid", 0xf75894769f10ae87ull, 0xf75894769f10ae87ull},
    {"applu", 0xf5acf240b57ae2aaull, 0xf5acf240b57ae2aaull},
    {"vpr", 0xcd5532b6fabe9e70ull, 0x59c4d4dbde508b70ull},
    {"mesa", 0x7ed2fea03a1ecffaull, 0x7ed2fea03a1ecffaull},
    {"art", 0x663ee4bdec833fc3ull, 0x663ee4bdec833fc3ull},
    {"mcf", 0x0518d84f0367ea06ull, 0x0518d84f0367ea06ull},
    {"equake", 0xafb74aa9c8b33188ull, 0xbac14004b9ee2555ull},
    {"crafty", 0x2dacaf74f3bda951ull, 0x2dacaf74f3bda951ull},
    {"ammp", 0xf8c18161424adc82ull, 0xf8c18161424adc82ull},
    {"parser", 0xc85117ab3e145afeull, 0xc85117ab3e145afeull},
    {"gap", 0xbec4098fb9ec8504ull, 0xbec4098fb9ec8504ull},
    {"bzip2", 0x40ef87e3e5589ffdull, 0x785f3d0de80fec2dull},
    {"twolf", 0x7f09ed6853b1ec98ull, 0x7f09ed6853b1ec98ull},
    {"apsi", 0xba28b3f21edcdb6cull, 0xba28b3f21edcdb6cull},
    {"sphinx", 0xb43269ac2a7210e8ull, 0xb43269ac2a7210e8ull},
};

/** The pinned row for kernel @p name; null when unpinned. */
const PinnedKernel *
pinnedKernel(const std::string &name)
{
    for (const PinnedKernel &row : kPinnedKernels) {
        if (name == row.name)
            return &row;
    }
    return nullptr;
}

constexpr uint64_t kSeedOps = 20'000;

struct PinnedSeed
{
    const char *name;
    uint64_t seed;
    uint64_t digest;
};

// The irregular kernels as built, first kSeedOps ops at three seeds:
// these pin the order of the random draws (Random subscripts, tree
// descents). mcf's and gap's first kSeedOps ops do not depend on the
// seed, so their three constants are equal.
const PinnedSeed kPinnedSeeds[] = {
    {"twolf", 1, 0x00f8a6424ed3675bull},
    {"twolf", 7, 0x46639a56cdcbf257ull},
    {"twolf", 1234567, 0x0901f43af05180fdull},
    {"mcf", 1, 0x5e8dbeda4ebeb3b0ull},
    {"mcf", 7, 0x5e8dbeda4ebeb3b0ull},
    {"mcf", 1234567, 0x5e8dbeda4ebeb3b0ull},
    {"vpr", 1, 0xdeca7ddef4e0356aull},
    {"vpr", 7, 0x97ea66ab3fe5c992ull},
    {"vpr", 1234567, 0x65fd4d3520cc2836ull},
    {"sphinx", 1, 0x5175a30dceaf779eull},
    {"sphinx", 7, 0x5b20484a939c26afull},
    {"sphinx", 1234567, 0xbd8cdc6a11cdafceull},
    {"gap", 1, 0x60d8b2dda5153cd3ull},
    {"gap", 7, 0x60d8b2dda5153cd3ull},
    {"gap", 1234567, 0x60d8b2dda5153cd3ull},
};

/** The pinned digest of kernel @p name at @p seed; 0 when unpinned. */
uint64_t
pinnedSeed(const std::string &name, uint64_t seed)
{
    for (const PinnedSeed &row : kPinnedSeeds) {
        if (name == row.name && seed == row.seed)
            return row.digest;
    }
    return 0;
}

TEST_F(PredecodeTest, EveryKernelMatchesItsPinnedDigests)
{
    // As built, and as the runner runs it: after the transform adds
    // its indirect-prefetch statements.
    uint64_t indirect = 0;
    for (const std::string &name : workloadNames()) {
        FunctionalMemory mem;
        auto workload = makeWorkload(name);
        Program prog = workload->build(mem, 42);
        const Readings built = readProgram(prog, mem, 42, kKernelOps);
        HintGenerator::transform(prog);
        const Readings transformed =
            readProgram(prog, mem, 42, kKernelOps);
        indirect += transformed.byOp.indirect;
        const std::string entry = "{\"" + name + "\", " +
                                  hex(built.byOp.digest) + ", " +
                                  hex(transformed.byOp.digest) + "},";
        const PinnedKernel *row = pinnedKernel(name);
        expectPinned(row ? row->built : 0, built, name, entry.c_str());
        expectPinned(row ? row->transformed : 0, transformed,
                     name + "/transformed", entry.c_str());
    }
    EXPECT_EQ(std::size(kPinnedKernels), workloadNames().size());
    EXPECT_GT(indirect, 0u) << "no kernel emitted an indirect prefetch";
}

TEST_F(PredecodeTest, IrregularKernelsMatchTheirPinnedDigestsAcrossSeeds)
{
    size_t streams = 0;
    for (const char *name : {"twolf", "mcf", "vpr", "sphinx", "gap"}) {
        for (const uint64_t seed : {1ull, 7ull, 1234567ull}) {
            FunctionalMemory mem;
            auto workload = makeWorkload(name);
            const Readings got = readProgram(workload->build(mem, seed),
                                             mem, seed, kSeedOps);
            const std::string entry =
                std::string("{\"") + name + "\", " +
                std::to_string(seed) + ", " + hex(got.byOp.digest) + "},";
            expectPinned(pinnedSeed(name, seed), got,
                         name + std::string(" seed ") +
                             std::to_string(seed),
                         entry.c_str());
            ++streams;
        }
    }
    EXPECT_EQ(std::size(kPinnedSeeds), streams);
}

/** A compact synthetic program covering every statement and loop
 *  shape: nested counted loops (one zero-trip), indirect and random
 *  subscripts, a linked-list chase with field selection, an induction
 *  pointer, compute runs and an indirect-prefetch op. Small enough
 *  that full multi-pass exhaustion stays fast. */
static Program
buildSyntheticProgram(FunctionalMemory &mem)
{
    Program prog;

    ArrayDecl grid;
    grid.name = "grid";
    grid.elemSize = 8;
    grid.extents = {8, 16};
    grid.base = mem.staticAlloc(8 * 16 * 8);
    prog.arrays.push_back(grid);

    ArrayDecl index;
    index.name = "index";
    index.elemSize = 4;
    index.extents = {32};
    index.base = mem.staticAlloc(32 * 4);
    for (uint64_t i = 0; i < 32; ++i)
        mem.write32(index.base + i * 4, static_cast<uint32_t>(i * 5));
    prog.arrays.push_back(index);

    // A five-node list in the heap: {next @0, child @8, payload @16}.
    constexpr uint64_t kNodeBytes = 24;
    Addr nodes[5];
    for (Addr &node : nodes)
        node = mem.heapAlloc(kNodeBytes);
    for (int i = 0; i < 5; ++i) {
        mem.write64(nodes[i] + 0, i + 1 < 5 ? nodes[i + 1] : 0);
        mem.write64(nodes[i] + 8, nodes[(i + 2) % 5]);
    }

    PtrDecl head;
    head.name = "head";
    head.initial = nodes[0];
    prog.ptrs.push_back(head);
    PtrDecl walker;
    walker.name = "walker";
    prog.ptrs.push_back(walker);
    PtrDecl cursor;
    cursor.name = "cursor";
    cursor.initial = grid.base;
    prog.ptrs.push_back(cursor);

    const VarId i = prog.allocVar();
    const VarId j = prog.allocVar();
    const VarId z = prog.allocVar();

    Loop inner;
    inner.var = j;
    inner.lower = 0;
    inner.upper = 16;
    inner.step = 3;
    {
        Stmt ref;
        ref.kind = StmtKind::ArrayRef;
        ref.refId = prog.allocRef();
        ref.array = 0;
        ref.subs = {Subscript::affine(Affine::var(i)),
                    Subscript::affine(Affine::var(j))};
        inner.body.push_back(Node::of(ref));

        Stmt indirect;
        indirect.kind = StmtKind::ArrayRef;
        indirect.refId = prog.allocRef();
        indirect.isWrite = true;
        indirect.array = 0;
        indirect.subs = {Subscript::affine(Affine::var(i)),
                         Subscript::indirect(1, Affine::var(j), 3, 1)};
        indirect.subs[1].indexRefId = prog.allocRef();
        inner.body.push_back(Node::of(indirect));

        Stmt rand_ref;
        rand_ref.kind = StmtKind::ArrayRef;
        rand_ref.refId = prog.allocRef();
        rand_ref.array = 0;
        rand_ref.subs = {Subscript::affine(Affine::var(i)),
                         Subscript::random(16)};
        inner.body.push_back(Node::of(rand_ref));

        Stmt pf;
        pf.kind = StmtKind::IndirectPf;
        pf.refId = prog.allocRef();
        pf.targetArray = 0;
        pf.indexArray = 1;
        pf.indexExpr = Affine::var(j);
        pf.everyN = 2;
        inner.body.push_back(Node::of(pf));

        Stmt compute;
        compute.kind = StmtKind::Compute;
        compute.count = 3;
        inner.body.push_back(Node::of(compute));
    }

    Loop zero_trip;
    zero_trip.var = z;
    zero_trip.lower = 4;
    zero_trip.upper = 4;
    {
        Stmt never;
        never.kind = StmtKind::ArrayRef;
        never.refId = prog.allocRef();
        never.array = 0;
        never.subs = {Subscript::affine(Affine::of(0)),
                      Subscript::affine(Affine::of(0))};
        zero_trip.body.push_back(Node::of(never));
    }

    Loop outer;
    outer.var = i;
    outer.lower = 0;
    outer.upper = 8;
    outer.body.push_back(Node::of(inner));
    outer.body.push_back(Node::of(zero_trip));
    prog.top.push_back(Node::of(outer));

    Stmt select;
    select.kind = StmtKind::PtrSelectField;
    select.refId = prog.allocRef();
    select.srcPtr = 0;
    select.ptr = 1;
    select.offsetChoices = {0, 8};
    prog.top.push_back(Node::of(select));

    Loop chase;
    chase.kind = Loop::Kind::PtrChase;
    chase.chasePtr = 1;
    chase.maxIter = 7;
    {
        Stmt payload;
        payload.kind = StmtKind::PtrRef;
        payload.refId = prog.allocRef();
        payload.ptr = 1;
        payload.offset = 16;
        payload.isWrite = true;
        chase.body.push_back(Node::of(payload));

        Stmt walk;
        walk.kind = StmtKind::PtrUpdateField;
        walk.refId = prog.allocRef();
        walk.ptr = 1;
        walk.offset = 0;
        chase.body.push_back(Node::of(walk));
    }
    prog.top.push_back(Node::of(chase));

    Stmt row;
    row.kind = StmtKind::PtrArrayRef;
    row.refId = prog.allocRef();
    row.ptr = 2;
    row.elemSize = 8;
    row.subs = {Subscript::random(16)};
    prog.top.push_back(Node::of(row));

    Stmt bump;
    bump.kind = StmtKind::PtrUpdateConst;
    bump.ptr = 2;
    bump.stride = 64;
    prog.top.push_back(Node::of(bump));

    return prog;
}

// The synthetic program's whole three-pass stream.
constexpr uint64_t kSyntheticOps = 1108;
constexpr uint64_t kSyntheticDigest = 0x7036b61ca11de05eull;

TEST_F(PredecodeTest, SyntheticProgramMatchesItsPinnedDigest)
{
    FunctionalMemory mem;
    const Program prog = buildSyntheticProgram(mem);
    DecodedInterpreter by_op(prog, mem, 42, 3);
    DecodedInterpreter by_batch(prog, mem, 42, 3);
    const Readings got{readByOp(by_op, ~0ull),
                       readByBatch(by_batch, ~0ull)};
    const std::string entry =
        std::to_string(got.byOp.ops) + " ops, " + hex(got.byOp.digest);
    expectPinned(kSyntheticDigest, got, "synthetic", entry.c_str());
    EXPECT_EQ(kSyntheticOps, got.byOp.ops);
    EXPECT_EQ(kSyntheticOps, got.byBatch.ops);
    // An exhausted source stays exhausted, through either call.
    for (DecodedInterpreter *interp : {&by_op, &by_batch}) {
        TraceOp op;
        const TraceOp *ops = nullptr;
        EXPECT_FALSE(interp->next(op));
        EXPECT_EQ(interp->nextBatch(&ops), 0u);
        EXPECT_FALSE(interp->next(op));
    }
}

TEST_F(PredecodeTest, SharedDecodedProgramIsReusable)
{
    // One DecodedProgram, many interpreters: the lowered form is
    // immutable, so a second interpreter over the same decode must
    // reproduce the stream of an owning interpreter from scratch.
    FunctionalMemory m1, m2;
    auto w1 = makeWorkload("mcf");
    auto w2 = makeWorkload("mcf");
    Program p1 = w1->build(m1, 9);
    Program p2 = w2->build(m2, 9);
    const DecodedProgram shared = DecodedProgram::lower(p1);
    DecodedInterpreter first(shared, m1, 9);
    DecodedInterpreter second(p2, m2, 9);
    TraceOp a, b;
    for (int k = 0; k < 10'000; ++k) {
        ASSERT_TRUE(first.next(a));
        ASSERT_TRUE(second.next(b));
        expectSameOp(a, b, "mcf/shared", k);
    }
}

TEST_F(PredecodeTest, FactoryReturnsTheDecodedInterpreter)
{
    // makeTraceSource is how a standalone run gets its ops: it must
    // hand out the decoded interpreter, emitting the pinned stream.
    FunctionalMemory mem;
    auto workload = makeWorkload("gzip");
    const Program prog = workload->build(mem, 42);
    auto by_op = makeTraceSource(prog, mem, 42);
    auto by_batch = makeTraceSource(prog, mem, 42);
    EXPECT_NE(dynamic_cast<DecodedInterpreter *>(by_op.get()), nullptr);
    const PinnedKernel *row = pinnedKernel("gzip");
    ASSERT_NE(row, nullptr);
    EXPECT_EQ(row->built, readByOp(*by_op, kKernelOps).digest);
    EXPECT_EQ(row->built, readByBatch(*by_batch, kKernelOps).digest);
}

} // namespace
} // namespace grp
