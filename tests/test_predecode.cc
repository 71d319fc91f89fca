/** @file Differential tests: decoded interpreter vs the tree walker. */

#include <gtest/gtest.h>

#include "compiler/hint_generator.hh"
#include "sim/logging.hh"
#include "workloads/interpreter.hh"
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
    }

    /** Drive both interpreters @p count ops and assert element-for-
     *  element stream equality (including end-of-trace position).
     *  Adds the indirect-prefetch ops seen to @p indirect. */
    static void
    expectSameStream(Interpreter &tree, DecodedInterpreter &decoded,
                     const std::string &name, uint64_t count,
                     uint64_t *indirect = nullptr)
    {
        TraceOp a, b;
        for (uint64_t k = 0; k < count; ++k) {
            const bool more_tree = tree.next(a);
            const bool more_decoded = decoded.next(b);
            ASSERT_EQ(more_tree, more_decoded) << name << " op " << k;
            if (!more_tree)
                return;
            expectSameOp(a, b, name, k);
            if (indirect && a.kind == OpKind::IndirectPrefetch)
                ++*indirect;
        }
        ASSERT_EQ(tree.opsEmitted(), decoded.opsEmitted()) << name;
    }
};

TEST_F(PredecodeTest, AllKernelsEmitIdenticalStreams)
{
    // Each kernel as built, and as the runner runs it: after
    // HintGenerator::transform adds its indirect-prefetch statements,
    // over a longer stream than a 100k-instruction run consumes.
    uint64_t indirect = 0;
    for (const auto &name : workloadNames()) {
        for (const bool transformed : {false, true}) {
            FunctionalMemory m1, m2;
            auto w1 = makeWorkload(name);
            auto w2 = makeWorkload(name);
            Program p1 = w1->build(m1, 42);
            Program p2 = w2->build(m2, 42);
            if (transformed) {
                HintGenerator::transform(p1);
                HintGenerator::transform(p2);
            }
            Interpreter tree(p1, m1, 42);
            DecodedInterpreter decoded(p2, m2, 42);
            expectSameStream(tree, decoded,
                             transformed ? name + "/transformed" : name,
                             transformed ? 150'000 : 50'000, &indirect);
        }
    }
    EXPECT_GT(indirect, 0u) << "no kernel emitted an indirect prefetch";
}

TEST_F(PredecodeTest, IdenticalAcrossSeeds)
{
    // Seeds exercise the RNG-draw-order contract (Random subscripts,
    // tree descents) on the irregular kernels.
    for (const char *name : {"twolf", "mcf", "vpr", "sphinx", "gap"}) {
        for (uint64_t seed : {1ull, 7ull, 1234567ull}) {
            FunctionalMemory m1, m2;
            auto w1 = makeWorkload(name);
            auto w2 = makeWorkload(name);
            Program p1 = w1->build(m1, seed);
            Program p2 = w2->build(m2, seed);
            Interpreter tree(p1, m1, seed);
            DecodedInterpreter decoded(p2, m2, seed);
            expectSameStream(tree, decoded, name, 20'000);
        }
    }
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

TEST_F(PredecodeTest, BoundedPassesFinishAtTheSameOp)
{
    // With a finite pass budget both interpreters must exhaust at the
    // same stream position with the same emitted-op count.
    FunctionalMemory m1, m2;
    Program p1 = buildSyntheticProgram(m1);
    Program p2 = buildSyntheticProgram(m2);
    Interpreter tree(p1, m1, 42, 3);
    DecodedInterpreter decoded(p2, m2, 42, 3);
    TraceOp a, b;
    uint64_t k = 0;
    for (;;) {
        const bool more_tree = tree.next(a);
        const bool more_decoded = decoded.next(b);
        ASSERT_EQ(more_tree, more_decoded) << "op " << k;
        if (!more_tree)
            break;
        expectSameOp(a, b, "synthetic", k);
        ++k;
    }
    EXPECT_GT(k, 0u);
    EXPECT_EQ(tree.opsEmitted(), decoded.opsEmitted());
    // Exhausted sources stay exhausted.
    EXPECT_FALSE(decoded.next(b));
}

TEST_F(PredecodeTest, ResetReplaysTheTreeWalkersResetStream)
{
    // reset() must mirror the tree walker's reset exactly — including
    // its quirk of leaving stale induction-variable values behind, so
    // the post-reset streams must still match each other.
    FunctionalMemory m1, m2;
    auto w1 = makeWorkload("twolf");
    auto w2 = makeWorkload("twolf");
    Program p1 = w1->build(m1, 42);
    Program p2 = w2->build(m2, 42);
    Interpreter tree(p1, m1, 42);
    DecodedInterpreter decoded(p2, m2, 42);
    TraceOp a, b;
    for (int k = 0; k < 12'345; ++k) {
        ASSERT_TRUE(tree.next(a));
        ASSERT_TRUE(decoded.next(b));
    }
    tree.reset();
    decoded.reset();
    EXPECT_EQ(decoded.opsEmitted(), 0u);
    expectSameStream(tree, decoded, "twolf/reset", 20'000);
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
    FunctionalMemory m1, m2;
    auto w1 = makeWorkload("gzip");
    auto w2 = makeWorkload("gzip");
    Program p1 = w1->build(m1, 42);
    Program p2 = w2->build(m2, 42);
    Interpreter tree(p1, m1, 42);
    auto decoded = makeTraceSource(p2, m2, 42);
    EXPECT_NE(dynamic_cast<DecodedInterpreter *>(decoded.get()),
              nullptr);
    TraceOp a, b;
    for (int k = 0; k < 5'000; ++k) {
        ASSERT_TRUE(tree.next(a));
        ASSERT_TRUE(decoded->next(b));
        expectSameOp(a, b, "gzip/factory", k);
    }
}

} // namespace
} // namespace grp
