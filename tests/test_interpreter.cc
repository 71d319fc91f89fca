/** @file Unit tests for the IR interpreter. */

#include <gtest/gtest.h>

#include <vector>

#include "compiler/builder.hh"
#include "op_stream.hh"
#include "sim/logging.hh"
#include "workloads/predecode.hh"

namespace grp
{
namespace
{

class InterpreterTest : public ::testing::Test
{
  protected:
    void SetUp() override { setQuiet(true); }

    /** The program's instructions, a compute run of n as n ops. */
    std::vector<TraceOp>
    collect(const Program &prog, uint64_t passes = 1,
            size_t limit = 100'000)
    {
        DecodedInterpreter interp(prog, mem, 42, passes);
        return instructionsOf(interp, limit);
    }

    FunctionalMemory mem;
};

TEST_F(InterpreterTest, CountedLoopEmitsAffineAddresses)
{
    ProgramBuilder b(mem);
    const ArrayId a = b.array("a", 8, {64});
    const VarId i = b.forLoop(0, 8);
    b.arrayRef(a, {Subscript::affine(Affine::var(i, 2, 1))});
    b.end();
    Program prog = b.build();
    const Addr base = prog.arrays[0].base;

    auto ops = collect(prog);
    ASSERT_EQ(ops.size(), 8u);
    for (int k = 0; k < 8; ++k) {
        EXPECT_EQ(ops[k].kind, OpKind::Load);
        EXPECT_EQ(ops[k].addr, base + 8 * (2 * k + 1));
    }
}

TEST_F(InterpreterTest, StoresAndComputesEmitted)
{
    ProgramBuilder b(mem);
    const ArrayId a = b.array("a", 8, {8});
    const VarId i = b.forLoop(0, 2);
    b.arrayRef(a, {Subscript::affine(Affine::var(i))}, true);
    b.compute(3);
    b.end();
    auto ops = collect(b.build());
    ASSERT_EQ(ops.size(), 8u);
    EXPECT_EQ(ops[0].kind, OpKind::Store);
    EXPECT_EQ(ops[1].kind, OpKind::Compute);
    EXPECT_EQ(ops[3].kind, OpKind::Compute);
}

TEST_F(InterpreterTest, ComputeRunIsOneOp)
{
    // A Compute statement emits one op that counts its instructions.
    ProgramBuilder b(mem);
    const ArrayId a = b.array("a", 8, {8});
    const VarId i = b.forLoop(0, 2);
    b.arrayRef(a, {Subscript::affine(Affine::var(i))});
    b.compute(1000);
    b.end();
    DecodedInterpreter interp(b.build(), mem, 42, 1);
    const TraceOp *ops = nullptr;
    ASSERT_EQ(interp.nextBatch(&ops), 4u);
    for (size_t k : {0, 2}) {
        EXPECT_EQ(ops[k].kind, OpKind::Load);
        EXPECT_EQ(ops[k].count, 1u);
    }
    for (size_t k : {1, 3}) {
        EXPECT_EQ(ops[k].kind, OpKind::Compute);
        EXPECT_EQ(ops[k].count, 1000u);
    }
    EXPECT_EQ(interp.nextBatch(&ops), 0u);
}

TEST_F(InterpreterTest, NestedLoopsColumnMajor)
{
    ProgramBuilder b(mem);
    ArrayOpts fortran;
    fortran.columnMajor = true;
    const ArrayId a = b.array("a", 8, {4, 4}, fortran);
    const VarId j = b.forLoop(0, 4);
    const VarId i = b.forLoop(0, 4);
    b.arrayRef(a, {Subscript::affine(Affine::var(i)),
                   Subscript::affine(Affine::var(j))});
    b.end();
    b.end();
    Program prog = b.build();
    const Addr base = prog.arrays[0].base;
    auto ops = collect(prog);
    ASSERT_EQ(ops.size(), 16u);
    // Column-major: consecutive inner iterations are unit stride.
    EXPECT_EQ(ops[1].addr, ops[0].addr + 8);
    // New column jumps by 4 elements.
    EXPECT_EQ(ops[4].addr, base + 8 * 4);
}

TEST_F(InterpreterTest, PointerChaseFollowsMemory)
{
    // Build a 3-node list by hand.
    const Addr n0 = mem.heapAlloc(64, 64);
    const Addr n1 = mem.heapAlloc(64, 64);
    const Addr n2 = mem.heapAlloc(64, 64);
    mem.write64(n0 + 8, n1);
    mem.write64(n1 + 8, n2);
    mem.write64(n2 + 8, 0);

    ProgramBuilder b(mem);
    const TypeId t = b.structType("t", 64, {{"next", 8, true, 0}});
    const PtrId p = b.ptr("p", t, n0);
    b.whileLoop(p);
    b.ptrRef(p, 0);
    b.ptrUpdateField(p, 8);
    b.end();
    auto ops = collect(b.build());
    ASSERT_EQ(ops.size(), 6u);
    EXPECT_EQ(ops[0].addr, n0);
    EXPECT_EQ(ops[1].addr, n0 + 8);
    EXPECT_EQ(ops[2].addr, n1);
    EXPECT_EQ(ops[4].addr, n2);
}

TEST_F(InterpreterTest, ChaseRespectsMaxIter)
{
    const Addr n0 = mem.heapAlloc(64, 64);
    mem.write64(n0 + 8, n0); // Self-loop: would run forever.
    ProgramBuilder b(mem);
    const TypeId t = b.structType("t", 64, {{"next", 8, true, 0}});
    const PtrId p = b.ptr("p", t, n0);
    b.whileLoop(p, 5);
    b.ptrUpdateField(p, 8);
    b.end();
    auto ops = collect(b.build());
    EXPECT_EQ(ops.size(), 5u);
}

TEST_F(InterpreterTest, NullChaseSkipsBody)
{
    ProgramBuilder b(mem);
    const PtrId p = b.ptr("p", kNoId, 0);
    b.whileLoop(p);
    b.ptrRef(p, 0);
    b.end();
    b.compute(1);
    auto ops = collect(b.build());
    ASSERT_EQ(ops.size(), 1u);
    EXPECT_EQ(ops[0].kind, OpKind::Compute);
}

TEST_F(InterpreterTest, IndirectSubscriptEmitsIndexLoad)
{
    ProgramBuilder b(mem);
    const ArrayId idx = b.array("idx", 4, {16});
    const ArrayId data = b.array("data", 8, {1024});
    Program *captured = nullptr;
    for (unsigned i = 0; i < 16; ++i)
        mem.write32(b.arrayBase(idx) + 4 * i, 100 + i);
    const VarId i = b.forLoop(0, 4);
    b.arrayRef(data, {Subscript::indirect(idx, Affine::var(i))});
    b.end();
    Program prog = b.build();
    captured = &prog;
    auto ops = collect(prog);
    // Each iteration: index load then data load.
    ASSERT_EQ(ops.size(), 8u);
    const Addr idx_base = captured->arrays[0].base;
    const Addr data_base = captured->arrays[1].base;
    EXPECT_EQ(ops[0].addr, idx_base);
    EXPECT_EQ(ops[1].addr, data_base + 8 * 100);
    EXPECT_EQ(ops[2].addr, idx_base + 4);
    EXPECT_EQ(ops[3].addr, data_base + 8 * 101);
    // The index load carries its own static id.
    EXPECT_NE(ops[0].refId, ops[1].refId);
}

TEST_F(InterpreterTest, RandomSubscriptIsDeterministicPerSeed)
{
    ProgramBuilder b(mem);
    const ArrayId a = b.array("a", 8, {4096});
    const VarId i = b.forLoop(0, 64);
    (void)i;
    b.arrayRef(a, {Subscript::random(4096)});
    b.end();
    Program prog = b.build();

    DecodedInterpreter x(prog, mem, 7), y(prog, mem, 7), z(prog, mem, 8);
    TraceOp ox, oy, oz;
    bool differs = false;
    for (int k = 0; k < 64; ++k) {
        ASSERT_TRUE(x.next(ox));
        ASSERT_TRUE(y.next(oy));
        ASSERT_TRUE(z.next(oz));
        EXPECT_EQ(ox.addr, oy.addr);
        differs = differs || ox.addr != oz.addr;
    }
    EXPECT_TRUE(differs);
}

TEST_F(InterpreterTest, PassesResetPointers)
{
    const Addr n0 = mem.heapAlloc(64, 64);
    const Addr n1 = mem.heapAlloc(64, 64);
    mem.write64(n0 + 8, n1);
    mem.write64(n1 + 8, 0);
    ProgramBuilder b(mem);
    const TypeId t = b.structType("t", 64, {{"next", 8, true, 0}});
    const PtrId p = b.ptr("p", t, n0);
    b.whileLoop(p);
    b.ptrRef(p, 0);
    b.ptrUpdateField(p, 8);
    b.end();
    auto ops = collect(b.build(), /*passes=*/2);
    ASSERT_EQ(ops.size(), 8u);
    EXPECT_EQ(ops[4].addr, n0); // Second pass restarts at the head.
}

TEST_F(InterpreterTest, IndirectPfEmitsOncePerIndexBlock)
{
    ProgramBuilder b(mem);
    const ArrayId idx = b.array("idx", 4, {64});
    const ArrayId data = b.array("data", 8, {4096});
    const VarId i = b.forLoop(0, 40);
    Stmt pf;
    pf.kind = StmtKind::IndirectPf;
    pf.targetArray = data;
    pf.indexArray = idx;
    pf.indexExpr = Affine::var(i);
    pf.everyN = 16;
    // Inject the statement the compiler pass would insert.
    b.compute(0);
    b.end();
    Program prog = b.build();
    prog.top[0].loop.body[0] = Node::of(pf);

    auto ops = collect(prog);
    unsigned indirect_ops = 0;
    for (const TraceOp &op : ops)
        indirect_ops += op.kind == OpKind::IndirectPrefetch;
    EXPECT_EQ(indirect_ops, 3u); // i = 0, 16, 32.
}

TEST_F(InterpreterTest, PtrArrayRefUsesElementSize)
{
    ProgramBuilder b(mem);
    const Addr row = mem.heapAlloc(1024, 64);
    const PtrId p = b.ptr("p", kNoId, row);
    const VarId j = b.forLoop(0, 4);
    b.ptrArrayRef(p, 16, Subscript::affine(Affine::var(j)));
    b.end();
    auto ops = collect(b.build());
    ASSERT_EQ(ops.size(), 4u);
    EXPECT_EQ(ops[1].addr, row + 16);
    EXPECT_EQ(ops[3].addr, row + 48);
}

} // namespace
} // namespace grp
