/** @file Tests over the 18 benchmark kernels and their hints. */

#include <gtest/gtest.h>

#include <map>

#include "compiler/hint_generator.hh"
#include "sim/logging.hh"
#include "workloads/kernels.hh"
#include "workloads/predecode.hh"
#include "workloads/workload.hh"

namespace grp
{
namespace
{

class WorkloadTest : public ::testing::Test
{
  protected:
    void SetUp() override { setQuiet(true); }

    HintStats
    hintsFor(const std::string &name)
    {
        FunctionalMemory mem;
        auto workload = makeWorkload(name);
        Program prog = workload->build(mem, 42);
        HintTable table;
        HintGenerator generator(CompilerPolicy::Default, 1 << 20);
        return generator.run(prog, table);
    }
};

TEST_F(WorkloadTest, RegistryHasAllEighteen)
{
    const auto names = workloadNames();
    EXPECT_EQ(names.size(), 18u);
    EXPECT_EQ(names.front(), "gzip");
    EXPECT_EQ(names.back(), "sphinx");
}

TEST_F(WorkloadTest, UnknownNameIsFatal)
{
    EXPECT_THROW(makeWorkload("nosuch"), std::runtime_error);
}

TEST_F(WorkloadTest, InfoFieldsAreConsistent)
{
    for (const auto &name : workloadNames()) {
        auto workload = makeWorkload(name);
        const WorkloadInfo info = workload->info();
        EXPECT_EQ(info.name, name);
        EXPECT_FALSE(info.missCause.empty()) << name;
    }
    EXPECT_TRUE(makeWorkload("crafty")->info().negligibleL2);
    EXPECT_EQ(makeWorkload("mcf")->info().recursiveDepthOverride, 3u);
    EXPECT_TRUE(makeWorkload("swim")->info().isFloat);
    EXPECT_FALSE(makeWorkload("twolf")->info().isFloat);
}

TEST_F(WorkloadTest, TracesAreDeterministicPerSeed)
{
    for (const char *name : {"gzip", "mcf", "sphinx"}) {
        FunctionalMemory m1, m2;
        auto w1 = makeWorkload(name);
        auto w2 = makeWorkload(name);
        Program p1 = w1->build(m1, 7);
        Program p2 = w2->build(m2, 7);
        DecodedInterpreter i1(p1, m1, 7), i2(p2, m2, 7);
        TraceOp a, b;
        for (int k = 0; k < 3000; ++k) {
            ASSERT_TRUE(i1.next(a));
            ASSERT_TRUE(i2.next(b));
            ASSERT_EQ(a.kind, b.kind) << name << " op " << k;
            ASSERT_EQ(a.addr, b.addr) << name << " op " << k;
            ASSERT_EQ(a.refId, b.refId) << name << " op " << k;
        }
    }
}

TEST_F(WorkloadTest, FortranCodesHaveNoPointerHints)
{
    for (const char *name : {"wupwise", "swim", "mgrid", "applu",
                             "apsi"}) {
        const HintStats stats = hintsFor(name);
        EXPECT_EQ(stats.pointer, 0u) << name;
        EXPECT_EQ(stats.recursive, 0u) << name;
        EXPECT_GT(stats.spatial, 0u) << name;
    }
}

TEST_F(WorkloadTest, RecursiveHintsWhereThePaperHasThem)
{
    // Table 3: vpr, mcf, parser, twolf, sphinx have recursive hints.
    for (const char *name : {"vpr", "mcf", "parser", "twolf",
                             "sphinx"}) {
        EXPECT_GT(hintsFor(name).recursive, 0u) << name;
    }
    // ...and ammp / gap do not.
    EXPECT_EQ(hintsFor("ammp").recursive, 0u);
    EXPECT_EQ(hintsFor("gap").recursive, 0u);
}

TEST_F(WorkloadTest, PointerHintsForPointerCodes)
{
    for (const char *name : {"mcf", "parser", "twolf", "ammp", "gap",
                             "equake", "art"}) {
        EXPECT_GT(hintsFor(name).pointer, 0u) << name;
    }
}

TEST_F(WorkloadTest, IndirectInstructionsWhereThePaperHasThem)
{
    EXPECT_GT(hintsFor("vpr").indirect, 0u);
    EXPECT_GT(hintsFor("bzip2").indirect, 0u);
    EXPECT_GT(hintsFor("gzip").indirect, 0u);
    EXPECT_GT(hintsFor("equake").indirect, 0u);
    EXPECT_EQ(hintsFor("swim").indirect, 0u);
    EXPECT_EQ(hintsFor("mcf").indirect, 0u);
}

TEST_F(WorkloadTest, EveryWorkloadProducesMemoryTraffic)
{
    for (const auto &name : workloadNames()) {
        FunctionalMemory mem;
        auto workload = makeWorkload(name);
        Program prog = workload->build(mem, 42);
        DecodedInterpreter interp(prog, mem, 42);
        unsigned memory_ops = 0;
        TraceOp op;
        for (int k = 0; k < 20'000 && interp.next(op); ++k) {
            memory_ops += op.kind == OpKind::Load ||
                          op.kind == OpKind::Store;
        }
        EXPECT_GT(memory_ops, 1000u) << name;
    }
}

TEST_F(WorkloadTest, HeapKernelsContainRealPointers)
{
    // Pointer prefetching depends on genuine pointer bits in memory.
    for (const char *name : {"mcf", "vpr", "sphinx"}) {
        FunctionalMemory mem;
        auto workload = makeWorkload(name);
        Program prog = workload->build(mem, 42);
        bool found = false;
        for (const PtrDecl &ptr : prog.ptrs) {
            if (ptr.initial != 0) {
                found = true;
                // The initial pointer must pass the hardware test.
                EXPECT_TRUE(mem.looksLikeHeapPointer(ptr.initial))
                    << name;
            }
        }
        EXPECT_TRUE(found) << name;
    }
}

TEST_F(WorkloadTest, DistinctSeedsChangeIrregularTraces)
{
    FunctionalMemory m1, m2;
    auto w1 = makeWorkload("twolf");
    auto w2 = makeWorkload("twolf");
    Program p1 = w1->build(m1, 1);
    Program p2 = w2->build(m2, 2);
    DecodedInterpreter i1(p1, m1, 1), i2(p2, m2, 2);
    TraceOp a, b;
    bool differs = false;
    for (int k = 0; k < 5000; ++k) {
        ASSERT_TRUE(i1.next(a));
        ASSERT_TRUE(i2.next(b));
        differs = differs || a.addr != b.addr;
    }
    EXPECT_TRUE(differs);
}

} // namespace
} // namespace grp
