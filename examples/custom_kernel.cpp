/**
 * @file
 * Authoring a new workload against the public API: build a kernel in
 * the loop-nest IR, let the compiler pipeline derive hints for it,
 * and simulate it end to end under GRP.
 *
 * The kernel is a small sparse matrix-vector product — rows of a CSR
 * matrix reached through a heap array of row pointers, with a
 * gathered source vector: the exact cooperative-prefetching shapes
 * (Figure 4 + indirect references) the paper targets.
 */

#include <cstdio>

#include "compiler/builder.hh"
#include "compiler/hint_generator.hh"
#include "core/engine_factory.hh"
#include "cpu/cpu.hh"
#include "mem/memory_system.hh"
#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "workloads/heap_builders.hh"
#include "workloads/predecode.hh"

using namespace grp;

namespace
{

Program
buildSpmv(FunctionalMemory &mem)
{
    Rng rng(1234);
    ProgramBuilder b(mem);

    const uint64_t rows = 2048;
    const uint64_t row_elems = 256; // 2 KB rows, 4 MB total.
    ArrayOpts ptr_opts;
    ptr_opts.heap = true;
    ptr_opts.elemIsPointer = true;
    const ArrayId rowptr = b.array("rowptr", 8, {rows}, ptr_opts);
    buildPointerRows(mem, b.arrayBase(rowptr), rows, row_elems * 8);

    const uint64_t n = 128 * 1024;
    const ArrayId x = b.array("x", 8, {n});
    const ArrayId y = b.array("y", 8, {rows});
    const ArrayId col = b.array("col", 4, {row_elems});
    fillIndexArray(mem, b.arrayBase(col), row_elems, n, 4, rng);

    const PtrId row = b.ptr("row");
    const VarId i = b.forLoop(0, static_cast<int64_t>(rows));
    b.ptrLoadFromArray(row, rowptr,
                       Subscript::affine(Affine::var(i)));
    {
        const VarId j = b.forLoop(0,
                                  static_cast<int64_t>(row_elems));
        b.ptrArrayRef(row, 8, Subscript::affine(Affine::var(j)));
        b.arrayRef(x, {Subscript::indirect(col, Affine::var(j))});
        b.compute(2);
        b.end();
    }
    b.arrayRef(y, {Subscript::affine(Affine::var(i))}, true);
    b.end();
    return b.build();
}

double
simulate(const Program &prog_template, FunctionalMemory &mem,
         PrefetchScheme scheme, uint64_t *traffic)
{
    // The compiler transforms the IR (indirect instruction
    // insertion), so each scheme analyses a fresh copy.
    Program prog = prog_template;
    SimConfig config;
    config.scheme = scheme;

    HintTable table;
    HintGenerator generator(config.policy, config.l2.sizeBytes);
    generator.run(prog, table);

    EventQueue events;
    MemorySystem memsys(config, events);
    auto engine = makePrefetchEngine(config, mem, memsys);
    const auto trace = makeTraceSource(prog, mem, 42);
    Cpu cpu(config, memsys, events, *trace,
            config.usesHints() ? &table : nullptr);

    Tick cycle = 0;
    while (!cpu.done() && cpu.retiredInstructions() < 400'000) {
        events.advanceTo(cycle);
        cpu.tick();
        memsys.tick();
        ++cycle;
    }
    *traffic = memsys.trafficBytes();
    return cpu.ipc();
}

} // namespace

int
main()
{
    setQuiet(true);
    FunctionalMemory mem;
    Program prog = buildSpmv(mem);

    // Show what the compiler derives for this kernel.
    {
        Program copy = prog;
        HintTable table;
        HintGenerator generator(CompilerPolicy::Default, 1 << 20);
        const HintStats stats = generator.run(copy, table);
        std::printf("compiler: %u memory refs -> %u spatial, %u "
                    "pointer, %u recursive, %u indirect instr\n\n",
                    stats.memInsts, stats.spatial, stats.pointer,
                    stats.recursive, stats.indirect);
    }

    std::printf("%-10s %8s %12s\n", "scheme", "IPC", "traffic(KB)");
    uint64_t traffic = 0;
    const double base = simulate(prog, mem, PrefetchScheme::None,
                                 &traffic);
    std::printf("%-10s %8.3f %12.0f\n", "none", base,
                traffic / 1024.0);
    for (PrefetchScheme scheme :
         {PrefetchScheme::Stride, PrefetchScheme::Srp,
          PrefetchScheme::GrpVar}) {
        const double ipc = simulate(prog, mem, scheme, &traffic);
        std::printf("%-10s %8.3f %12.0f   (%.2fx speedup)\n",
                    toString(scheme), ipc, traffic / 1024.0,
                    ipc / base);
    }
    return 0;
}
