/**
 * @file
 * Authoring a new workload against the public API: build a kernel in
 * the loop-nest IR as a Workload, and let runWorkload derive its
 * hints and simulate it end to end under each scheme.
 *
 * The kernel is a small sparse matrix-vector product — rows of a CSR
 * matrix reached through a heap array of row pointers, with a
 * gathered source vector: the exact cooperative-prefetching shapes
 * (Figure 4 + indirect references) the paper targets.
 */

#include <cstdio>

#include "compiler/builder.hh"
#include "harness/runner.hh"
#include "workloads/heap_builders.hh"

using namespace grp;

namespace
{

class Spmv : public Workload
{
  public:
    WorkloadInfo
    info() const override
    {
        WorkloadInfo info;
        info.name = "spmv";
        return info;
    }

    Program
    build(FunctionalMemory &mem, uint64_t) override
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
            const VarId j =
                b.forLoop(0, static_cast<int64_t>(row_elems));
            b.ptrArrayRef(row, 8, Subscript::affine(Affine::var(j)));
            b.arrayRef(x, {Subscript::indirect(col, Affine::var(j))});
            b.compute(2);
            b.end();
        }
        b.arrayRef(y, {Subscript::affine(Affine::var(i))}, true);
        b.end();
        return b.build();
    }
};

RunResult
simulate(PrefetchScheme scheme)
{
    Spmv kernel;
    SimConfig config;
    config.scheme = scheme;
    RunOptions opts;
    opts.maxInstructions = 400'000;
    opts.warmupInstructions = 0;
    return runWorkload(kernel, config, opts);
}

} // namespace

int
main()
{
    setQuiet(true);
    const RunResult base = simulate(PrefetchScheme::None);

    // Show what the compiler derives for this kernel (every run
    // reports it, whether or not its scheme consumes the hints).
    const HintStats &stats = base.hints;
    std::printf("compiler: %u memory refs -> %u spatial, %u "
                "pointer, %u recursive, %u indirect instr\n\n",
                stats.memInsts, stats.spatial, stats.pointer,
                stats.recursive, stats.indirect);

    std::printf("%-10s %8s %12s\n", "scheme", "IPC", "traffic(KB)");
    std::printf("%-10s %8.3f %12.0f\n", "none", base.ipc,
                base.trafficBytes / 1024.0);
    for (PrefetchScheme scheme :
         {PrefetchScheme::Stride, PrefetchScheme::Srp,
          PrefetchScheme::GrpVar}) {
        const RunResult run = simulate(scheme);
        std::printf("%-10s %8.3f %12.0f   (%.2fx speedup)\n",
                    toString(scheme), run.ipc,
                    run.trafficBytes / 1024.0, run.ipc / base.ipc);
    }
    return 0;
}
