/**
 * @file
 * Indirect prefetching demo (Section 3.3.3): a[b[i]] with random
 * index values — the bzip2 pattern. Spatial prefetching cannot
 * predict the targets; the GRP indirect prefetch instruction reads
 * the index block and prefetches all sixteen targets at once.
 */

#include <cstdio>

#include "compiler/builder.hh"
#include "harness/runner.hh"
#include "workloads/heap_builders.hh"

using namespace grp;

namespace
{

/** a[b[i]] over a 16 MB target; the indices run sequentially for
 *  @p cluster_run elements before they jump (1 = fully random). */
class Gather : public Workload
{
  public:
    explicit Gather(unsigned cluster_run) : cluster_run_(cluster_run) {}

    WorkloadInfo
    info() const override
    {
        WorkloadInfo info;
        info.name = "gather";
        return info;
    }

    Program
    build(FunctionalMemory &mem, uint64_t) override
    {
        Rng rng(7);
        ProgramBuilder b(mem);
        const uint64_t n = 256 * 1024;
        const uint64_t data_elems = 2 * 1024 * 1024; // 16 MB target.
        const ArrayId data = b.array("data", 8, {data_elems});
        const ArrayId index = b.array("index", 4, {n});
        fillIndexArray(mem, b.arrayBase(index), n, data_elems,
                       cluster_run_, rng);
        const ArrayId hot = b.array("hot", 8, {1024});

        const VarId i = b.forLoop(0, static_cast<int64_t>(n));
        b.arrayRef(data, {Subscript::indirect(index, Affine::var(i))});
        {
            const VarId j = b.forLoop(0, 40);
            b.arrayRef(hot, {Subscript::affine(Affine::var(j))});
            b.compute(2);
            b.end();
        }
        b.end();
        return b.build();
    }

  private:
    unsigned cluster_run_;
};

RunResult
run(Gather &kernel, PrefetchScheme scheme)
{
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
    std::printf("a[b[i]] gather: GRP's indirect prefetch instruction "
                "vs spatial schemes\n\n");
    std::printf("%-22s %8s %8s %8s | traffic srp/grp vs base\n",
                "index pattern", "stride", "srp", "grp");
    struct Case
    {
        const char *label;
        unsigned cluster;
    };
    for (const Case &c : {Case{"random (bzip2-like)", 1},
                          Case{"clustered (vpr-like)", 16}}) {
        Gather kernel(c.cluster);
        const RunResult base = run(kernel, PrefetchScheme::None);
        const RunResult stride = run(kernel, PrefetchScheme::Stride);
        const RunResult srp = run(kernel, PrefetchScheme::Srp);
        const RunResult grp = run(kernel, PrefetchScheme::GrpVar);
        std::printf("%-22s %8.3f %8.3f %8.3f | %.2fx / %.2fx\n",
                    c.label, stride.ipc / base.ipc,
                    srp.ipc / base.ipc, grp.ipc / base.ipc,
                    double(srp.trafficBytes) / double(base.trafficBytes),
                    double(grp.trafficBytes) /
                        double(base.trafficBytes));
    }
    std::printf("\nRandom indices defeat region prefetching (traffic "
                "without coverage); the indirect\ninstruction covers "
                "them precisely — the paper's bzip2 result.\n");
    return 0;
}
