/**
 * @file
 * Pointer prefetching demo (Sections 3.2/3.3.1): a linked-list walk
 * over nodes whose layout is progressively scrambled, comparing no
 * prefetching, hardware pointer prefetching, recursive pointer
 * prefetching, and SRP.
 *
 * With a sequential layout, plain region prefetching (SRP) subsumes
 * pointer prefetching — the paper's observation for SPEC. As the
 * layout scrambles, only schemes that read the pointers themselves
 * keep helping.
 *
 * Each run is one runWorkload call, so GRP_TRACE_ALL=DIR (with
 * GRP_TRACE_LEVEL=N) writes one prefetch lifecycle trace per run.
 */

#include <cstdio>

#include "compiler/builder.hh"
#include "harness/runner.hh"
#include "workloads/heap_builders.hh"

using namespace grp;

namespace
{

/** A walk over a 256k-node list in which a fraction @p shuffle of
 *  the links jump to a non-adjacent node. */
class ListWalk : public Workload
{
  public:
    explicit ListWalk(double shuffle) : shuffle_(shuffle) {}

    WorkloadInfo
    info() const override
    {
        WorkloadInfo info;
        info.name = "list-walk";
        return info;
    }

    Program
    build(FunctionalMemory &mem, uint64_t) override
    {
        Rng rng(99);
        BuiltList list =
            buildLinkedList(mem, 64, 8, 256 * 1024, shuffle_, rng);
        ProgramBuilder b(mem);
        const TypeId node_t = b.structType(
            "node", 64,
            {{"value", 0, false, kNoId}, {"next", 8, true, 0}});
        const PtrId p = b.ptr("p", node_t, list.head);
        const ArrayId hot = b.array("hot", 8, {1024});

        b.whileLoop(p);
        b.ptrRef(p, 0); // value
        {
            const VarId j = b.forLoop(0, 24);
            b.arrayRef(hot, {Subscript::affine(Affine::var(j))});
            b.compute(2);
            b.end();
        }
        b.ptrUpdateField(p, 8); // p = p->next
        b.end();
        return b.build();
    }

  private:
    double shuffle_;
};

double
run(ListWalk &kernel, PrefetchScheme scheme)
{
    SimConfig config;
    config.scheme = scheme;
    RunOptions opts;
    opts.maxInstructions = 300'000;
    opts.warmupInstructions = 0;
    return runWorkload(kernel, config, opts).ipc;
}

} // namespace

int
main()
{
    setQuiet(true);
    std::printf("Linked-list walk: speedup over no prefetching as "
                "the node layout scrambles\n\n");
    std::printf("%-9s %8s %8s %8s %8s\n", "shuffle", "ptr",
                "ptr-rec", "srp", "grp");
    for (double shuffle : {0.0, 0.3, 0.6, 0.9}) {
        ListWalk kernel(shuffle);
        const double base = run(kernel, PrefetchScheme::None);
        std::printf("%8.0f%% %8.3f %8.3f %8.3f %8.3f\n",
                    100 * shuffle,
                    run(kernel, PrefetchScheme::PointerHw) / base,
                    run(kernel, PrefetchScheme::PointerHwRec) / base,
                    run(kernel, PrefetchScheme::Srp) / base,
                    run(kernel, PrefetchScheme::GrpVar) / base);
    }
    std::printf("\nSequential layouts favour SRP (the paper's SPEC "
                "observation); scrambled layouts\nneed the pointer "
                "scanner, and GRP's recursive hint gets it without "
                "table state.\n");
    return 0;
}
