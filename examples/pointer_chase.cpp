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
 */

#include <cstdio>
#include <cstdlib>
#include <string>

#include "compiler/builder.hh"
#include "compiler/hint_generator.hh"
#include "core/engine_factory.hh"
#include "cpu/cpu.hh"
#include "mem/memory_system.hh"
#include "obs/trace.hh"
#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "workloads/heap_builders.hh"
#include "workloads/interpreter.hh"

using namespace grp;

namespace
{

struct ListKernel
{
    FunctionalMemory mem;
    Program prog;
};

std::unique_ptr<ListKernel>
buildListWalk(double shuffle)
{
    auto kernel = std::make_unique<ListKernel>();
    Rng rng(99);
    BuiltList list = buildLinkedList(kernel->mem, 64, 8, 256 * 1024,
                                     shuffle, rng);
    ProgramBuilder b(kernel->mem);
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
    kernel->prog = b.build();
    return kernel;
}

double
run(ListKernel &kernel, PrefetchScheme scheme)
{
    Program prog = kernel.prog;
    SimConfig config;
    config.scheme = scheme;
    HintTable table;
    HintGenerator generator(config.policy, config.l2.sizeBytes);
    generator.run(prog, table);

    EventQueue events;
    MemorySystem mem(config, events);
    auto engine = makePrefetchEngine(config, kernel.mem, mem);
    Interpreter interp(prog, kernel.mem, 42);
    Cpu cpu(config, mem, events, interp,
            config.usesHints() ? &table : nullptr);
    obs::Tracer::instance().setClock(&events);
    Tick cycle = 0;
    while (!cpu.done() && cpu.retiredInstructions() < 300'000) {
        events.advanceTo(cycle);
        cpu.tick();
        mem.tick();
        ++cycle;
    }
    obs::Tracer::instance().setClock(nullptr);
    return cpu.ipc();
}

} // namespace

int
main(int argc, char **argv)
{
    setQuiet(true);
    // Optional prefetch lifecycle tracing across all the runs below:
    //   pointer_chase [--trace=PATH.grpbin] [--trace-level=N]
    std::string trace_path;
    int trace_level = 1;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--trace=", 0) == 0)
            trace_path = arg.substr(8);
        else if (arg.rfind("--trace-level=", 0) == 0)
            trace_level = std::atoi(arg.c_str() + 14);
    }
    if (!trace_path.empty()) {
        if (obs::Tracer::instance().open(trace_path))
            obs::Tracer::instance().setLevel(trace_level);
        else
            warn("cannot open trace file %s", trace_path.c_str());
    }
    std::printf("Linked-list walk: speedup over no prefetching as "
                "the node layout scrambles\n\n");
    std::printf("%-9s %8s %8s %8s %8s\n", "shuffle", "ptr",
                "ptr-rec", "srp", "grp");
    for (double shuffle : {0.0, 0.3, 0.6, 0.9}) {
        auto kernel = buildListWalk(shuffle);
        const double base = run(*kernel, PrefetchScheme::None);
        std::printf("%8.0f%% %8.3f %8.3f %8.3f %8.3f\n",
                    100 * shuffle,
                    run(*kernel, PrefetchScheme::PointerHw) / base,
                    run(*kernel, PrefetchScheme::PointerHwRec) / base,
                    run(*kernel, PrefetchScheme::Srp) / base,
                    run(*kernel, PrefetchScheme::GrpVar) / base);
    }
    std::printf("\nSequential layouts favour SRP (the paper's SPEC "
                "observation); scrambled layouts\nneed the pointer "
                "scanner, and GRP's recursive hint gets it without "
                "table state.\n");
    obs::Tracer::instance().close();
    return 0;
}
