/**
 * @file
 * google-benchmark microbenchmarks of the simulator's hot
 * components: cache tag access, region-queue churn, DRAM timing,
 * pointer scanning, a run's op source (the decoded interpreter), and
 * a short full-system simulation step.
 */

#include <benchmark/benchmark.h>

#include "compiler/hint_generator.hh"
#include "harness/runner.hh"
#include "mem/cache.hh"
#include "mem/dram.hh"
#include "mem/functional_memory.hh"
#include "prefetch/pointer_scanner.hh"
#include "prefetch/region_queue.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"
#include "workloads/predecode.hh"
#include "workloads/workload.hh"

namespace
{

using namespace grp;

void
BM_CacheAccess(benchmark::State &state)
{
    CacheConfig config{1024 * 1024, 4, 12, 8, 8};
    Cache cache(config, "bench");
    Rng rng(7);
    for (auto _ : state) {
        const Addr addr = rng.below(1 << 22) << kBlockShift;
        if (!cache.access(addr, false).hit)
            cache.insert(addr, false, false);
    }
}
BENCHMARK(BM_CacheAccess);

void
BM_RegionQueueChurn(benchmark::State &state)
{
    DramSystem dram({});
    RegionQueue queue(32, true, true);
    Rng rng(11);
    for (auto _ : state) {
        queue.noteSpatialMiss(rng.below(1 << 28) << kBlockShift,
                              kBlocksPerRegion, 0, 0);
        for (unsigned ch = 0; ch < 4; ++ch)
            benchmark::DoNotOptimize(queue.dequeue(dram, ch));
    }
}
BENCHMARK(BM_RegionQueueChurn);

void
BM_DramServe(benchmark::State &state)
{
    DramSystem dram({});
    Rng rng(13);
    Tick now = 0;
    for (auto _ : state) {
        const Addr addr = rng.below(1 << 24) << kBlockShift;
        now = std::max(now + 1,
                       dram.serve(addr, now + 64));
        benchmark::DoNotOptimize(now);
    }
}
BENCHMARK(BM_DramServe);

void
BM_PointerScan(benchmark::State &state)
{
    FunctionalMemory mem;
    const Addr node = mem.heapAlloc(64, 64);
    for (unsigned i = 0; i < 8; ++i)
        mem.write64(node + 8 * i, i % 2 ? mem.heapAlloc(64, 8) : i);
    PointerScanner scanner(mem);
    std::array<Addr, 8> out;
    for (auto _ : state)
        benchmark::DoNotOptimize(scanner.scan(node, out));
}
BENCHMARK(BM_PointerScan);

void
BM_InterpreterThroughput(benchmark::State &state)
{
    setQuiet(true);
    FunctionalMemory mem;
    auto workload = makeWorkload("wupwise");
    Program prog = workload->build(mem, 42);
    const auto trace = makeTraceSource(prog, mem, 42);
    TraceOp op;
    for (auto _ : state) {
        trace->next(op);
        benchmark::DoNotOptimize(op);
    }
}
BENCHMARK(BM_InterpreterThroughput);

void
BM_HintGeneration(benchmark::State &state)
{
    setQuiet(true);
    for (auto _ : state) {
        FunctionalMemory mem;
        auto workload = makeWorkload("mcf");
        Program prog = workload->build(mem, 42);
        HintTable table;
        HintGenerator generator(CompilerPolicy::Default, 1 << 20);
        benchmark::DoNotOptimize(generator.run(prog, table));
    }
}
BENCHMARK(BM_HintGeneration);

void
BM_FullSystem100k(benchmark::State &state)
{
    setQuiet(true);
    for (auto _ : state) {
        SimConfig config;
        config.scheme = PrefetchScheme::GrpVar;
        RunOptions opts;
        opts.maxInstructions = 100'000;
        opts.warmupInstructions = 0;
        benchmark::DoNotOptimize(
            runWorkload("gzip", config, opts).cycles);
    }
}
BENCHMARK(BM_FullSystem100k)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
