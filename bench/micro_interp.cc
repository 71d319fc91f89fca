/**
 * @file
 * google-benchmark microbenchmarks of raw interpreter throughput:
 * TraceOps the pre-decoded DecodedInterpreter generates per second,
 * through next() and through nextBatch() (the interface the CPU and
 * the sweep recorder consume), over one kernel per dynamic behavior
 * family. Both read the interpreter's 256-op block: next() one op
 * per virtual call, nextBatch() the rest of the block —
 *
 *  - art:    dense affine loop nests (1-D affine references and
 *            compute runs written straight into the block),
 *  - vpr:    clustered indirect array subscripts,
 *  - mcf:    pointer-chase tree traversal (LoopHeadChase/
 *            LoopTailChase).
 *
 * The kernels run unbounded passes, so a stream never ends. The
 * streams themselves are pinned by tests/test_predecode.cc, so these
 * benches only have to be fast, not self-checking. Excluded from
 * run_all_benches (micro_* prefix): wall-clock results are
 * machine-dependent and never baselined.
 */

#include <benchmark/benchmark.h>

#include <string>

#include "mem/functional_memory.hh"
#include "workloads/predecode.hh"
#include "workloads/workload.hh"

namespace
{

using namespace grp;

constexpr uint64_t kSeed = 42;

/** Built workload shared across iterations of one benchmark. */
struct BuiltKernel
{
    explicit BuiltKernel(const std::string &name)
        : prog(makeWorkload(name)->build(fmem, kSeed)),
          decoded(DecodedProgram::lower(prog))
    {
    }

    FunctionalMemory fmem;
    Program prog;
    DecodedProgram decoded;
};

void
runDecoded(benchmark::State &state, const std::string &name)
{
    BuiltKernel kernel(name);
    DecodedInterpreter interp(kernel.decoded, kernel.fmem, kSeed);
    uint64_t ops = 0;
    TraceOp op;
    for (auto _ : state) {
        interp.next(op);
        benchmark::DoNotOptimize(op);
        ++ops;
    }
    state.SetItemsProcessed(static_cast<int64_t>(ops));
}

/** The batch interface the CPU actually consumes: the rest of a
 *  block per virtual call instead of one op. */
void
runDecodedBatch(benchmark::State &state, const std::string &name)
{
    BuiltKernel kernel(name);
    DecodedInterpreter interp(kernel.decoded, kernel.fmem, kSeed);
    uint64_t ops = 0;
    const TraceOp *batch = nullptr;
    for (auto _ : state) {
        ops += interp.nextBatch(&batch);
        benchmark::DoNotOptimize(batch);
    }
    state.SetItemsProcessed(static_cast<int64_t>(ops));
}

void BM_Decoded_Affine(benchmark::State &s) { runDecoded(s, "art"); }
void BM_DecodedBatch_Affine(benchmark::State &s)
{
    runDecodedBatch(s, "art");
}
void BM_Decoded_Indirect(benchmark::State &s) { runDecoded(s, "vpr"); }
void BM_DecodedBatch_Indirect(benchmark::State &s)
{
    runDecodedBatch(s, "vpr");
}
void BM_Decoded_PointerChase(benchmark::State &s)
{
    runDecoded(s, "mcf");
}
void BM_DecodedBatch_PointerChase(benchmark::State &s)
{
    runDecodedBatch(s, "mcf");
}

BENCHMARK(BM_Decoded_Affine);
BENCHMARK(BM_DecodedBatch_Affine);
BENCHMARK(BM_Decoded_Indirect);
BENCHMARK(BM_DecodedBatch_Indirect);
BENCHMARK(BM_Decoded_PointerChase);
BENCHMARK(BM_DecodedBatch_PointerChase);

} // namespace

BENCHMARK_MAIN();
