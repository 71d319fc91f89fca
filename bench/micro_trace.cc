/**
 * @file
 * google-benchmark microbenchmarks of the per-record trace costs:
 *
 *  - formatTraceLine(): the JSONL text rendering `grptrace --jsonl`
 *    prints per record;
 *  - bintrace::Writer::record(): the .grpbin varint/delta encoding;
 *  - the full Tracer::record() hot path (stdio buffering included),
 *    plus the disabled-tracer guard the lifecycle fold pays per
 *    event when tracing is off.
 */

#include <benchmark/benchmark.h>

#include <fcntl.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>

#include "obs/bintrace.hh"
#include "obs/trace.hh"

namespace
{

using namespace grp;

/** A realistic record mix: mostly fills/uses with nearby addresses,
 *  occasional queue events — what a level-2 grp-var trace contains. */
obs::TraceRecord
sampleRecord(size_t i)
{
    const Addr addr = 0x40000000 + 64 * ((i * 7) % 512);
    switch (i % 4) {
      case 0:
        return {obs::TraceEvent::Issue, addr, obs::HintClass::Spatial,
                static_cast<int>(i % 4), -1, false,
                static_cast<RefId>(i % 37)};
      case 1:
        return {obs::TraceEvent::Fill, addr, obs::HintClass::Spatial,
                -1, -1, false, static_cast<RefId>(i % 37)};
      case 2:
        return {obs::TraceEvent::FirstUse, addr,
                obs::HintClass::None, -1,
                static_cast<int64_t>(100 + i % 900), false,
                static_cast<RefId>(i % 37)};
      default:
        return {obs::TraceEvent::Enqueue, addr,
                obs::HintClass::Pointer, -1, 8, false, kInvalidRefId};
    }
}

void
BM_JsonlFormatLine(benchmark::State &state)
{
    char buf[256];
    size_t i = 0;
    for (auto _ : state) {
        const size_t n = obs::formatTraceLine(
            buf, sizeof(buf), 1000 + 3 * i, sampleRecord(i), false);
        benchmark::DoNotOptimize(buf);
        benchmark::DoNotOptimize(n);
        ++i;
    }
}
BENCHMARK(BM_JsonlFormatLine);

void
BM_BinaryWriterRecord(benchmark::State &state)
{
    std::FILE *sink = std::fopen("/dev/null", "wb");
    obs::bintrace::Writer writer(
        sink, obs::bintrace::StreamKind::Lifecycle,
        obs::lifecycleTables());
    size_t i = 0;
    for (auto _ : state) {
        writer.record(sampleRecord(i), 1000 + 3 * i, false);
        ++i;
    }
    writer.finalize();
    std::fclose(sink);
    state.counters["bytes/rec"] = benchmark::Counter(
        static_cast<double>(writer.bytesWritten()),
        benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_BinaryWriterRecord);

/** Full Tracer path (guard + clockless timestamp + stdio buffer).
 *  The stdout sink is redirected to /dev/null for the measurement
 *  (fd-level, restored after) so the bench measures emission, not
 *  terminal I/O. */
void
BM_TracerBinary(benchmark::State &state)
{
    std::fflush(stdout);
    const int saved = dup(STDOUT_FILENO);
    const int devnull = ::open("/dev/null", O_WRONLY);
    if (saved < 0 || devnull < 0 ||
        dup2(devnull, STDOUT_FILENO) < 0) {
        state.SkipWithError("stdout redirect failed");
        return;
    }
    ::close(devnull);

    obs::Tracer &tracer = obs::Tracer::instance();
    if (tracer.open("-")) {
        tracer.setLevel(2);
        size_t i = 0;
        for (auto _ : state) {
            tracer.record(sampleRecord(i));
            ++i;
        }
        tracer.close();
    } else {
        state.SkipWithError("tracer open failed");
    }

    std::fflush(stdout);
    dup2(saved, STDOUT_FILENO);
    ::close(saved);
}
BENCHMARK(BM_TracerBinary);

/** What the lifecycle fold's tracer check costs per event with
 *  tracing off: one enabled() compare. */
void
BM_DisabledSiteGuard(benchmark::State &state)
{
    obs::Tracer &tracer = obs::Tracer::instance();
    for (auto _ : state) {
        if (tracer.enabled(2))
            tracer.record(sampleRecord(0));
    }
}
BENCHMARK(BM_DisabledSiteGuard);

} // namespace

BENCHMARK_MAIN();
