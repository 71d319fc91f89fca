/**
 * @file
 * Layer probes for the traced run: each probe calls one layer's
 * public functions from outside the simulator, on inputs taken from
 * one kernel, and times those calls.
 */

#ifndef GRPBENCH_PROBES_HH
#define GRPBENCH_PROBES_HH

#include <cstdint>
#include <string>

#include "spans.hh"

namespace grpbench
{

/** Host cost of each probed layer for one kernel. */
struct KernelProbe
{
    double buildMs = 0.0; ///< Workload::build.
    double hintsMs = 0.0; ///< HintGenerator::run.

    uint64_t interpOps = 0; ///< Ops drained from nextBatch().
    double interpNs = 0.0;  ///< Host time draining them.

    uint64_t l2Accesses = 0; ///< L1 misses fed to Cache::access/insert.
    double cacheNs = 0.0;

    uint64_t queueCalls = 0; ///< noteSpatialMiss + dequeue calls.
    double queueNs = 0.0;

    uint64_t serves = 0; ///< DramBackend::serve calls.
    double serveNs = 0.0;
    uint64_t ticks = 0; ///< DramBackend::tick calls (queued backends).
    double tickNs = 0.0;
};

/**
 * Build @p kernel at @p seed, run the compiler pipeline on it, drain
 * @p ops ops of its decoded stream, then replay the stream's L1 misses
 * through an L2 Cache, its L2 misses through a RegionQueue and through
 * the @p dram backend (made by the factory). Each step is one span
 * under @p parent with job id @p job.
 */
KernelProbe probeKernel(const std::string &kernel, uint64_t seed,
                        uint64_t ops, const std::string &dram,
                        SpanLog &log, uint64_t parent, uint64_t job);

} // namespace grpbench

#endif // GRPBENCH_PROBES_HH
