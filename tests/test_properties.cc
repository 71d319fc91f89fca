/**
 * @file
 * Parameterized property suites: invariants swept over workloads,
 * window sizes, hint encodings, address ranges and random
 * configurations.
 */

#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/hints.hh"
#include "harness/suite.hh"
#include "mem/dram.hh"
#include "mem/dram_backend/factory.hh"
#include "prefetch/region_queue.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"

namespace grp
{
namespace
{

// ---------------------------------------------------------------
// Per-workload system invariants.
// ---------------------------------------------------------------

class WorkloadInvariants
    : public ::testing::TestWithParam<std::string>
{
  protected:
    void SetUp() override
    {
        setQuiet(true);
        opts.maxInstructions = 40'000;
        opts.warmupInstructions = 10'000;
    }

    RunOptions opts;
};

TEST_P(WorkloadInvariants, PerfectL2DominatesBaseline)
{
    const RunResult base =
        runScheme(GetParam(), PrefetchScheme::None, opts);
    const RunResult perfect =
        runPerfect(GetParam(), Perfection::PerfectL2, opts);
    EXPECT_GE(perfect.ipc, base.ipc * 0.99);
    EXPECT_LE(perfect.ipc, 4.0);
}

TEST_P(WorkloadInvariants, AccuracyAndCoverageAreSane)
{
    const RunResult base =
        runScheme(GetParam(), PrefetchScheme::None, opts);
    for (PrefetchScheme scheme :
         {PrefetchScheme::Stride, PrefetchScheme::Srp,
          PrefetchScheme::GrpVar}) {
        const RunResult run = runScheme(GetParam(), scheme, opts);
        EXPECT_GE(run.accuracy(), 0.0) << toString(scheme);
        EXPECT_LE(run.accuracy(), 1.0) << toString(scheme);
        EXPECT_LE(run.coveragePct(base), 100.0) << toString(scheme);
        EXPECT_GT(run.ipc, 0.0) << toString(scheme);
    }
}

TEST_P(WorkloadInvariants, GrpTrafficBoundedBySrp)
{
    const RunResult srp =
        runScheme(GetParam(), PrefetchScheme::Srp, opts);
    const RunResult grp =
        runScheme(GetParam(), PrefetchScheme::GrpVar, opts);
    // GRP is SRP minus unhinted prefetches (plus small pointer /
    // indirect additions): it must never need materially more
    // bandwidth. The absolute slack absorbs a handful of blocks of
    // timing noise on nearly-traffic-free short windows.
    EXPECT_LE(grp.trafficBytes, srp.trafficBytes +
                                    srp.trafficBytes / 5 +
                                    64 * kBlockBytes)
        << GetParam();
}

TEST_P(WorkloadInvariants, SchemesRetireTheSameWindow)
{
    const RunResult base =
        runScheme(GetParam(), PrefetchScheme::None, opts);
    const RunResult grp =
        runScheme(GetParam(), PrefetchScheme::GrpVar, opts);
    const int64_t delta = static_cast<int64_t>(base.instructions) -
                          static_cast<int64_t>(grp.instructions);
    EXPECT_LE(delta < 0 ? -delta : delta, 8) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(
    Suite, WorkloadInvariants,
    ::testing::ValuesIn(workloadNames()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        return info.param;
    });

// ---------------------------------------------------------------
// Region queue window properties.
// ---------------------------------------------------------------

class RegionWindowProperty : public ::testing::TestWithParam<unsigned>
{
  protected:
    void SetUp() override { setQuiet(true); }
};

TEST_P(RegionWindowProperty, CandidatesStayInsideAlignedWindow)
{
    const unsigned window = GetParam();
    RegionQueue queue(32, true, false);
    DramSystem dram{DramConfig{}};
    Rng rng(window);
    for (int trial = 0; trial < 50; ++trial) {
        queue.clear();
        const Addr miss = rng.below(1u << 26) << kBlockShift;
        queue.noteSpatialMiss(miss, window, 0, 0);
        const uint64_t base_block =
            blockNumber(miss) & ~static_cast<uint64_t>(window - 1);
        unsigned count = 0;
        for (int draws = 0; draws < 200; ++draws) {
            bool any = false;
            for (unsigned ch = 0; ch < 4; ++ch) {
                auto cand = queue.dequeue(dram, ch);
                if (!cand)
                    continue;
                any = true;
                ++count;
                const uint64_t block = blockNumber(cand->blockAddr);
                EXPECT_GE(block, base_block);
                EXPECT_LT(block, base_block + window);
                EXPECT_NE(block, blockNumber(miss));
            }
            if (!any)
                break;
        }
        EXPECT_EQ(count, window - 1);
    }
}

INSTANTIATE_TEST_SUITE_P(Windows, RegionWindowProperty,
                         ::testing::Values(2u, 4u, 8u, 16u, 32u,
                                           64u));

// ---------------------------------------------------------------
// Hint encoding properties.
// ---------------------------------------------------------------

struct EncodingCase
{
    uint8_t coeff;
    uint32_t bound;
};

class HintEncodingProperty
    : public ::testing::TestWithParam<EncodingCase>
{
};

TEST_P(HintEncodingProperty, RegionBlocksIsBoundedPowerOfTwo)
{
    LoadHints hints;
    hints.flags = kHintSpatial | kHintSizeValid;
    hints.sizeCoeff = GetParam().coeff;
    hints.loopBound = GetParam().bound;
    const unsigned blocks = hints.regionBlocks(kBlocksPerRegion);
    EXPECT_TRUE(isPowerOfTwo(blocks));
    EXPECT_GE(blocks, 2u);
    EXPECT_LE(blocks, kBlocksPerRegion);
    // The window always covers the loop's span (up to the cap).
    const uint64_t span_bytes =
        static_cast<uint64_t>(GetParam().bound)
        << GetParam().coeff;
    if (blocks < kBlocksPerRegion) {
        EXPECT_GE(static_cast<uint64_t>(blocks) * kBlockBytes,
                  span_bytes);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, HintEncodingProperty,
    ::testing::Values(EncodingCase{0, 1}, EncodingCase{0, 200},
                      EncodingCase{2, 16}, EncodingCase{3, 12},
                      EncodingCase{3, 512}, EncodingCase{6, 3},
                      EncodingCase{6, 100'000},
                      EncodingCase{5, 64}));

// ---------------------------------------------------------------
// DRAM mapping properties.
// ---------------------------------------------------------------

class DramMappingProperty : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(DramMappingProperty, MappingIsStableAndSplitsTraffic)
{
    DramSystem dram{DramConfig{}};
    Rng rng(GetParam());
    std::set<unsigned> channels;
    for (int i = 0; i < 4096; ++i) {
        const Addr addr = rng.below(1ull << 32);
        const unsigned channel = dram.channelOf(addr);
        EXPECT_LT(channel, 4u);
        EXPECT_EQ(channel, dram.channelOf(addr)); // Stable.
        EXPECT_LT(dram.bankOf(addr), 16u);
        channels.insert(channel);
        // Same block => same mapping regardless of offset.
        EXPECT_EQ(dram.channelOf(blockAlign(addr)), channel);
        EXPECT_EQ(dram.rowOf(blockAlign(addr)), dram.rowOf(addr));
    }
    EXPECT_EQ(channels.size(), 4u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DramMappingProperty,
                         ::testing::Values(1ull, 2ull, 3ull));

// ---------------------------------------------------------------
// Random configurations: refused up front or run to the end.
// ---------------------------------------------------------------

/** One of @p values, uniformly. */
template <typename T, size_t N>
T
pick(Rng &rng, const T (&values)[N])
{
    return values[rng.below(N)];
}

/** 2^k for k uniform in [lo, hi]. */
unsigned
powerOfTwo(Rng &rng, unsigned lo, unsigned hi)
{
    return 1u << rng.range(lo, hi + 1);
}

/**
 * A random configuration over every scheme and DRAM backend, with
 * random MSHR, queue, DRAM and core sizes, region fields and
 * latencies (from 0). MSHR counts and targets, queue entries and the
 * pointer window start at 0 too, so some draws are ones validate()
 * must refuse.
 */
SimConfig
randomConfig(Rng &rng)
{
    static const PrefetchScheme kSchemes[] = {
        PrefetchScheme::None,         PrefetchScheme::Stride,
        PrefetchScheme::Srp,          PrefetchScheme::GrpFix,
        PrefetchScheme::GrpVar,       PrefetchScheme::PointerHw,
        PrefetchScheme::PointerHwRec, PrefetchScheme::SrpPlusPointer,
        PrefetchScheme::SrpThrottled, PrefetchScheme::GrpAdaptive,
    };
    static const char *const kBackends[] = {"legacy", "ddr4-2400",
                                            "hbm2", "lpddr4"};
    SimConfig c;
    c.scheme = pick(rng, kSchemes);
    c.dram.backend = pick(rng, kBackends);
    for (CacheConfig *cache : {&c.l1d, &c.l2}) {
        cache->mshrs = static_cast<unsigned>(rng.range(0, 17));
        cache->mshrTargets = static_cast<unsigned>(rng.range(0, 9));
    }
    c.l1d.latency = static_cast<unsigned>(rng.range(0, 9));
    c.l2.latency = static_cast<unsigned>(rng.range(0, 41));
    c.dram.channels = powerOfTwo(rng, 0, 4);
    c.dram.banksPerChannel = powerOfTwo(rng, 0, 5);
    c.dram.rowBytes = powerOfTwo(rng, 6, 13);
    c.dram.rowHitCycles = static_cast<unsigned>(rng.range(0, 101));
    c.dram.rowConflictCycles =
        c.dram.rowHitCycles + static_cast<unsigned>(rng.range(0, 201));
    c.dram.transferCycles = static_cast<unsigned>(rng.range(0, 65));
    c.cpu.robEntries = static_cast<unsigned>(rng.range(1, 129));
    c.cpu.issueWidth = static_cast<unsigned>(rng.range(1, 9));
    c.cpu.retireWidth = static_cast<unsigned>(rng.range(1, 9));
    c.cpu.computeLatency = static_cast<unsigned>(rng.range(0, 5));
    c.region.queueEntries = static_cast<unsigned>(rng.range(0, 65));
    c.region.lifo = rng.chance(0.5);
    c.region.lruInsertion = rng.chance(0.5);
    c.region.bankAware = rng.chance(0.5);
    c.region.recursiveDepth = static_cast<unsigned>(rng.range(0, 8));
    c.region.blocksPerPointer =
        static_cast<unsigned>(rng.range(0, kBlocksPerRegion + 9));
    c.region.indirectFanout = static_cast<unsigned>(rng.range(0, 33));
    return c;
}

/**
 * The stride prefetcher's fields, from their own generator so that
 * randomConfig()'s draws stay as they were: mostly valid, with a
 * small share of zero sizes and of a training threshold above the
 * confidence ceiling, which validate() must refuse.
 */
void
randomStride(Rng &rng, StrideConfig &stride)
{
    const auto zero_or = [&rng](unsigned value) {
        return rng.chance(0.02) ? 0u : value;
    };
    const unsigned assoc = powerOfTwo(rng, 0, 3);
    stride.tableEntries =
        zero_or(assoc * static_cast<unsigned>(rng.range(1, 257)));
    stride.tableAssoc = zero_or(assoc);
    stride.streamBuffers = zero_or(static_cast<unsigned>(rng.range(1, 17)));
    stride.bufferEntries = zero_or(static_cast<unsigned>(rng.range(1, 17)));
    stride.trainThreshold =
        rng.chance(0.03)
            ? StrideConfig::kMaxConfidence + 1
            : static_cast<unsigned>(
                  rng.range(0, StrideConfig::kMaxConfidence + 1));
}

/**
 * L1 and L2 size and associativity and the adaptive controller's
 * fields, from a third generator so the other draws stay as they
 * were. Every draw is valid but a 2% share, which breaks one of
 * these fields in a way validate() must refuse.
 */
void
randomGeometry(Rng &rng, SimConfig &c)
{
    c.l1d.sizeBytes = uint64_t{powerOfTwo(rng, 12, 17)};
    c.l1d.assoc = powerOfTwo(rng, 0, 3);
    c.l2.sizeBytes = uint64_t{powerOfTwo(rng, 17, 22)};
    c.l2.assoc = powerOfTwo(rng, 0, 4);
    AdaptiveConfig &a = c.adaptive;
    a.epochCycles = powerOfTwo(rng, 6, 13);
    a.hysteresisEpochs = static_cast<unsigned>(rng.range(1, 5));
    a.minEpochFills = static_cast<uint64_t>(rng.range(0, 33));
    const auto ordered = [&rng](double &low, double &high) {
        low = rng.below(101) / 100.0;
        high = rng.below(101) / 100.0;
        if (low > high)
            std::swap(low, high);
    };
    ordered(a.accuracyLow, a.accuracyHigh);
    ordered(a.idleLow, a.idleHigh);
    a.occupancyHigh = (1 + rng.below(100)) / 100.0;
    a.pollutionHigh = rng.below(11) / 100.0;
    switch (rng.chance(0.02) ? rng.below(6) : 6) {
      case 0: c.l1d.assoc = 3; break; // No whole number of sets.
      case 1: c.l2.sizeBytes = c.l1d.sizeBytes / 2; break;
      case 2: a.epochCycles = 0; break;
      case 3: a.hysteresisEpochs = 0; break;
      case 4: a.accuracyLow = a.accuracyHigh + 0.5; break;
      case 5: a.occupancyHigh = 0.0; break;
    }
}

/** Every drawn field of @p c, for a failure message. */
std::string
describe(const SimConfig &c)
{
    std::ostringstream out;
    out << toString(c.scheme) << ", dram " << c.dram.backend << " "
        << c.dram.channels << "ch x " << c.dram.banksPerChannel
        << " banks x " << c.dram.rowBytes << " B rows, legacy timing "
        << c.dram.rowHitCycles << "/" << c.dram.rowConflictCycles
        << "/" << c.dram.transferCycles << "; L1D " << c.l1d.latency
        << " cy, " << c.l1d.mshrs << " MSHRs x " << c.l1d.mshrTargets
        << "; L2 " << c.l2.latency << " cy, " << c.l2.mshrs
        << " MSHRs x " << c.l2.mshrTargets << "; ROB "
        << c.cpu.robEntries << ", issue " << c.cpu.issueWidth
        << ", retire " << c.cpu.retireWidth << ", compute "
        << c.cpu.computeLatency << "; queue " << c.region.queueEntries
        << (c.region.lifo ? " lifo" : " fifo")
        << (c.region.lruInsertion ? " lru" : " mru")
        << (c.region.bankAware ? " bank-aware" : "") << ", depth "
        << c.region.recursiveDepth << ", blocks/pointer "
        << c.region.blocksPerPointer << ", fanout "
        << c.region.indirectFanout << "; stride table "
        << c.stride.tableEntries << " entries " << c.stride.tableAssoc
        << "-way, " << c.stride.streamBuffers << " streams x "
        << c.stride.bufferEntries << ", threshold "
        << c.stride.trainThreshold << "; L1D " << c.l1d.sizeBytes
        << " B " << c.l1d.assoc << "-way, L2 " << c.l2.sizeBytes
        << " B " << c.l2.assoc << "-way; adaptive epoch "
        << c.adaptive.epochCycles << ", hysteresis "
        << c.adaptive.hysteresisEpochs << ", min fills "
        << c.adaptive.minEpochFills << ", accuracy "
        << c.adaptive.accuracyLow << "-" << c.adaptive.accuracyHigh
        << ", idle " << c.adaptive.idleLow << "-" << c.adaptive.idleHigh
        << ", occupancy " << c.adaptive.occupancyHigh << ", pollution "
        << c.adaptive.pollutionHigh;
    return out.str();
}

TEST(RandomConfigs, EachIsRefusedOrFinishes)
{
    // Either validate() refuses the configuration with a diagnosis,
    // or the run retires its whole window without a panic (the
    // deadlock watchdog is the hang detector), without stopping
    // early and without breaking the accuracy invariant.
    setQuiet(true);
    static const char *const kWorkloads[] = {"mcf",  "art",    "bzip2",
                                             "swim", "equake", "vpr"};
    RunOptions opts;
    opts.maxInstructions = 20'000;
    opts.warmupInstructions = 5'000;
    Rng rng(20'030'609);
    Rng stride_rng(20'010'211);
    Rng geometry_rng(19'990'401);
    unsigned ran = 0;
    for (int i = 0; i < 100; ++i) {
        SimConfig config = randomConfig(rng);
        randomStride(stride_rng, config.stride);
        randomGeometry(geometry_rng, config);
        const char *workload = pick(rng, kWorkloads);
        SimConfig resolved = config;
        resolveDramBackend(resolved.dram);
        try {
            resolved.validate();
        } catch (const std::runtime_error &) {
            continue;
        }
        const std::string label = "config " + std::to_string(i) + ", " +
                                  workload + ": " + describe(resolved);
        RunResult run;
        try {
            run = runWorkload(workload, config, opts);
        } catch (const std::exception &error) {
            ADD_FAILURE() << label << ": " << error.what();
            continue;
        }
        ++ran;
        EXPECT_FALSE(run.partial) << label;
        EXPECT_EQ(run.stats.value("mem.accuracyClampEvents"), 0u)
            << label;
        // The warm-up and the window each end inside a retire group.
        const uint64_t group = config.cpu.retireWidth;
        EXPECT_LT(run.instructions, opts.maxInstructions + group)
            << label;
        EXPECT_GT(run.instructions + group, opts.maxInstructions)
            << label;
    }
    // Most draws are valid, so the property is not vacuous.
    EXPECT_GE(ran, 50u);
}

} // namespace
} // namespace grp
