/**
 * @file
 * Pins the simulated output of every prefetch scheme. Each of the
 * ten schemes runs mcf, art and bzip2 for 50k instructions with
 * shadow tags, and an FNV-1a hash over the run's simulated numbers
 * must equal a committed constant. A refactor that leaves the
 * simulated machine alone keeps every constant; one that moves any
 * number fails here and names the run.
 *
 * Only integers enter the hash, so it is the same on every compiler.
 * Only nonzero counters enter it, so it pins simulated values rather
 * than the export schema: a counter that is always 0 may come or go.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <iterator>
#include <string>

#include "fnv1a.hh"
#include "harness/runner.hh"
#include "sim/logging.hh"

namespace grp
{
namespace
{

bool
isHostProfile(const std::string &name)
{
    return name.rfind("hostProf.", 0) == 0;
}

/** Digest of one run's simulated output. */
uint64_t
digest(const RunResult &result)
{
    Fnv1a h;
    h.mix(result.instructions);
    h.mix(result.cycles);
    for (const auto &[name, value] : result.stats.counters) {
        if (value == 0 || isHostProfile(name))
            continue;
        h.mix(name);
        h.mix(value);
    }
    for (const auto &[name, dist] : result.stats.distributions) {
        if (dist.samples == 0 || isHostProfile(name))
            continue;
        h.mix(name);
        h.mix(dist.samples);
        h.mix(dist.sum);
    }
    for (const auto &[blocks, count] : result.regionSizes) {
        h.mix(blocks);
        h.mix(count);
    }
    return h.value();
}

struct Pinned
{
    const char *scheme;
    const char *workload;
    uint64_t digest;
};

// A mismatch prints the run's entry in this table's format. Change a
// constant only in a commit that means to move simulated numbers, and
// say there which ones moved and why.
const Pinned kPinned[] = {
    {"none", "mcf", 0x2cd31fbfb944d6b8ull},
    {"none", "art", 0x53551069a7339dccull},
    {"none", "bzip2", 0xcf7551fd9d4ce2c8ull},
    {"stride", "mcf", 0xf29a9c6a471d75c6ull},
    {"stride", "art", 0x4e2f7dfb613cf29dull},
    {"stride", "bzip2", 0xaee829012b91d9e9ull},
    {"srp", "mcf", 0xf44a9615db337bc7ull},
    {"srp", "art", 0xc417e592b36b32e4ull},
    {"srp", "bzip2", 0x85b53671320666b2ull},
    {"grp-fix", "mcf", 0xe84a11411519c6a0ull},
    {"grp-fix", "art", 0x5de18f019a811ee3ull},
    {"grp-fix", "bzip2", 0xbe2adfe6f34579d6ull},
    {"grp-var", "mcf", 0x87c8a923ef277b05ull},
    {"grp-var", "art", 0xef94a994d4302aedull},
    {"grp-var", "bzip2", 0xbe2adfe6f34579d6ull},
    {"ptr-hw", "mcf", 0xf255152d07e5117eull},
    {"ptr-hw", "art", 0xaa97438c7268e247ull},
    {"ptr-hw", "bzip2", 0x373c36396b120519ull},
    {"ptr-hw-rec", "mcf", 0x3ea32230458fdcadull},
    {"ptr-hw-rec", "art", 0xdb5546e4977652d8ull},
    {"ptr-hw-rec", "bzip2", 0x373c36396b120519ull},
    {"srp+ptr", "mcf", 0x3ff21fea6c48cecdull},
    {"srp+ptr", "art", 0xfb920e6157e40991ull},
    {"srp+ptr", "bzip2", 0x180879de5529c6c6ull},
    {"srp-throttled", "mcf", 0x3b957e68be2d2658ull},
    {"srp-throttled", "art", 0x5b8deea9935e461bull},
    {"srp-throttled", "bzip2", 0x8fc1ba4b90f0ef52ull},
    {"grp-adaptive", "mcf", 0x9ea55d57269d51caull},
    {"grp-adaptive", "art", 0xbefb0c2f5355acd8ull},
    {"grp-adaptive", "bzip2", 0x8744a546102f4c8full},
};

/** The pinned digest of (@p scheme, @p workload); 0 when unpinned. */
uint64_t
pinned(const char *scheme, const std::string &workload)
{
    for (const Pinned &p : kPinned) {
        if (scheme == std::string(p.scheme) && workload == p.workload)
            return p.digest;
    }
    return 0;
}

TEST(SchemeDigests, EverySchemeReproducesItsPinnedOutput)
{
    setQuiet(true);
    const PrefetchScheme schemes[] = {
        PrefetchScheme::None,          PrefetchScheme::Stride,
        PrefetchScheme::Srp,           PrefetchScheme::GrpFix,
        PrefetchScheme::GrpVar,        PrefetchScheme::PointerHw,
        PrefetchScheme::PointerHwRec,  PrefetchScheme::SrpPlusPointer,
        PrefetchScheme::SrpThrottled,  PrefetchScheme::GrpAdaptive,
    };
    size_t runs = 0;
    for (const PrefetchScheme scheme : schemes) {
        for (const char *workload : {"mcf", "art", "bzip2"}) {
            SimConfig config;
            config.scheme = scheme;
            RunOptions opts;
            opts.maxInstructions = 50'000;
            opts.obs.shadow = true;
            const uint64_t got =
                digest(runWorkload(workload, config, opts));
            char entry[96];
            std::snprintf(entry, sizeof entry,
                          "{\"%s\", \"%s\", 0x%016llxull},",
                          toString(scheme), workload,
                          static_cast<unsigned long long>(got));
            EXPECT_EQ(pinned(toString(scheme), workload), got)
                << "this run's entry: " << entry;
            ++runs;
        }
    }
    EXPECT_EQ(std::size(kPinned), runs);
}

} // namespace
} // namespace grp
