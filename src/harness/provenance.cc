#include "harness/provenance.hh"

#include <cstdio>

#include "mem/dram_backend/factory.hh"
#include "obs/json_writer.hh"

// Build provenance baked in by src/CMakeLists.txt; the fallbacks keep
// non-CMake builds (IDE indexers) compiling.
#ifndef GRP_BUILD_COMPILER
#define GRP_BUILD_COMPILER "unknown"
#endif
#ifndef GRP_BUILD_TYPE
#define GRP_BUILD_TYPE "unknown"
#endif
#ifndef GRP_BUILD_FLAGS
#define GRP_BUILD_FLAGS ""
#endif
#ifndef GRP_GIT_SHA
#define GRP_GIT_SHA "unknown"
#endif

namespace grp
{

BuildProvenance
buildProvenance()
{
    return {GRP_GIT_SHA, GRP_BUILD_COMPILER, GRP_BUILD_TYPE,
            GRP_BUILD_FLAGS};
}

namespace
{

class Fnv1a
{
  public:
    void
    mix(uint64_t value)
    {
        for (int byte = 0; byte < 8; ++byte) {
            hash_ ^= (value >> (8 * byte)) & 0xFF;
            hash_ *= 0x100000001b3ull;
        }
    }

    void
    mix(double value)
    {
        // Canonicalise through a fixed decimal rendering rather than
        // raw bits, so an equal-valued config hashes equally across
        // compilers that constant-fold differently.
        char text[64];
        std::snprintf(text, sizeof(text), "%.17g", value);
        for (const char *p = text; *p; ++p) {
            hash_ ^= static_cast<unsigned char>(*p);
            hash_ *= 0x100000001b3ull;
        }
    }

    uint64_t value() const { return hash_; }

  private:
    uint64_t hash_ = 0xcbf29ce484222325ull;
};

} // namespace

uint64_t
configHash(const SimConfig &config)
{
    Fnv1a h;
    // Field order is the canonical serialisation — append new fields
    // at the end of their struct's run so existing hashes only change
    // when a value does.
    const auto cache = [&h](const CacheConfig &c) {
        h.mix(c.sizeBytes);
        h.mix(uint64_t(c.assoc));
        h.mix(uint64_t(c.latency));
        h.mix(uint64_t(c.mshrs));
        h.mix(uint64_t(c.mshrTargets));
    };
    cache(config.l1d);
    cache(config.l2);
    h.mix(uint64_t(config.dram.channels));
    h.mix(uint64_t(config.dram.banksPerChannel));
    h.mix(uint64_t(config.dram.rowBytes));
    h.mix(uint64_t(config.dram.rowHitCycles));
    h.mix(uint64_t(config.dram.rowConflictCycles));
    h.mix(uint64_t(config.dram.transferCycles));
    // The backend name participates only when it is not the default
    // legacy model (resolve it before hashing), so every pre-backend
    // hash — and with it every committed baseline — is unchanged.
    {
        const std::string resolved =
            resolveDramBackendName(config.dram.backend);
        if (resolved != "legacy") {
            for (const char c : resolved) {
                h.mix(uint64_t(static_cast<unsigned char>(c)));
            }
        }
    }
    h.mix(uint64_t(config.cpu.issueWidth));
    h.mix(uint64_t(config.cpu.retireWidth));
    h.mix(uint64_t(config.cpu.robEntries));
    h.mix(uint64_t(config.cpu.computeLatency));
    h.mix(uint64_t(config.region.queueEntries));
    h.mix(uint64_t(config.region.lifo));
    h.mix(uint64_t(config.region.lruInsertion));
    h.mix(uint64_t(config.region.bankAware));
    h.mix(uint64_t(config.region.recursiveDepth));
    h.mix(uint64_t(config.region.blocksPerPointer));
    h.mix(uint64_t(config.region.indirectFanout));
    h.mix(config.adaptive.epochCycles);
    h.mix(config.adaptive.accuracyHigh);
    h.mix(config.adaptive.accuracyLow);
    h.mix(config.adaptive.pollutionHigh);
    h.mix(config.adaptive.idleHigh);
    h.mix(config.adaptive.idleLow);
    h.mix(config.adaptive.occupancyHigh);
    h.mix(uint64_t(config.adaptive.hysteresisEpochs));
    h.mix(config.adaptive.minEpochFills);
    h.mix(uint64_t(config.stride.tableEntries));
    h.mix(uint64_t(config.stride.tableAssoc));
    h.mix(uint64_t(config.stride.streamBuffers));
    h.mix(uint64_t(config.stride.bufferEntries));
    h.mix(uint64_t(config.stride.trainThreshold));
    h.mix(uint64_t(static_cast<int>(config.scheme)));
    h.mix(uint64_t(static_cast<int>(config.perfection)));
    h.mix(uint64_t(static_cast<int>(config.policy)));
    return h.value();
}

void
writeProvenance(obs::JsonWriter &json, const SimConfig &config)
{
    const BuildProvenance build = buildProvenance();
    char hash[32];
    std::snprintf(hash, sizeof(hash), "%016llx",
                  (unsigned long long)configHash(config));
    json.beginObject();
    json.kv("gitSha", build.gitSha);
    json.kv("compiler", build.compiler);
    json.kv("buildType", build.buildType);
    json.kv("cxxFlags", build.cxxFlags);
    json.kv("configHash", hash);
    json.kv("scheme", toString(config.scheme));
    json.kv("policy", toString(config.policy));
    json.endObject();
}

} // namespace grp
