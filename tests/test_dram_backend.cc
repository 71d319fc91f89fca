/** @file Tests for the pluggable DRAM backend layer: factory/env
 *  resolution, timing-model protocol invariants checked against the
 *  recorded command stream, FR-FCFS demand priority, refresh cadence,
 *  stat-schema parity with the legacy model, and the per-bank
 *  state-cycle accounting identity. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <vector>

#include "harness/provenance.hh"
#include "mem/dram.hh"
#include "mem/dram_backend/factory.hh"
#include "mem/dram_backend/timing.hh"
#include "mem/memory_system.hh"
#include "sim/logging.hh"

namespace grp
{
namespace
{

unsigned
log2u(unsigned v)
{
    unsigned shift = 0;
    while ((1u << shift) < v)
        ++shift;
    return shift;
}

/** Compose the block address that maps to (channel, bank, row,
 *  block-in-row) under the backend's block-interleaved layout. */
Addr
makeAddr(const DramConfig &cfg, unsigned channel, unsigned bank,
         uint64_t row, unsigned block = 0)
{
    const unsigned blocks_per_row_shift = log2u(cfg.rowBytes / kBlockBytes);
    const unsigned bank_shift = log2u(cfg.banksPerChannel);
    const unsigned channel_shift = log2u(cfg.channels);
    const uint64_t channel_block =
        (((row << bank_shift) | bank) << blocks_per_row_shift) | block;
    const uint64_t block_number = (channel_block << channel_shift) | channel;
    return static_cast<Addr>(block_number) << kBlockShift;
}

class DramBackendTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        setQuiet(true);
        unsetenv("GRP_DRAM");
    }

    /** A timing backend with its preset geometry applied. */
    std::unique_ptr<TimingDramSystem>
    makeTiming(const std::string &preset_name)
    {
        const DramPreset *preset = findDramPreset(preset_name);
        EXPECT_NE(preset, nullptr);
        DramConfig cfg;
        cfg.backend = preset_name;
        cfg.channels = preset->channels;
        cfg.banksPerChannel = preset->banksPerChannel;
        cfg.rowBytes = preset->rowBytes;
        return std::make_unique<TimingDramSystem>(cfg, preset->timing,
                                                  preset_name);
    }

    /** Tick @p dram from @p from to @p to inclusive, draining
     *  completions into @p fills when given. */
    void
    run(TimingDramSystem &dram, Tick from, Tick to,
        std::vector<MemRequest> *fills = nullptr)
    {
        for (Tick t = from; t <= to; ++t) {
            dram.tick(t);
            while (auto req = dram.popCompleted(t)) {
                if (fills)
                    fills->push_back(*req);
            }
        }
    }
};

// ---------------------------------------------------------------------
// Factory and name resolution.
// ---------------------------------------------------------------------

TEST_F(DramBackendTest, DefaultResolvesToLegacy)
{
    EXPECT_EQ(resolveDramBackendName(""), "legacy");
    DramConfig cfg;
    auto dram = makeDramBackend(cfg);
    EXPECT_STREQ(dram->name(), "legacy");
    EXPECT_FALSE(dram->queued());
}

TEST_F(DramBackendTest, EnvironmentSelectsBackend)
{
    setenv("GRP_DRAM", "hbm2", 1);
    EXPECT_EQ(resolveDramBackendName(""), "hbm2");
    // An explicit configuration wins over the environment.
    EXPECT_EQ(resolveDramBackendName("lpddr4"), "lpddr4");
    unsetenv("GRP_DRAM");
    EXPECT_EQ(resolveDramBackendName(""), "legacy");
}

TEST_F(DramBackendTest, PresetGeometryAppliedOnResolve)
{
    const DramPreset *preset = findDramPreset("hbm2");
    ASSERT_NE(preset, nullptr);
    DramConfig cfg;
    cfg.backend = "hbm2";
    resolveDramBackend(cfg);
    EXPECT_EQ(cfg.channels, preset->channels);
    EXPECT_EQ(cfg.banksPerChannel, preset->banksPerChannel);
    EXPECT_EQ(cfg.rowBytes, preset->rowBytes);

    auto dram = makeDramBackend(cfg);
    EXPECT_TRUE(dram->queued());
    EXPECT_STREQ(dram->name(), "hbm2");
    EXPECT_EQ(dram->config().channels, preset->channels);
}

TEST_F(DramBackendTest, EveryPresetConstructs)
{
    for (const std::string &name : dramPresetNames()) {
        auto dram = makeTiming(name);
        ASSERT_NE(dram, nullptr) << name;
        EXPECT_STREQ(dram->name(), name.c_str());
        EXPECT_TRUE(dram->queued());
    }
}

TEST_F(DramBackendTest, ConfigHashUnchangedForLegacyOnly)
{
    SimConfig base;
    const uint64_t legacy_hash = configHash(base);

    SimConfig named = base;
    named.dram.backend = "legacy";
    EXPECT_EQ(configHash(named), legacy_hash);

    SimConfig timing = base;
    timing.dram.backend = "ddr4-2400";
    EXPECT_NE(configHash(timing), legacy_hash);
}

// ---------------------------------------------------------------------
// Geometry helpers behind the region queue's masked scan.
// ---------------------------------------------------------------------

/** channelBlocks() and rowSpanBlocks() against channelOf/bankOf/rowOf
 *  at 1,000 random window bases. */
void
checkGeometryHelpers(const DramBackend &dram)
{
    const unsigned channels = dram.config().channels;
    const uint64_t span = dram.rowSpanBlocks();
    ASSERT_EQ(span, uint64_t{channels} *
                        (dram.config().rowBytes / kBlockBytes));

    uint64_t lcg = 0x9E3779B97F4A7C15ull;
    for (unsigned trial = 0; trial < 1000; ++trial) {
        lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
        const uint64_t base = lcg >> 24;
        for (unsigned ch = 0; ch < channels; ++ch) {
            uint64_t want = 0;
            for (unsigned i = 0; i < 64; ++i) {
                if (dram.channelOf((base + i) << kBlockShift) == ch)
                    want |= 1ull << i;
            }
            ASSERT_EQ(dram.channelBlocks(base, ch), want)
                << "base " << base << " channel " << ch;
        }

        // Same-channel blocks of base's aligned span: one bank, one
        // row.
        const uint64_t first = base & ~(span - 1);
        std::map<unsigned, Addr> leader;
        for (uint64_t block = first; block < first + span; ++block) {
            const Addr addr = block << kBlockShift;
            const auto [it, fresh] =
                leader.emplace(dram.channelOf(addr), addr);
            if (fresh)
                continue;
            ASSERT_EQ(dram.bankOf(addr), dram.bankOf(it->second))
                << "block " << block;
            ASSERT_EQ(dram.rowOf(addr), dram.rowOf(it->second))
                << "block " << block;
        }
    }
}

TEST_F(DramBackendTest, GeometryHelpersMatchAddressMapping)
{
    // 64 channels: the period must not be built from 1 << 64. 128
    // channels: half the channels have no block in a window.
    for (unsigned channels : {1u, 2u, 4u, 8u, 64u, 128u}) {
        for (unsigned row_bytes : {64u, 512u, 2048u}) {
            SCOPED_TRACE(testing::Message() << channels << " channels, "
                                            << row_bytes << " B rows");
            DramConfig cfg;
            cfg.channels = channels;
            cfg.rowBytes = row_bytes;
            DramSystem dram(cfg);
            ASSERT_NO_FATAL_FAILURE(checkGeometryHelpers(dram));
        }
    }
    for (const std::string &name : dramPresetNames()) {
        SCOPED_TRACE(name);
        ASSERT_NO_FATAL_FAILURE(checkGeometryHelpers(*makeTiming(name)));
    }
}

// ---------------------------------------------------------------------
// Queued-backend mechanics.
// ---------------------------------------------------------------------

TEST_F(DramBackendTest, ServeReturnsPendingAndQueueBounds)
{
    auto dram = makeTiming("ddr4-2400");
    const DramConfig &cfg = dram->config();
    const unsigned depth = dram->timing().queueDepth;

    for (unsigned i = 0; i < depth; ++i) {
        EXPECT_TRUE(dram->canAccept(0, 0));
        const Tick done =
            dram->serve(makeAddr(cfg, 0, i % cfg.banksPerChannel, i), 0,
                        ReqClass::Prefetch);
        EXPECT_EQ(done, kTickPending);
    }
    EXPECT_FALSE(dram->canAccept(0, 0));
    EXPECT_FALSE(dram->allIdle(0));
    // Other channels are unaffected.
    EXPECT_TRUE(dram->canAccept(1, 0));

    std::vector<MemRequest> fills;
    run(*dram, 0, 5000, &fills);
    EXPECT_EQ(fills.size(), depth);
    EXPECT_TRUE(dram->canAccept(0, 5001));
    EXPECT_TRUE(dram->allIdle(5001));
}

TEST_F(DramBackendTest, FillsCompleteInDataOrder)
{
    auto dram = makeTiming("ddr4-2400");
    const DramConfig &cfg = dram->config();
    for (unsigned i = 0; i < 6; ++i)
        dram->serve(makeAddr(cfg, 0, i, 0), 0, ReqClass::Demand);
    std::vector<MemRequest> fills;
    run(*dram, 0, 5000, &fills);
    ASSERT_EQ(fills.size(), 6u);
    // Popping preserves completion (dataEnd) order; with one bus the
    // fills drain strictly serialized.
    for (size_t i = 1; i < fills.size(); ++i)
        EXPECT_NE(fills[i].blockAddr, fills[i - 1].blockAddr);
}

TEST_F(DramBackendTest, WritebacksRetireInternally)
{
    auto dram = makeTiming("ddr4-2400");
    const DramConfig &cfg = dram->config();
    dram->serve(makeAddr(cfg, 0, 0, 0), 0, ReqClass::Writeback);
    std::vector<MemRequest> fills;
    run(*dram, 0, 2000, &fills);
    EXPECT_TRUE(fills.empty());
    EXPECT_TRUE(dram->allIdle(2001));
    EXPECT_EQ(dram->stats().value("transfers"), 1u);
}

// ---------------------------------------------------------------------
// Protocol invariants, checked against the recorded command stream.
// ---------------------------------------------------------------------

using Cmd = TimingDramSystem::Cmd;
using CommandRecord = TimingDramSystem::CommandRecord;

/** Assert the JEDEC-style constraints hold over @p log. */
void
checkProtocol(const std::vector<CommandRecord> &log,
              const DramTimingParams &t, unsigned channels)
{
    // Per-channel ACT history (ticks, already monotonic).
    std::vector<std::vector<Tick>> acts(channels);
    // Per-(channel,bank) last command ticks.
    std::map<std::pair<unsigned, unsigned>, Tick> last_act;
    std::map<std::pair<unsigned, unsigned>, Tick> last_pre;
    // Per-channel refresh windows [start, end).
    std::vector<std::vector<std::pair<Tick, Tick>>> refs(channels);

    for (const CommandRecord &c : log) {
        const auto key = std::make_pair(c.channel, c.bank);
        switch (c.cmd) {
          case Cmd::Act: {
            auto &hist = acts[c.channel];
            if (!hist.empty()) {
                EXPECT_GE(c.tick, hist.back() + t.tRRD)
                    << "tRRD violated on channel " << c.channel;
            }
            if (hist.size() >= 4) {
                EXPECT_GE(c.tick, hist[hist.size() - 4] + t.tFAW)
                    << "tFAW violated on channel " << c.channel;
            }
            hist.push_back(c.tick);
            auto pre = last_pre.find(key);
            if (pre != last_pre.end()) {
                EXPECT_GE(c.tick, pre->second + t.tRP)
                    << "ACT before tRP expired on channel " << c.channel
                    << " bank " << c.bank;
            }
            for (const auto &w : refs[c.channel]) {
                EXPECT_FALSE(c.tick >= w.first && c.tick < w.second)
                    << "ACT during refresh on channel " << c.channel;
            }
            last_act[key] = c.tick;
            break;
          }
          case Cmd::Pre: {
            auto act = last_act.find(key);
            ASSERT_NE(act, last_act.end())
                << "PRE with no prior ACT on channel " << c.channel
                << " bank " << c.bank;
            EXPECT_GE(c.tick, act->second + t.tRAS)
                << "PRE before tRAS on channel " << c.channel << " bank "
                << c.bank;
            last_pre[key] = c.tick;
            break;
          }
          case Cmd::Rd: {
            auto act = last_act.find(key);
            if (act != last_act.end()) {
                EXPECT_GE(c.tick, act->second + t.tRCD)
                    << "RD before tRCD on channel " << c.channel
                    << " bank " << c.bank;
            }
            break;
          }
          case Cmd::Ref:
            refs[c.channel].emplace_back(c.tick, c.tick + t.tRFC);
            break;
        }
    }
}

TEST_F(DramBackendTest, ProtocolInvariantsUnderRandomTraffic)
{
    for (const std::string &name : dramPresetNames()) {
        auto dram = makeTiming(name);
        const DramConfig &cfg = dram->config();
        std::vector<CommandRecord> log;
        dram->setCommandLog(&log);

        // Deterministic LCG traffic: mixed classes, all channels,
        // enough rows and banks to exercise PRE/ACT chains, run past
        // two refresh intervals.
        uint64_t lcg = 0x2545F4914F6CDD1Dull;
        const Tick horizon = Tick{2} * dram->timing().tREFI + 4000;
        std::vector<MemRequest> fills;
        for (Tick now = 0; now <= horizon; ++now) {
            lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
            if ((lcg >> 60) < 3) { // ~3/16 of cycles offer a request.
                const unsigned ch = (lcg >> 32) & (cfg.channels - 1);
                if (dram->canAccept(ch, now)) {
                    const unsigned bank =
                        (lcg >> 40) & (cfg.banksPerChannel - 1);
                    const uint64_t row = (lcg >> 48) & 7;
                    const ReqClass cls =
                        ((lcg >> 56) & 3) == 0 ? ReqClass::Demand
                                               : ReqClass::Prefetch;
                    dram->serve(makeAddr(cfg, ch, bank, row), now, cls);
                }
            }
            dram->tick(now);
            while (auto req = dram->popCompleted(now))
                fills.push_back(*req);
        }

        EXPECT_GT(dram->stats().value("transfers"), 100u) << name;
        checkProtocol(log, dram->timing(), cfg.channels);

        // Refresh fired under continuous traffic: at least one owed
        // interval per elapsed tREFI per active channel, visible both
        // in the command log and the counter.
        const uint64_t refreshes = dram->stats().value("refreshes");
        EXPECT_GE(refreshes, uint64_t(cfg.channels)) << name;
        const auto is_ref = [](const CommandRecord &c) {
            return c.cmd == Cmd::Ref;
        };
        EXPECT_EQ(uint64_t(std::count_if(log.begin(), log.end(), is_ref)),
                  refreshes)
            << name;
    }
}

TEST_F(DramBackendTest, DemandOvertakesQueuedPrefetches)
{
    auto dram = makeTiming("ddr4-2400");
    const DramConfig &cfg = dram->config();
    std::vector<CommandRecord> log;
    dram->setCommandLog(&log);

    // Three prefetches queue at t=0 on channel 0 (distinct banks and
    // rows so each is identifiable in the command stream)...
    for (unsigned i = 0; i < 3; ++i) {
        dram->serve(makeAddr(cfg, 0, i, i + 1), 0, ReqClass::Prefetch,
                    kInvalidRefId, obs::HintClass::Spatial);
    }
    dram->tick(0); // Schedules exactly one of them.

    // ...then a demand arrives late.
    const Addr demand_addr = makeAddr(cfg, 0, 3, 7);
    dram->serve(demand_addr, 1, ReqClass::Demand);

    std::vector<MemRequest> fills;
    run(*dram, 1, 5000, &fills);
    ASSERT_EQ(fills.size(), 4u);

    // The demand is scheduled ahead of both still-queued prefetches:
    // its RD is the second column command issued...
    std::vector<int64_t> rd_rows;
    for (const CommandRecord &c : log) {
        if (c.cmd == Cmd::Rd)
            rd_rows.push_back(c.row);
    }
    ASSERT_GE(rd_rows.size(), 4u);
    EXPECT_EQ(rd_rows[1], 7);

    // ...and its fill is delivered second, demand class intact.
    EXPECT_EQ(fills[1].blockAddr, demand_addr);
    EXPECT_EQ(fills[1].cls, ReqClass::Demand);
    EXPECT_EQ(fills[0].cls, ReqClass::Prefetch);
}

TEST_F(DramBackendTest, RowHitsOutrankConflictsWithinAClass)
{
    auto dram = makeTiming("ddr4-2400");
    const DramConfig &cfg = dram->config();

    // Open row 1 on bank 0 and drain.
    dram->serve(makeAddr(cfg, 0, 0, 1), 0, ReqClass::Prefetch);
    std::vector<MemRequest> fills;
    run(*dram, 0, 2000, &fills);
    ASSERT_EQ(fills.size(), 1u);
    EXPECT_TRUE(dram->rowOpen(makeAddr(cfg, 0, 0, 1)));

    // A conflicting prefetch queues first, then a row hit.
    const Addr conflict = makeAddr(cfg, 0, 0, 2);
    const Addr hit = makeAddr(cfg, 0, 0, 1, 1);
    dram->serve(conflict, 2001, ReqClass::Prefetch);
    dram->serve(hit, 2001, ReqClass::Prefetch);
    fills.clear();
    run(*dram, 2001, 7000, &fills);
    ASSERT_EQ(fills.size(), 2u);
    // FR-FCFS schedules the open-row hit first despite arrival order.
    EXPECT_EQ(fills[0].blockAddr, hit);
    EXPECT_EQ(fills[1].blockAddr, conflict);
    EXPECT_EQ(dram->stats().value("rowHits"), 1u);
    EXPECT_EQ(dram->stats().value("rowConflicts"), 2u);
}

// ---------------------------------------------------------------------
// Stat schema and accounting identities.
// ---------------------------------------------------------------------

TEST_F(DramBackendTest, LegacySchemaIsSubsetOfTimingSchema)
{
    DramConfig cfg;
    DramSystem legacy(cfg);
    auto timing = makeTiming("ddr4-2400");
    // Same geometry by construction (both 4 channels here); every
    // stat the legacy model exposes must exist under the timing model
    // so downstream consumers (cost reports, the adaptive
    // controller's idle signal, bench extractors) need no schema
    // switch.
    ASSERT_EQ(cfg.channels, timing->config().channels);
    const auto &timing_counters = timing->stats().counters();
    for (const auto &entry : legacy.stats().counters()) {
        EXPECT_EQ(timing_counters.count(entry.first), 1u)
            << "legacy stat " << entry.first
            << " missing from the timing backend";
    }
}

TEST_F(DramBackendTest, PerBankStateCyclesSumToChannelCycles)
{
    SimConfig config;
    config.dram.backend = "ddr4-2400";
    EventQueue events;
    MemorySystem mem(config, events);
    std::vector<uint64_t> completed;
    mem.setLoadCallback(
        [&completed](uint64_t token) { completed.push_back(token); });

    // A strided demand stream long enough to cross rows and banks.
    uint64_t token = 1;
    Addr addr = 0x10000;
    for (Tick t = 0; t <= 20000; ++t) {
        events.advanceTo(t);
        if (t % 40 == 0) {
            if (mem.load(addr, 0, {}, token)) {
                ++token;
                addr += 3 * kBlockBytes + kBlockBytes * 64;
            }
        }
        mem.tick();
    }
    EXPECT_GT(completed.size(), 100u);

    const StatGroup &stats = mem.dram().stats();
    const DramConfig &cfg = mem.dram().config();
    static const char *kStates[5] = {
        "Idle", "Open", "Activating", "Precharging", "Refreshing",
    };
    for (unsigned ch = 0; ch < cfg.channels; ++ch) {
        const uint64_t total =
            stats.value("ch" + std::to_string(ch) + "Cycles");
        EXPECT_GT(total, 0u);
        for (unsigned b = 0; b < cfg.banksPerChannel; ++b) {
            uint64_t sum = 0;
            for (const char *state : kStates) {
                sum += stats.value("ch" + std::to_string(ch) + "bank" +
                                   std::to_string(b) + state + "Cycles");
            }
            EXPECT_EQ(sum, total) << "channel " << ch << " bank " << b;
        }
    }
}

TEST_F(DramBackendTest, TimingRunsAreDeterministic)
{
    const auto run_once = [](uint64_t *hash) {
        SimConfig config;
        config.dram.backend = "hbm2";
        EventQueue events;
        MemorySystem mem(config, events);
        mem.setLoadCallback([](uint64_t) {});
        Addr addr = 0x40000;
        uint64_t token = 1;
        for (Tick t = 0; t <= 8000; ++t) {
            events.advanceTo(t);
            if (t % 17 == 0 && mem.load(addr, 0, {}, token)) {
                ++token;
                addr += 5 * kBlockBytes;
            }
            mem.tick();
        }
        uint64_t h = 1469598103934665603ull;
        for (const auto &entry : mem.dram().stats().counters()) {
            h = (h ^ entry.second.value()) * 1099511628211ull;
        }
        *hash = h;
    };
    uint64_t first = 0;
    uint64_t second = 0;
    run_once(&first);
    run_once(&second);
    EXPECT_EQ(first, second);
}

} // namespace
} // namespace grp
