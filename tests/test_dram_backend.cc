/** @file Tests for the pluggable DRAM backend layer: factory/env
 *  resolution, timing-model protocol invariants checked against the
 *  recorded command stream, FR-FCFS demand priority, refresh cadence,
 *  skipping to nextTransitionTick against per-cycle ticking,
 *  stat-schema parity with the legacy model, the per-bank
 *  state-cycle accounting identity, and the lazy channel and
 *  contention booking against a per-cycle tally. */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdlib>
#include <map>
#include <stdexcept>
#include <tuple>
#include <utility>
#include <vector>

#include "harness/provenance.hh"
#include "mem/dram.hh"
#include "mem/dram_backend/factory.hh"
#include "mem/dram_backend/timing.hh"
#include "mem/memory_system.hh"
#include "obs/site_profile.hh"
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

/** A DramConfig naming @p preset, with its geometry. */
DramConfig
presetConfig(const DramPreset &preset)
{
    DramConfig cfg;
    cfg.backend = preset.name;
    cfg.channels = preset.channels;
    cfg.banksPerChannel = preset.banksPerChannel;
    cfg.rowBytes = preset.rowBytes;
    return cfg;
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
        return std::make_unique<TimingDramSystem>(
            presetConfig(*preset), preset->timing, preset_name);
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

TEST_F(DramBackendTest, ZeroCasLatencyIsRejected)
{
    // The transition rule needs every burst to start after the tick
    // that scheduled it; a zero tCAS breaks that for row hits.
    const DramPreset *preset = findDramPreset("ddr4-2400");
    ASSERT_NE(preset, nullptr);
    DramTimingParams timing = preset->timing;
    timing.tCAS = 0;
    EXPECT_THROW(TimingDramSystem(presetConfig(*preset), timing,
                                  "zero-cas"),
                 std::runtime_error);
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

// ---------------------------------------------------------------------
// Skipping to nextTransitionTick, the stall fast-forward's contract.
// ---------------------------------------------------------------------

/** One request of the test traffic, offered at @c tick. */
struct Arrival
{
    Tick tick;
    Addr addr;
    ReqClass cls;
};

/** Bursts of mixed-class LCG traffic separated by quiet stretches of
 *  up to 3,000 cycles, over [0, @p horizon]. Bursts offer up to
 *  three requests per tick, enough to fill command queues. */
std::vector<Arrival>
lcgTraffic(const DramConfig &cfg, Tick horizon)
{
    std::vector<Arrival> arrivals;
    uint64_t lcg = 0x9E3779B97F4A7C15ull;
    const auto draw = [&lcg] {
        lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
        return lcg >> 16;
    };
    Tick now = 0;
    while (now <= horizon) {
        const Tick burst_end = now + 50 + draw() % 400;
        for (; now < burst_end && now <= horizon; ++now) {
            const uint64_t r = draw();
            if (r % 4 != 0)
                continue;
            for (unsigned n = 1 + (r >> 2) % 3; n > 0; --n) {
                const uint64_t x = draw();
                const unsigned ch = x % cfg.channels;
                const unsigned bank = (x >> 8) % cfg.banksPerChannel;
                const uint64_t row = (x >> 16) % 6;
                const unsigned block = (x >> 24) % 4;
                const unsigned c = (x >> 32) % 8;
                const ReqClass cls = c < 3   ? ReqClass::Demand
                                     : c < 7 ? ReqClass::Prefetch
                                             : ReqClass::Writeback;
                arrivals.push_back(
                    {now, makeAddr(cfg, ch, bank, row, block), cls});
            }
        }
        now += draw() % 3000;
    }
    return arrivals;
}

/** Per-bank state counter suffixes, in BankState order. */
const char *const kBankStates[5] = {
    "Idle", "Open", "Activating", "Precharging", "Refreshing",
};

/** What one drive of a backend produced. */
struct BackendRun
{
    std::vector<std::tuple<Tick, Cmd, unsigned, unsigned, int64_t>> log;
    /** (block address, tick popped) per delivered fill. */
    std::vector<std::pair<Addr, Tick>> fills;
    std::map<std::string, uint64_t> counters;
    /** Per-cycle mode only: bankState() tallied at every noted
     *  cycle, keyed like the per-bank state counters. */
    std::map<std::string, uint64_t> bankStates;
    uint64_t steps = 0; ///< Ticks on which tick() ran.
};

/**
 * Drive @p dram through @p arrivals up to @p horizon the way
 * MemorySystem::tick does on each stepped tick: tick(), drain
 * completions, serve the tick's arrivals that fit. Per-cycle mode
 * steps every tick. Skip mode steps only at arrival ticks and
 * nextTransitionTick. Either way each step accounts the ticks up to
 * the next one with accountTo, as MemorySystem::tick and
 * fastForwardTicks do.
 */
BackendRun
drive(TimingDramSystem &dram, const std::vector<Arrival> &arrivals,
      Tick horizon, bool skip)
{
    BackendRun out;
    std::vector<CommandRecord> log;
    dram.setCommandLog(&log);
    const unsigned channels = dram.config().channels;
    const unsigned banks = dram.config().banksPerChannel;
    std::vector<uint64_t> states(size_t{channels} * banks * 5);

    size_t next_arrival = 0;
    for (Tick now = 0; now <= horizon;) {
        dram.tick(now);
        while (auto req = dram.popCompleted(now))
            out.fills.emplace_back(req->blockAddr, now);
        for (; next_arrival < arrivals.size() &&
               arrivals[next_arrival].tick == now;
             ++next_arrival) {
            const Arrival &a = arrivals[next_arrival];
            if (dram.canAccept(dram.channelOf(a.addr), now))
                dram.serve(a.addr, now, a.cls);
        }
        for (unsigned ch = 0; !skip && ch < channels; ++ch) {
            for (unsigned b = 0; b < banks; ++b) {
                const auto state = dram.bankState(ch, b, now);
                ++states[(ch * banks + b) * 5 +
                         static_cast<unsigned>(state)];
            }
        }
        ++out.steps;

        const Tick transition = dram.nextTransitionTick(now);
        EXPECT_GT(transition, now);
        // Drained (nothing queued, in flight or undelivered) exactly
        // when the backend has no transition of its own ahead.
        EXPECT_EQ(transition == kMaxTick, dram.allIdle(now))
            << "tick " << now;
        Tick next = now + 1;
        if (skip) {
            next = std::min(transition, horizon + 1);
            if (next_arrival < arrivals.size())
                next = std::min(next, arrivals[next_arrival].tick);
        }
        dram.accountTo(next);
        now = next;
    }
    dram.setCommandLog(nullptr);

    for (const CommandRecord &c : log)
        out.log.emplace_back(c.tick, c.cmd, c.channel, c.bank, c.row);
    for (const auto &[name, counter] : dram.stats().counters())
        out.counters.emplace(name, counter.value());
    for (unsigned ch = 0; !skip && ch < channels; ++ch) {
        for (unsigned b = 0; b < banks; ++b) {
            for (unsigned s = 0; s < 5; ++s) {
                out.bankStates.emplace(
                    "ch" + std::to_string(ch) + "bank" +
                        std::to_string(b) + kBankStates[s] + "Cycles",
                    states[(ch * banks + b) * 5 + s]);
            }
        }
    }
    return out;
}

TEST_F(DramBackendTest, SkippingToTransitionsMatchesPerCycleTicking)
{
    // The presets, plus ddr4-2400 with tCAS below tBURST and a short
    // tREFI: refresh is then charged while an ACT scheduled earlier
    // is still under way, so bankState's refresh-first priority
    // decides that window's cycles.
    const std::string kShortCas = "ddr4-2400, tCAS 1, tBURST 16";
    for (const std::string name :
         {"ddr4-2400", "hbm2", "lpddr4", kShortCas.c_str()}) {
        SCOPED_TRACE(name);
        const auto make = [&] {
            if (name != kShortCas)
                return makeTiming(name);
            const DramPreset *preset = findDramPreset("ddr4-2400");
            DramTimingParams timing = preset->timing;
            timing.tCAS = 1;
            timing.tBURST = 16;
            timing.tREFI = 1500;
            return std::make_unique<TimingDramSystem>(
                presetConfig(*preset), timing, name);
        };
        auto step_dram = make();
        auto skip_dram = make();
        // Past two refresh intervals, so owed refresh is charged at
        // the first scheduling decision after a skipped stretch.
        const Tick horizon = Tick{2} * step_dram->timing().tREFI + 4000;
        const std::vector<Arrival> arrivals =
            lcgTraffic(step_dram->config(), horizon);

        const BackendRun step =
            drive(*step_dram, arrivals, horizon, false);
        const BackendRun skip = drive(*skip_dram, arrivals, horizon, true);

        EXPECT_EQ(step.steps, horizon + 1);
        EXPECT_LT(skip.steps, step.steps / 2);
        EXPECT_GT(step.fills.size(), 100u);
        EXPECT_GE(step.counters.at("refreshes"),
                  2u * step_dram->config().channels);
        EXPECT_EQ(skip.log, step.log);
        EXPECT_EQ(skip.fills, step.fills);
        EXPECT_EQ(skip.counters, step.counters);
        // The accounting hook reproduces bankState cycle by cycle,
        // and the traffic takes banks through ACT, PRE and refresh.
        for (const auto &[name, cycles] : step.bankStates)
            EXPECT_EQ(step.counters.at(name), cycles) << name;
        for (const char *state : {"Activating", "Precharging",
                                  "Refreshing"}) {
            EXPECT_GT(skip.counters.at(std::string("ch0bank0") + state +
                                       "Cycles"),
                      0u)
                << state;
        }
    }
}

/** What one drive of driveWithReads produced. */
struct ReadRun
{
    std::map<std::string, uint64_t> counters; ///< Final dram group.
    uint64_t reads = 0; ///< Mid-run reads of the group.
};

/**
 * Drive @p dram through @p arrivals up to @p horizon, accounting each
 * stepped tick, and now and then a window skipped to
 * nextTransitionTick, with accountTo as the memory system does. The
 * group is reset once, at the first stepped tick from @p reset_at.
 * With @p reads it is also read at random ticks through value() and
 * counters(). Every read, and the final one, must match bankState
 * tallied over the accounted ticks since the reset.
 */
ReadRun
driveWithReads(TimingDramSystem &dram, const std::vector<Arrival> &arrivals,
               Tick horizon, Tick reset_at, bool reads)
{
    ReadRun out;
    const unsigned channels = dram.config().channels;
    const unsigned banks = dram.config().banksPerChannel;
    std::vector<uint64_t> tally(size_t{channels} * banks * 5);
    const auto stat_name = [banks](size_t i) {
        return "ch" + std::to_string(i / (banks * 5)) + "bank" +
               std::to_string(i / 5 % banks) + kBankStates[i % 5] +
               "Cycles";
    };
    const auto tally_tick = [&](Tick t) {
        for (unsigned ch = 0; ch < channels; ++ch) {
            for (unsigned b = 0; b < banks; ++b) {
                ++tally[(ch * banks + b) * 5 +
                        static_cast<unsigned>(dram.bankState(ch, b, t))];
            }
        }
    };
    const auto check_all = [&](Tick now) {
        const auto &counters = dram.stats().counters();
        for (size_t i = 0; i < tally.size(); ++i) {
            EXPECT_EQ(counters.at(stat_name(i)).value(), tally[i])
                << stat_name(i) << " at tick " << now;
        }
    };

    uint64_t lcg = 0x853C49E6748FEA9Bull;
    const auto draw = [&lcg] {
        lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
        return lcg >> 16;
    };
    bool reset_done = false;
    size_t next_arrival = 0;
    for (Tick now = 0; now <= horizon;) {
        if (!reset_done && now >= reset_at) {
            dram.stats().reset();
            std::fill(tally.begin(), tally.end(), 0);
            reset_done = true;
        }
        dram.tick(now);
        while (dram.popCompleted(now)) {
        }
        for (; next_arrival < arrivals.size() &&
               arrivals[next_arrival].tick <= now;
             ++next_arrival) {
            const Arrival &a = arrivals[next_arrival];
            if (dram.canAccept(dram.channelOf(a.addr), now))
                dram.serve(a.addr, now, a.cls);
        }
        dram.accountTo(now + 1);
        tally_tick(now);

        // One draw either way, so both kinds of run take the same
        // skips.
        const uint64_t r = draw();
        if (reads && r % 20 == 0) {
            ++out.reads;
            if ((r >> 8) % 2) {
                check_all(now);
            } else {
                const size_t i = (r >> 9) % tally.size();
                EXPECT_EQ(dram.stats().value(stat_name(i)), tally[i])
                    << stat_name(i) << " at tick " << now;
            }
        }

        // Now and then skip to the next transition.
        Tick next = now + 1;
        if (draw() % 3 == 0) {
            next = std::min(dram.nextTransitionTick(now), horizon + 1);
            if (next_arrival < arrivals.size())
                next = std::min(next, arrivals[next_arrival].tick);
        }
        dram.accountTo(next);
        for (Tick t = now + 1; t < next; ++t)
            tally_tick(t);
        now = next;
    }

    check_all(horizon);
    for (const auto &[name, counter] : dram.stats().counters())
        out.counters.emplace(name, counter.value());
    return out;
}

TEST_F(DramBackendTest, BankBookingMatchesBankStateUnderReadsAndResets)
{
    for (const std::string name : {"ddr4-2400", "hbm2", "lpddr4"}) {
        SCOPED_TRACE(name);
        auto read_dram = makeTiming(name);
        auto twin = makeTiming(name);
        // Past two refresh intervals, reset inside the first.
        const Tick horizon = Tick{2} * read_dram->timing().tREFI + 4000;
        const std::vector<Arrival> arrivals =
            lcgTraffic(read_dram->config(), horizon);

        const ReadRun read = driveWithReads(*read_dram, arrivals, horizon,
                                            horizon / 3, true);
        const ReadRun end =
            driveWithReads(*twin, arrivals, horizon, horizon / 3, false);

        EXPECT_GT(read.reads, 100u);
        EXPECT_EQ(end.counters, read.counters);
        // After the reset the traffic still takes banks through ACT,
        // PRE and refresh.
        EXPECT_GT(read.counters.at("transfers"), 100u);
        const DramConfig &cfg = read_dram->config();
        for (const auto state : {TimingDramSystem::BankState::Activating,
                                 TimingDramSystem::BankState::Precharging,
                                 TimingDramSystem::BankState::Refreshing}) {
            const char *suffix = kBankStates[static_cast<unsigned>(state)];
            uint64_t cycles = 0;
            for (unsigned ch = 0; ch < cfg.channels; ++ch) {
                for (unsigned b = 0; b < cfg.banksPerChannel; ++b) {
                    cycles += read.counters.at(
                        "ch" + std::to_string(ch) + "bank" +
                        std::to_string(b) + suffix + "Cycles");
                }
            }
            EXPECT_GT(cycles, 0u) << suffix;
        }
    }
}

/**
 * The channel and contention booking against a per-cycle tally, on
 * every backend. Channel c carries only class c % 3, so
 * channelBusyUntil alone gives each busy cycle's class; its
 * prefetches come from site 100 + c. Each channel's waiting-demand
 * count changes at random stepped ticks, and some windows are
 * skipped to the next transition or arrival. The group is read at
 * random ticks and reset once, followed by SiteProfiler::clear() as
 * the runner does at the warm-up boundary. Every read of the
 * channel, contention and site-profile counters must equal the
 * tally over the accounted ticks since the reset.
 */
TEST_F(DramBackendTest, ChannelBookingMatchesPerCycleTally)
{
    static const char *const kSlots[5] = {
        "DemandCycles", "PrefetchCycles", "WritebackCycles", "IdleCycles",
        "Cycles",
    };
    static const char *const kAggregates[4] = {
        "contentionDemandCycles", "contentionPrefetchCycles",
        "contentionWritebackCycles", "contentionIdleCycles",
    };
    obs::SiteProfiler &profiler = obs::SiteProfiler::instance();
    for (const std::string name : {"legacy", "ddr4-2400", "hbm2", "lpddr4"}) {
        SCOPED_TRACE(name);
        DramConfig cfg;
        cfg.backend = name;
        const std::unique_ptr<DramBackend> dram = makeDramBackend(cfg);
        const unsigned channels = dram->config().channels;
        const Tick horizon = 25'000;
        std::vector<Arrival> arrivals =
            lcgTraffic(dram->config(), horizon);
        for (Arrival &a : arrivals)
            a.cls = static_cast<ReqClass>(dram->channelOf(a.addr) % 3);

        // Per channel: the five chN*Cycles slots, the waiting demands
        // and the contention charged to its site.
        std::vector<std::array<uint64_t, 5>> cycles(channels);
        std::vector<size_t> waiting(channels);
        std::vector<uint64_t> site(channels);
        uint64_t stall = 0;
        const auto tally = [&](Tick t) {
            for (unsigned ch = 0; ch < channels; ++ch) {
                const bool busy = t < dram->channelBusyUntil(ch);
                ++cycles[ch][busy ? ch % 3 : 3];
                ++cycles[ch][4];
                if (busy && ch % 3 == 1) {
                    stall += waiting[ch];
                    site[ch] += waiting[ch];
                }
            }
        };
        uint64_t reads = 0;
        const auto check = [&](Tick now) {
            ++reads;
            const StatGroup &stats = dram->stats();
            std::array<uint64_t, 4> totals{};
            for (unsigned ch = 0; ch < channels; ++ch) {
                for (unsigned s = 0; s < 5; ++s) {
                    const std::string stat =
                        "ch" + std::to_string(ch) + kSlots[s];
                    EXPECT_EQ(stats.value(stat), cycles[ch][s])
                        << stat << " at tick " << now;
                    if (s < 4)
                        totals[s] += cycles[ch][s];
                }
            }
            for (unsigned s = 0; s < 4; ++s) {
                EXPECT_EQ(stats.value(kAggregates[s]), totals[s])
                    << kAggregates[s] << " at tick " << now;
            }
            EXPECT_EQ(stats.value("contentionDemandStallCycles"), stall)
                << "at tick " << now;
            // The dram group's sync above booked the site column.
            uint64_t site_total = 0;
            for (unsigned ch = 1; ch < channels; ch += 3) {
                const obs::SiteCounters *counters =
                    profiler.find(100 + ch, obs::HintClass::Spatial);
                EXPECT_EQ(counters ? counters->contentionCycles : 0,
                          site[ch])
                    << "site " << 100 + ch << " at tick " << now;
                site_total += site[ch];
            }
            EXPECT_EQ(profiler.stats().value("contentionCycles"),
                      site_total)
                << "at tick " << now;
        };

        profiler.clear();
        profiler.setEnabled(true);
        uint64_t lcg = 0xDA942042E4DD58B5ull;
        const auto draw = [&lcg] {
            lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
            return lcg >> 16;
        };
        bool reset_done = false;
        size_t next_arrival = 0;
        for (Tick now = 0; now <= horizon;) {
            if (!reset_done && now >= horizon / 3) {
                dram->stats().reset();
                profiler.clear();
                std::fill(cycles.begin(), cycles.end(),
                          std::array<uint64_t, 5>{});
                std::fill(site.begin(), site.end(), 0);
                stall = 0;
                reset_done = true;
            }
            for (unsigned ch = 0; ch < channels; ++ch) {
                if (draw() % 8 == 0) {
                    waiting[ch] = draw() % 4;
                    dram->setWaitingDemands(ch, waiting[ch], now);
                }
            }
            dram->tick(now);
            while (dram->popCompleted(now)) {
            }
            for (; next_arrival < arrivals.size() &&
                   arrivals[next_arrival].tick <= now;
                 ++next_arrival) {
                const Arrival &a = arrivals[next_arrival];
                const unsigned ch = dram->channelOf(a.addr);
                if (!dram->canAccept(ch, now))
                    continue;
                if (a.cls == ReqClass::Prefetch) {
                    dram->serve(a.addr, now, a.cls, 100 + ch,
                                obs::HintClass::Spatial);
                } else {
                    dram->serve(a.addr, now, a.cls);
                }
            }
            dram->accountTo(now + 1);
            tally(now);
            if (draw() % 8 == 0)
                check(now);

            Tick next = now + 1;
            if (draw() % 3 == 0) {
                next = std::min(dram->nextTransitionTick(now), horizon + 1);
                if (next_arrival < arrivals.size())
                    next = std::min(next, arrivals[next_arrival].tick);
            }
            dram->accountTo(next);
            for (Tick t = now + 1; t < next; ++t)
                tally(t);
            now = next;
        }
        check(horizon);
        profiler.setEnabled(false);
        profiler.clear();

        // The traffic exercised every class and the contention path.
        EXPECT_GT(reads, 100u);
        EXPECT_GT(stall, 0u);
        for (unsigned s = 0; s < 3; ++s)
            EXPECT_GT(cycles[s][s], 0u) << kSlots[s];
    }
}

/** What one drive of a memory system produced. */
struct MemoryRun
{
    /** (token, tick) per completed load. */
    std::vector<std::pair<uint64_t, Tick>> loads;
    std::map<std::string, uint64_t> counters; ///< mem.* and dram.*.
    uint64_t steps = 0; ///< Ticks on which MemorySystem::tick ran.
    size_t peakDemandQueue = 0; ///< Most demands queued after a tick.
};

/**
 * Drive a ddr4-2400 MemorySystem through @p arrivals (loads) up to
 * @p horizon as the runner does around a stalled CPU. Per-cycle mode
 * ticks every cycle. Skip mode steps only at arrival ticks, event
 * ticks and nextWorkTick, and books each gap with fastForwardTicks.
 */
MemoryRun
driveMemory(const std::vector<Arrival> &arrivals, Tick horizon,
            bool skip)
{
    MemoryRun out;
    SimConfig config;
    config.dram.backend = "ddr4-2400";
    EventQueue events;
    MemorySystem mem(config, events);
    mem.setLoadCallback([&](uint64_t token) {
        out.loads.emplace_back(token, events.curTick());
    });

    size_t next_arrival = 0;
    uint64_t token = 0;
    for (Tick now = 0; now <= horizon;) {
        events.advanceTo(now);
        for (; next_arrival < arrivals.size() &&
               arrivals[next_arrival].tick == now;
             ++next_arrival) {
            mem.load(arrivals[next_arrival].addr, 0, {}, token++);
        }
        mem.tick();
        ++out.steps;
        // Every queued demand holds a demand L2 MSHR, so the
        // prioritizer's demand-in-flight gate covers the queue.
        EXPECT_GE(mem.l2Mshrs().demandInFlight(), mem.demandQueueDepth())
            << "tick " << now;
        out.peakDemandQueue =
            std::max(out.peakDemandQueue, mem.demandQueueDepth());

        const Tick work = mem.nextWorkTick(now);
        EXPECT_GT(work, now);
        Tick next = now + 1;
        if (skip) {
            next = std::min({work, events.nextEventTick(), horizon + 1});
            if (next_arrival < arrivals.size())
                next = std::min(next, arrivals[next_arrival].tick);
            mem.fastForwardTicks(now + 1, next);
        }
        now = next;
    }

    for (const StatGroup *group : {&mem.stats(), &mem.dram().stats()}) {
        for (const auto &[name, counter] : group->counters())
            out.counters.emplace(group->name() + "." + name,
                                 counter.value());
    }
    return out;
}

TEST_F(DramBackendTest, SkippingToNextWorkTickMatchesPerCycleTicking)
{
    // Loads arrive in same-tick bursts on one channel, so demand
    // waits in the memory system while the command queue has space
    // and the bus is busy: a skip past the next cycle would delay its
    // entry into the queue and change FR-FCFS's choice.
    const DramPreset *preset = findDramPreset("ddr4-2400");
    ASSERT_NE(preset, nullptr);
    const DramConfig cfg = presetConfig(*preset);
    std::vector<Arrival> arrivals;
    uint64_t lcg = 0x2545F4914F6CDD1Dull;
    const auto draw = [&lcg] {
        lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
        return lcg >> 16;
    };
    const Tick horizon = 30'000;
    for (Tick now = 0; now < horizon - 2'000; now += 50 + draw() % 600) {
        const unsigned ch = draw() % cfg.channels;
        for (unsigned n = 2 + draw() % 4; n > 0; --n) {
            const uint64_t x = draw();
            arrivals.push_back({now,
                                makeAddr(cfg, ch, x % 2, (x >> 8) % 3,
                                         (x >> 16) % 32),
                                ReqClass::Demand});
        }
    }

    const MemoryRun step = driveMemory(arrivals, horizon, false);
    const MemoryRun skip = driveMemory(arrivals, horizon, true);
    EXPECT_EQ(step.steps, horizon + 1);
    EXPECT_LT(skip.steps, step.steps / 2);
    EXPECT_GT(step.loads.size(), arrivals.size() / 2);
    EXPECT_GT(step.peakDemandQueue, 1u);
    EXPECT_EQ(skip.loads, step.loads);
    EXPECT_EQ(skip.counters, step.counters);
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
    for (unsigned ch = 0; ch < cfg.channels; ++ch) {
        const uint64_t total =
            stats.value("ch" + std::to_string(ch) + "Cycles");
        EXPECT_GT(total, 0u);
        for (unsigned b = 0; b < cfg.banksPerChannel; ++b) {
            uint64_t sum = 0;
            for (const char *state : kBankStates) {
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
