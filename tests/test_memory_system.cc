/** @file Integration tests for the memory hierarchy timing model. */

#include <gtest/gtest.h>

#include <vector>

#include "core/engine_factory.hh"
#include "mem/memory_system.hh"
#include "mem_port.hh"
#include "obs/site_profile.hh"
#include "sim/logging.hh"

namespace grp
{
namespace
{

class MemorySystemTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        setQuiet(true);
        mem = std::make_unique<MemorySystem>(config, events);
        port = std::make_unique<MemPort>(
            *mem, events,
            [this](uint64_t token) { completed.push_back(token); });
    }

    void
    runTo(Tick when)
    {
        for (Tick t = events.curTick(); t <= when; ++t) {
            events.advanceTo(t);
            mem->tick();
        }
    }

    /** Run until the load with @p token completes; returns the
     *  completion tick. */
    Tick
    runUntilDone(uint64_t token, Tick limit = 10'000)
    {
        for (Tick t = events.curTick(); t <= limit; ++t) {
            events.advanceTo(t);
            mem->tick();
            for (uint64_t done : completed) {
                if (done == token)
                    return t;
            }
        }
        ADD_FAILURE() << "load " << token << " never completed";
        return 0;
    }

    SimConfig config;
    EventQueue events;
    std::unique_ptr<MemorySystem> mem;
    std::unique_ptr<MemPort> port;
    std::vector<uint64_t> completed;
};

TEST_F(MemorySystemTest, ColdLoadPaysDramLatency)
{
    ASSERT_TRUE(port->load(0x10000, 0, {}, 1));
    const Tick done = runUntilDone(1);
    // At least row conflict + transfer + L1 fill.
    EXPECT_GE(done, config.dram.rowConflictCycles +
                        config.dram.transferCycles);
    EXPECT_EQ(mem->stats().value("demandToMemory"), 1u);
    EXPECT_EQ(mem->trafficBytes(), kBlockBytes);
}

TEST_F(MemorySystemTest, L1HitIsFast)
{
    ASSERT_TRUE(port->load(0x10000, 0, {}, 1));
    runUntilDone(1);
    completed.clear();
    ASSERT_TRUE(port->load(0x10008, 0, {}, 2));
    const Tick start = events.curTick();
    const Tick done = runUntilDone(2);
    EXPECT_LE(done - start, config.l1d.latency + 1);
    // No new memory traffic.
    EXPECT_EQ(mem->trafficBytes(), kBlockBytes);
}

TEST_F(MemorySystemTest, L2HitAvoidsDram)
{
    ASSERT_TRUE(port->load(0x10000, 0, {}, 1));
    runUntilDone(1);
    // Evict from L1 by filling its set: L1 is 64 KB 2-way -> 512
    // sets; same set repeats every 32 KB.
    ASSERT_TRUE(port->load(0x10000 + 32 * 1024, 0, {}, 2));
    runUntilDone(2);
    ASSERT_TRUE(port->load(0x10000 + 64 * 1024, 0, {}, 3));
    runUntilDone(3);
    completed.clear();
    const uint64_t traffic_before = mem->trafficBytes();
    ASSERT_TRUE(port->load(0x10000, 0, {}, 4));
    const Tick start = events.curTick();
    const Tick done = runUntilDone(4);
    EXPECT_LE(done - start, config.l1d.latency + config.l2.latency + 2);
    EXPECT_EQ(mem->trafficBytes(), traffic_before);
}

TEST_F(MemorySystemTest, CoalescedLoadsShareOneFill)
{
    ASSERT_TRUE(port->load(0x20000, 0, {}, 1));
    ASSERT_TRUE(port->load(0x20008, 0, {}, 2));
    runUntilDone(1);
    runUntilDone(2);
    EXPECT_EQ(mem->stats().value("demandToMemory"), 1u);
}

TEST_F(MemorySystemTest, MshrExhaustionStallsNewMisses)
{
    // 8 L1 MSHRs: the ninth distinct-block miss must be refused.
    for (unsigned i = 0; i < 8; ++i)
        ASSERT_TRUE(port->load(0x40000 + i * kBlockBytes, 0, {}, i));
    EXPECT_FALSE(port->load(0x80000, 0, {}, 99));
    EXPECT_GT(mem->stats().value("l1MshrStalls"), 0u);
    runUntilDone(7);
    EXPECT_TRUE(port->load(0x80000, 0, {}, 99));
}

TEST_F(MemorySystemTest, StoresWriteAllocateAndWriteBack)
{
    ASSERT_TRUE(port->store(0x30000, 0, {}));
    runTo(2000);
    EXPECT_EQ(mem->stats().value("demandToMemory"), 1u);

    // Push the dirty line out of the L1 (32 KB apart -> same set)
    // and then out of the L2 (256 KB apart -> same L2 set).
    for (unsigned i = 1; i <= 2; ++i) {
        ASSERT_TRUE(
            port->load(0x30000 + i * 32 * 1024, 0, {}, 100 + i));
        runUntilDone(100 + i);
    }
    for (unsigned i = 1; i <= 4; ++i) {
        ASSERT_TRUE(
            port->load(0x30000 + i * 256 * 1024, 0, {}, 200 + i));
        runUntilDone(200 + i);
    }
    runTo(events.curTick() + 2000);
    EXPECT_GE(mem->stats().value("writebacksQueued"), 1u);
    EXPECT_GE(mem->stats().value("writebacks"), 1u);
}

TEST_F(MemorySystemTest, PerfectL1NeverTouchesMemory)
{
    config.perfection = Perfection::PerfectL1;
    MemorySystem perfect(config, events);
    std::vector<uint64_t> done;
    MemPort perfect_port(perfect, events, [&done](uint64_t token) {
        done.push_back(token);
    });
    ASSERT_TRUE(perfect_port.load(0xdeadbe00, 0, {}, 1));
    ASSERT_TRUE(perfect_port.store(0xdeadbe40, 0, {}));
    for (Tick t = 0; t < 20; ++t) {
        events.advanceTo(events.curTick() + 1);
        perfect.tick();
    }
    EXPECT_EQ(done.size(), 1u);
    EXPECT_EQ(perfect.trafficBytes(), 0u);
}

TEST_F(MemorySystemTest, PerfectL2NeverTouchesMemory)
{
    config.perfection = Perfection::PerfectL2;
    MemorySystem perfect(config, events);
    std::vector<uint64_t> done;
    MemPort perfect_port(perfect, events, [&done](uint64_t token) {
        done.push_back(token);
    });
    ASSERT_TRUE(perfect_port.load(0x123400, 0, {}, 1));
    for (Tick t = 0; t < 100 && done.empty(); ++t) {
        events.advanceTo(events.curTick() + 1);
        perfect.tick();
    }
    EXPECT_EQ(done.size(), 1u);
    EXPECT_EQ(perfect.trafficBytes(), 0u);
}

TEST_F(MemorySystemTest, QuiescedTracksOutstandingWork)
{
    EXPECT_TRUE(mem->quiesced());
    ASSERT_TRUE(port->load(0x50000, 0, {}, 1));
    EXPECT_FALSE(mem->quiesced());
    runUntilDone(1);
    runTo(events.curTick() + 1);
    EXPECT_TRUE(mem->quiesced());
}

class SrpIntegration : public MemorySystemTest
{
  protected:
    void SetUp() override
    {
        setQuiet(true);
        config.scheme = PrefetchScheme::Srp;
        mem = std::make_unique<MemorySystem>(config, events);
        port = std::make_unique<MemPort>(
            *mem, events,
            [this](uint64_t token) { completed.push_back(token); });
        engine = makePrefetchEngine(config, fmem, *mem);
    }

    FunctionalMemory fmem;
    std::unique_ptr<PrefetchEngine> engine;
};

TEST_F(SrpIntegration, MissTriggersRegionPrefetching)
{
    ASSERT_TRUE(port->load(0x100000, 0, {}, 1));
    runUntilDone(1);
    runTo(events.curTick() + 5000); // Idle: prefetcher works.
    EXPECT_GT(mem->stats().value("prefetchesIssued"), 0u);
    EXPECT_GT(mem->stats().value("prefetchFills"), 0u);
    // The prefetched neighbour now hits in the L2.
    completed.clear();
    const uint64_t to_memory = mem->stats().value("demandToMemory");
    ASSERT_TRUE(port->load(0x100000 + kBlockBytes, 0, {}, 2));
    runUntilDone(2);
    EXPECT_EQ(mem->stats().value("demandToMemory"), to_memory);
    EXPECT_GT(mem->l2().stats().value("prefetchHits"), 0u);
}

TEST_F(SrpIntegration, PrefetchesWaitForDemandToDrain)
{
    // Queue a demand and a region together; while the demand is in
    // flight no prefetch may issue.
    ASSERT_TRUE(port->load(0x200000, 0, {}, 1));
    events.advanceTo(1);
    mem->tick(); // Demand starts on its channel.
    EXPECT_EQ(mem->stats().value("prefetchesIssued"), 0u);
    runUntilDone(1);
    runTo(events.curTick() + 3000);
    EXPECT_GT(mem->stats().value("prefetchesIssued"), 0u);
    EXPECT_GT(mem->stats().value("prefetchDemandThrottled"), 0u);
}

TEST_F(SrpIntegration, TrafficCountsPrefetches)
{
    ASSERT_TRUE(port->load(0x300000, 0, {}, 1));
    runUntilDone(1);
    runTo(events.curTick() + 20'000);
    const uint64_t fills = mem->stats().value("demandFills") +
                           mem->stats().value("prefetchFills") +
                           mem->stats().value("writebacks");
    EXPECT_EQ(mem->trafficBytes(), fills * kBlockBytes);
    // A full region should eventually be fetched.
    EXPECT_EQ(mem->stats().value("prefetchFills"), 63u);
}

/** Offers the candidates a test queues, each on its own channel. */
class ScriptedEngine : public PrefetchEngine
{
  public:
    void
    offer(Addr block, RefId ref, obs::HintClass hint)
    {
        PrefetchCandidate candidate;
        candidate.blockAddr = block;
        candidate.refId = ref;
        candidate.hintClass = hint;
        queue_.push_back(candidate);
    }

    std::optional<PrefetchCandidate>
    dequeuePrefetch(const DramBackend &dram, unsigned channel) override
    {
        for (auto it = queue_.begin(); it != queue_.end(); ++it) {
            if (dram.channelOf(it->blockAddr) == channel) {
                const PrefetchCandidate candidate = *it;
                queue_.erase(it);
                return candidate;
            }
        }
        return std::nullopt;
    }

    size_t queueDepth() const override { return queue_.size(); }
    StatGroup &stats() override { return stats_; }

  private:
    std::vector<PrefetchCandidate> queue_;
    StatGroup stats_{"scripted"};
};

/** A prefetch fill's record stays with its L2 line: what the line's
 *  first use or unused eviction reports comes from it. */
class FillRecordTest : public MemorySystemTest
{
  protected:
    /** 256 KB apart: the same L2 set (and the same L1 set). */
    static constexpr Addr kL2SetStride = 256 * 1024;

    void
    SetUp() override
    {
        MemorySystemTest::SetUp();
        attach();
        obs::SiteProfiler::instance().clear();
        obs::SiteProfiler::instance().setEnabled(true);
    }

    void
    TearDown() override
    {
        obs::SiteProfiler::instance().setEnabled(false);
        obs::SiteProfiler::instance().clear();
    }

    /** Wire the scripted engine in. The test offers candidates
     *  between ticks, which the deferred walk would not see. */
    void
    attach()
    {
        mem->setPrefetchEngine(&engine);
        mem->setDeferral(false);
    }

    /** Rebuild the hierarchy from the (changed) config. */
    void
    rebuild()
    {
        port.reset();
        mem = std::make_unique<MemorySystem>(config, events);
        port = std::make_unique<MemPort>(
            *mem, events,
            [this](uint64_t token) { completed.push_back(token); });
        attach();
    }

    /** Step @p n cycles past the current tick. */
    void
    step(Tick n)
    {
        for (Tick i = 0; i < n; ++i) {
            events.advanceTo(events.curTick() + 1);
            mem->tick();
        }
    }

    /** Prefetch @p block for site @p ref; returns the fill tick. */
    Tick
    prefetch(Addr block, RefId ref, obs::HintClass hint)
    {
        engine.offer(block, ref, hint);
        for (int i = 0; i < 10'000; ++i) {
            step(1);
            if (mem->l2().contains(block))
                return events.curTick();
        }
        ADD_FAILURE() << "prefetch of " << block << " never filled";
        return 0;
    }

    /** A demand load of @p addr, run to completion. */
    void
    demand(Addr addr)
    {
        const uint64_t token = nextToken_++;
        ASSERT_TRUE(port->load(addr, 0, {}, token));
        runUntilDone(token);
    }

    const obs::SiteCounters *
    site(RefId ref, obs::HintClass hint) const
    {
        return obs::SiteProfiler::instance().find(ref, hint);
    }

    ScriptedEngine engine;
    uint64_t nextToken_ = 1;
};

TEST_F(FillRecordTest, FirstUseReportsTheFillsSiteHintAndDistance)
{
    const Addr block = 0x100000;
    const Tick filled = prefetch(block, 7, obs::HintClass::Pointer);
    const FillRecord *record = mem->l2().fillRecord(block);
    ASSERT_NE(record, nullptr);
    EXPECT_EQ(record->fillTick, filled);
    EXPECT_EQ(record->ref, 7u);
    EXPECT_EQ(record->hint, obs::HintClass::Pointer);
    EXPECT_FALSE(record->warm);

    step(100);
    // The demand's own site (0) is not the prefetch's.
    ASSERT_TRUE(port->load(block, 0, {}, 1));
    EXPECT_EQ(mem->stats().value("usefulPrefetches"), 1u);
    EXPECT_EQ(mem->stats().distribution("prefetchToUseDistance").count(100),
              1u);
    const obs::SiteCounters *prefetcher =
        site(7, obs::HintClass::Pointer);
    ASSERT_NE(prefetcher, nullptr);
    EXPECT_EQ(prefetcher->fills, 1u);
    EXPECT_EQ(prefetcher->useful, 1u);
    EXPECT_EQ(prefetcher->fillToUse.count(100), 1u);
    EXPECT_EQ(site(kInvalidRefId, obs::HintClass::None), nullptr);
}

TEST_F(FillRecordTest, UnusedEvictionReportsTheFillsSite)
{
    const Addr block = 0x200000;
    prefetch(block, 9, obs::HintClass::Spatial);
    // Three demand fills take the set's free ways; the fourth evicts
    // the prefetch, which entered at LRU.
    for (Addr k = 1; k <= 4; ++k)
        demand(block + k * kL2SetStride);
    EXPECT_FALSE(mem->l2().contains(block));
    EXPECT_EQ(mem->stats().value("prefetchEvictedUnused"), 1u);
    const obs::SiteCounters *prefetcher =
        site(9, obs::HintClass::Spatial);
    ASSERT_NE(prefetcher, nullptr);
    EXPECT_EQ(prefetcher->evictedUnused, 1u);
    EXPECT_EQ(obs::SiteProfiler::instance().stats().value(
                  "warmupEvictedUnused"),
              0u);
}

TEST_F(FillRecordTest, ResetStatsTurnsLiveRecordsIntoCarryover)
{
    const Addr used = 0x300000;
    const Addr unused = 0x340000;
    prefetch(used, 5, obs::HintClass::Indirect);
    prefetch(unused, 6, obs::HintClass::Indirect);
    mem->resetStats();
    ASSERT_NE(mem->l2().fillRecord(used), nullptr);
    EXPECT_TRUE(mem->l2().fillRecord(used)->warm);

    ASSERT_TRUE(port->load(used, 0, {}, 1));
    EXPECT_EQ(mem->stats().value("usefulPrefetches"), 0u);
    EXPECT_EQ(mem->stats().value("usefulPrefetchWarmupCarryover"), 1u);
    EXPECT_EQ(site(5, obs::HintClass::Indirect)->warmupUseful, 1u);
    EXPECT_EQ(site(5, obs::HintClass::Indirect)->useful, 0u);

    for (Addr k = 1; k <= 4; ++k)
        demand(unused + k * kL2SetStride);
    EXPECT_EQ(site(6, obs::HintClass::Indirect)->evictedUnused, 1u);
    EXPECT_EQ(obs::SiteProfiler::instance().stats().value(
                  "warmupEvictedUnused"),
              1u);

    // A fill after the boundary is measured again.
    const Addr fresh = 0x310000;
    prefetch(fresh, 8, obs::HintClass::Indirect);
    ASSERT_NE(mem->l2().fillRecord(fresh), nullptr);
    EXPECT_FALSE(mem->l2().fillRecord(fresh)->warm);
    ASSERT_TRUE(port->load(fresh, 0, {}, 2));
    EXPECT_EQ(mem->stats().value("usefulPrefetches"), 1u);
}

TEST_F(FillRecordTest, DemandInsertLeavesNoRecordForTheNextOccupant)
{
    const Addr block = 0x400000;
    for (Addr k = 1; k <= 3; ++k)
        demand(block + k * kL2SetStride);
    // The set's last free way; the prefetch enters below the three
    // demand lines, so the next demand fill takes its way.
    prefetch(block, 3, obs::HintClass::Spatial);
    ASSERT_NE(mem->l2().fillRecord(block), nullptr);
    const Addr next = block + 4 * kL2SetStride;
    demand(next);
    EXPECT_FALSE(mem->l2().contains(block));
    EXPECT_EQ(site(3, obs::HintClass::Spatial)->evictedUnused, 1u);
    EXPECT_TRUE(mem->l2().contains(next));
    EXPECT_EQ(mem->l2().fillRecord(next), nullptr);
}

TEST_F(FillRecordTest, WritebackInsertLeavesNoRecordForTheNextOccupant)
{
    // Prefetches enter at MRU, so four of them push the stored block
    // out of its L2 set while the L1 keeps it dirty.
    config.region.lruInsertion = false;
    rebuild();
    const Addr stored = 0x500000;
    ASSERT_TRUE(port->store(stored, 0, {}));
    step(2000);
    for (Addr k = 1; k <= 4; ++k) {
        prefetch(stored + k * kL2SetStride, static_cast<RefId>(10 + k),
                 obs::HintClass::Spatial);
    }
    ASSERT_FALSE(mem->l2().contains(stored));
    // Two loads 32 KB apart share the stored block's L1 set (not its
    // L2 set) and push it out of the L1: its writeback allocates in
    // the L2 and takes the way of the oldest prefetch.
    demand(stored + 32 * 1024);
    demand(stored + 64 * 1024);
    ASSERT_TRUE(mem->l2().contains(stored));
    EXPECT_FALSE(mem->l2().contains(stored + kL2SetStride));
    EXPECT_EQ(site(11, obs::HintClass::Spatial)->evictedUnused, 1u);
    EXPECT_EQ(mem->l2().fillRecord(stored), nullptr);
}

} // namespace
} // namespace grp
