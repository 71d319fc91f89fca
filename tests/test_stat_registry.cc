/** @file Registration lifecycle, lookup, snapshot and JSON/CSV
 *  round-trip tests for the observability stat registry. */

#include <gtest/gtest.h>

#include <sstream>

#include "mem/memory_system.hh"
#include "obs/json_reader.hh"
#include "obs/stat_registry.hh"
#include "sim/config.hh"
#include "sim/event_queue.hh"

namespace grp
{
namespace
{

TEST(StatRegistry, RegistrationLifecycle)
{
    obs::StatRegistry registry;
    EXPECT_EQ(registry.size(), 0u);
    {
        StatGroup group("g");
        obs::ScopedStatRegistration reg(group, registry);
        EXPECT_EQ(registry.size(), 1u);
        EXPECT_EQ(registry.find("g"), &group);
    }
    EXPECT_EQ(registry.size(), 0u);
    EXPECT_EQ(registry.find("g"), nullptr);
}

TEST(StatRegistry, ValueLookupNewestWins)
{
    obs::StatRegistry registry;
    StatGroup old_group("cache");
    old_group.counter("hits") += 3;
    StatGroup new_group("cache");
    new_group.counter("hits") += 7;
    obs::ScopedStatRegistration r1(old_group, registry);
    obs::ScopedStatRegistration r2(new_group, registry);

    EXPECT_EQ(registry.find("cache"), &new_group);
    EXPECT_EQ(registry.value("cache.hits"), 7u);
    EXPECT_EQ(registry.value("cache.absent"), 0u);
    EXPECT_EQ(registry.value("nosuch.hits"), 0u);
}

TEST(StatRegistry, SnapshotCopiesCountersAndDistributions)
{
    obs::StatRegistry registry;
    StatGroup group("mem");
    group.counter("fills") += 12;
    for (uint64_t v = 1; v <= 100; ++v)
        group.distribution("dist").sample(v);
    obs::ScopedStatRegistration reg(group, registry);

    const obs::StatSnapshot snap = registry.snapshot();
    EXPECT_TRUE(snap.hasCounter("mem.fills"));
    EXPECT_EQ(snap.value("mem.fills"), 12u);
    ASSERT_EQ(snap.distributions.count("mem.dist"), 1u);
    const obs::DistSummary &dist = snap.distributions.at("mem.dist");
    EXPECT_EQ(dist.samples, 100u);
    EXPECT_EQ(dist.sum, 5050u);
    EXPECT_EQ(dist.p50, 50u);
    EXPECT_EQ(dist.p90, 90u);
    EXPECT_EQ(dist.p99, 99u);
    EXPECT_EQ(dist.maxValue, 100u);

    // The snapshot must outlive the group.
    group.reset();
    EXPECT_EQ(snap.value("mem.fills"), 12u);
}

TEST(StatRegistry, ExportJsonRoundTrip)
{
    obs::StatRegistry registry;
    StatGroup l2("l2");
    l2.counter("hits") += 42;
    l2.counter("misses") += 13;
    l2.distribution("lat").sample(5);
    l2.distribution("lat").sample(15);
    StatGroup dram("dram");
    dram.counter("transfers") += 9;
    obs::ScopedStatRegistration r1(l2, registry);
    obs::ScopedStatRegistration r2(dram, registry);

    std::ostringstream os;
    registry.exportJson(os);

    std::string error;
    auto doc = obs::parseJson(os.str(), &error);
    ASSERT_TRUE(doc) << error;
    const obs::JsonValue *hits =
        doc->findPath("groups.l2.counters.hits");
    ASSERT_TRUE(hits);
    EXPECT_EQ(hits->asNumber(), 42.0);
    const obs::JsonValue *transfers =
        doc->findPath("groups.dram.counters.transfers");
    ASSERT_TRUE(transfers);
    EXPECT_EQ(transfers->asNumber(), 9.0);
    const obs::JsonValue *samples =
        doc->findPath("groups.l2.distributions.lat.samples");
    ASSERT_TRUE(samples);
    EXPECT_EQ(samples->asNumber(), 2.0);
    const obs::JsonValue *mean =
        doc->findPath("groups.l2.distributions.lat.mean");
    ASSERT_TRUE(mean);
    EXPECT_DOUBLE_EQ(mean->asNumber(), 10.0);
}

TEST(StatRegistry, ExportSuffixesDuplicateNames)
{
    obs::StatRegistry registry;
    StatGroup old_group("cache");
    old_group.counter("hits") += 1;
    StatGroup new_group("cache");
    new_group.counter("hits") += 2;
    obs::ScopedStatRegistration r1(old_group, registry);
    obs::ScopedStatRegistration r2(new_group, registry);

    std::ostringstream os;
    registry.exportJson(os);
    std::string error;
    auto doc = obs::parseJson(os.str(), &error);
    ASSERT_TRUE(doc) << error;
    // The newest registration keeps the bare name; the older one is
    // suffixed so nothing is silently dropped.
    const obs::JsonValue *newest =
        doc->findPath("groups.cache.counters.hits");
    ASSERT_TRUE(newest);
    EXPECT_EQ(newest->asNumber(), 2.0);
    ASSERT_TRUE(doc->findPath("groups"));
    const obs::JsonValue *suffixed =
        doc->findPath("groups")->find("cache#2");
    ASSERT_TRUE(suffixed);
    EXPECT_EQ(suffixed->findPath("counters.hits")->asNumber(), 1.0);
}

TEST(StatRegistry, ExportCsvFormat)
{
    obs::StatRegistry registry;
    StatGroup group("mem");
    group.counter("fills") += 4;
    group.distribution("d").sample(10);
    obs::ScopedStatRegistration reg(group, registry);

    std::ostringstream os;
    registry.exportCsv(os);
    const std::string csv = os.str();
    EXPECT_EQ(csv.rfind("group,stat,value\n", 0), 0u);
    EXPECT_NE(csv.find("mem,fills,4\n"), std::string::npos);
    EXPECT_NE(csv.find("mem,d.samples,1\n"), std::string::npos);
    EXPECT_NE(csv.find("mem,d.p50,10\n"), std::string::npos);
}

TEST(StatRegistry, ResetAll)
{
    obs::StatRegistry registry;
    StatGroup group("g");
    group.counter("c") += 5;
    group.distribution("d").sample(3);
    obs::ScopedStatRegistration reg(group, registry);
    registry.resetAll();
    EXPECT_EQ(group.value("c"), 0u);
    EXPECT_EQ(group.distribution("d").samples(), 0u);
}

TEST(StatRegistry, SyncRunsBeforeEveryReadAndReset)
{
    // The sync books what is pending, as a lazily booked component
    // would; every read must show it.
    obs::StatRegistry registry;
    StatGroup lazy("lazy");
    Counter &booked = lazy.counter("booked");
    uint64_t pending = 0;
    lazy.setSync([&booked, &pending] {
        booked += pending;
        pending = 0;
    });
    StatGroup plain("plain");
    plain.counter("hits") += 5;
    obs::ScopedStatRegistration r1(lazy, registry);
    obs::ScopedStatRegistration r2(plain, registry);

    pending = 1;
    EXPECT_EQ(lazy.value("booked"), 1u);
    pending = 1;
    EXPECT_EQ(lazy.counters().at("booked").value(), 2u);
    pending = 1;
    std::ostringstream dump;
    lazy.dump(dump);
    EXPECT_EQ(dump.str(), "lazy.booked 3\n");

    pending = 1;
    EXPECT_EQ(registry.value("lazy.booked"), 4u);
    pending = 1;
    EXPECT_EQ(registry.snapshot().value("lazy.booked"), 5u);
    pending = 1;
    std::ostringstream json;
    registry.exportJson(json);
    std::string error;
    auto doc = obs::parseJson(json.str(), &error);
    ASSERT_TRUE(doc) << error;
    EXPECT_EQ(doc->findPath("groups.lazy.counters.booked")->asNumber(),
              6.0);
    pending = 1;
    std::ostringstream csv;
    registry.exportCsv(csv);
    EXPECT_NE(csv.str().find("lazy,booked,7\n"), std::string::npos);
    pending = 1;
    std::ostringstream text;
    registry.dumpText(text);
    EXPECT_NE(text.str().find("lazy.booked 8\n"), std::string::npos);

    // A group without a sync reads and exports as before.
    EXPECT_EQ(plain.value("hits"), 5u);
    EXPECT_EQ(doc->findPath("groups.plain.counters.hits")->asNumber(),
              5.0);
    EXPECT_NE(csv.str().find("plain,hits,5\n"), std::string::npos);
    EXPECT_NE(text.str().find("plain.hits 5\n"), std::string::npos);

    // reset() and resetAll() book the pending value before zeroing,
    // so none of it survives into the next read.
    pending = 3;
    lazy.reset();
    EXPECT_EQ(pending, 0u);
    EXPECT_EQ(lazy.value("booked"), 0u);
    pending = 3;
    registry.resetAll();
    EXPECT_EQ(pending, 0u);
    EXPECT_EQ(lazy.value("booked"), 0u);
    EXPECT_EQ(plain.value("hits"), 0u);

    // An empty function removes the sync.
    lazy.setSync({});
    pending = 4;
    EXPECT_EQ(lazy.value("booked"), 0u);
    lazy.reset();
    EXPECT_EQ(pending, 4u);
}

TEST(StatRegistry, GlobalSeesEveryMemoryComponent)
{
    const size_t before = obs::StatRegistry::current().size();
    {
        SimConfig config;
        EventQueue events;
        MemorySystem mem(config, events);

        // MemorySystem registers itself, two caches, two MSHR files
        // and the DRAM model.
        EXPECT_GE(obs::StatRegistry::current().size(), before + 6);
        for (const char *name :
             {"mem", "l1d", "l2", "l1dMshrs", "l2Mshrs", "dram"}) {
            EXPECT_NE(obs::StatRegistry::current().find(name), nullptr)
                << name;
        }

        ++mem.stats().counter("demandFills");
        std::ostringstream os;
        obs::StatRegistry::current().exportJson(os);
        std::string error;
        auto doc = obs::parseJson(os.str(), &error);
        ASSERT_TRUE(doc) << error;
        for (const char *name :
             {"mem", "l1d", "l2", "l1dMshrs", "l2Mshrs", "dram"}) {
            EXPECT_TRUE(doc->findPath("groups")->find(name)) << name;
        }
        EXPECT_EQ(
            doc->findPath("groups.mem.counters.demandFills")->asNumber(),
            1.0);
    }
    // Destruction deregisters everything again.
    EXPECT_EQ(obs::StatRegistry::current().size(), before);
}

} // namespace
} // namespace grp
