/** @file Unit tests for the DRAM timing model. */

#include <gtest/gtest.h>

#include <set>

#include "mem/dram.hh"
#include "sim/logging.hh"

namespace grp
{
namespace
{

class DramTest : public ::testing::Test
{
  protected:
    void SetUp() override { setQuiet(true); }
    DramConfig config; // Defaults: 4 ch, 16 banks, 2 KB rows.
};

TEST_F(DramTest, BlocksInterleaveAcrossChannels)
{
    DramSystem dram(config);
    for (unsigned i = 0; i < 16; ++i) {
        const Addr addr = static_cast<Addr>(i) << kBlockShift;
        EXPECT_EQ(dram.channelOf(addr), i % 4);
    }
}

TEST_F(DramTest, ConsecutiveChannelBlocksShareARow)
{
    DramSystem dram(config);
    // Blocks 0 and 4 are consecutive on channel 0.
    EXPECT_EQ(dram.channelOf(0), dram.channelOf(4 << kBlockShift));
    EXPECT_EQ(dram.rowOf(0), dram.rowOf(4 << kBlockShift));
    EXPECT_EQ(dram.bankOf(0), dram.bankOf(4 << kBlockShift));
}

TEST_F(DramTest, RowConflictThenRowHitTiming)
{
    DramSystem dram(config);
    const Addr addr = 0x40; // Channel 1.
    const Tick first = dram.serve(addr, 0);
    EXPECT_EQ(first, config.rowConflictCycles + config.transferCycles);
    // Same row, later: row hit.
    const Tick busy_until = config.transferCycles;
    const Tick second = dram.serve(addr + 4 * kBlockBytes, busy_until);
    EXPECT_EQ(second, busy_until + config.rowHitCycles +
                          config.transferCycles);
    EXPECT_EQ(dram.stats().value("rowHits"), 1u);
    EXPECT_EQ(dram.stats().value("rowConflicts"), 1u);
}

TEST_F(DramTest, ChannelOccupiedOnlyForTransfer)
{
    DramSystem dram(config);
    dram.serve(0x40, 0);
    EXPECT_FALSE(dram.channelIdle(1, config.transferCycles - 1));
    EXPECT_TRUE(dram.channelIdle(1, config.transferCycles));
    // Other channels stay idle throughout.
    EXPECT_TRUE(dram.channelIdle(0, 0));
    EXPECT_TRUE(dram.channelIdle(2, 0));
}

TEST_F(DramTest, ServingBusyChannelPanics)
{
    DramSystem dram(config);
    dram.serve(0x40, 0);
    EXPECT_THROW(dram.serve(0x40 + 4 * kBlockBytes, 1),
                 std::logic_error);
}

TEST_F(DramTest, RowOpenTracking)
{
    DramSystem dram(config);
    EXPECT_FALSE(dram.rowOpen(0x40));
    dram.serve(0x40, 0);
    EXPECT_TRUE(dram.rowOpen(0x40));
    EXPECT_TRUE(dram.rowOpen(0x40 + 4 * kBlockBytes)); // Same row.
    // A different row in the same bank closes the old one.
    const Addr same_bank_other_row =
        0x40 + static_cast<Addr>(config.rowBytes) *
                   config.banksPerChannel * 4;
    ASSERT_EQ(dram.channelOf(same_bank_other_row), 1u);
    ASSERT_EQ(dram.bankOf(same_bank_other_row), dram.bankOf(0x40));
    dram.serve(same_bank_other_row, 1000);
    EXPECT_FALSE(dram.rowOpen(0x40));
}

TEST_F(DramTest, BanksPartitionTheChannel)
{
    DramSystem dram(config);
    std::set<unsigned> banks;
    // Walk one channel at row granularity: banks should cycle.
    for (unsigned i = 0; i < config.banksPerChannel; ++i) {
        const Addr addr =
            static_cast<Addr>(config.rowBytes) * 4 * i;
        ASSERT_EQ(dram.channelOf(addr), 0u);
        banks.insert(dram.bankOf(addr));
    }
    EXPECT_EQ(banks.size(), config.banksPerChannel);
}

TEST_F(DramTest, TransferCounting)
{
    DramSystem dram(config);
    dram.serve(0x0, 0);
    dram.serve(0x40, 0);
    EXPECT_EQ(dram.transfersServed(), 2u);
    dram.reset();
    EXPECT_EQ(dram.transfersServed(), 0u);
    EXPECT_TRUE(dram.channelIdle(0, 0));
    EXPECT_FALSE(dram.rowOpen(0x0));
}

/** Satellite: mixed demand/prefetch/writeback load — every accounted
 *  cycle lands in exactly one class bucket, so the per-channel
 *  breakdown sums to the channel's total by construction. */
TEST_F(DramTest, ChannelCycleBreakdownSumsToTotal)
{
    DramSystem dram(config);
    // Channel 0: demand; channel 1: prefetch; channel 2: writeback;
    // channel 3 stays idle.
    dram.serve(0x0, 0, ReqClass::Demand);
    dram.serve(0x40, 0, ReqClass::Prefetch, 3,
               obs::HintClass::Stride);
    dram.serve(0x80, 0, ReqClass::Writeback);

    // Mid-transfer: every accounted cycle so far is busy.
    dram.accountTo(10);
    EXPECT_EQ(dram.channelCycles(0).demand, 10u);
    EXPECT_EQ(dram.channelCycles(1).prefetch, 10u);
    EXPECT_EQ(dram.channelCycles(2).writeback, 10u);
    EXPECT_EQ(dram.channelCycles(3).idle, 10u);
    EXPECT_EQ(dram.channelCycles(0).idle, 0u);

    // Five cycles after the bus drains.
    const Tick busy = config.transferCycles;
    const Tick end = busy + 5;
    dram.accountTo(end);
    const DramSystem::ChannelCycles c0 = dram.channelCycles(0);
    const DramSystem::ChannelCycles c1 = dram.channelCycles(1);
    const DramSystem::ChannelCycles c2 = dram.channelCycles(2);
    const DramSystem::ChannelCycles c3 = dram.channelCycles(3);
    EXPECT_EQ(c0.demand, busy);
    EXPECT_EQ(c1.prefetch, busy);
    EXPECT_EQ(c2.writeback, busy);
    EXPECT_EQ(c3.idle, end);
    EXPECT_EQ(c0.idle, 5u);
    for (unsigned ch = 0; ch < config.channels; ++ch) {
        const DramSystem::ChannelCycles c = dram.channelCycles(ch);
        EXPECT_EQ(c.total(), end) << "channel " << ch;
        EXPECT_EQ(c.total(),
                  dram.stats().value("ch" + std::to_string(ch) +
                                     "Cycles"))
            << "channel " << ch;
    }
    // Aggregates mirror the per-channel sums.
    EXPECT_EQ(dram.stats().value("contentionDemandCycles"), busy);
    EXPECT_EQ(dram.stats().value("contentionPrefetchCycles"), busy);
    EXPECT_EQ(dram.stats().value("contentionWritebackCycles"), busy);
    EXPECT_EQ(dram.stats().value("contentionIdleCycles"),
              end + 3 * 5);
}

TEST_F(DramTest, DemandStallAccumulatesWaitingRequests)
{
    DramSystem dram(config);
    const auto stall = [&dram] {
        return dram.stats().value("contentionDemandStallCycles");
    };
    // Two demands wait for channel 1 from tick 0; a prefetch occupies
    // it from tick 2.
    dram.setWaitingDemands(1, 2, 0);
    dram.serve(0x40, 2, ReqClass::Prefetch, 7, obs::HintClass::Spatial);
    dram.accountTo(5);
    EXPECT_EQ(stall(), 2u * 3);
    // A third demand arrives at tick 5.
    dram.setWaitingDemands(1, 3, 5);
    dram.accountTo(7);
    EXPECT_EQ(stall(), 2u * 3 + 3 * 2);
    dram.stats().reset();
    EXPECT_EQ(stall(), 0u);
    // Booking carries on from the reset, and stops with the transfer.
    dram.accountTo(8);
    EXPECT_EQ(stall(), 3u);
    const Tick end = 2 + config.transferCycles;
    dram.accountTo(end + 10);
    EXPECT_EQ(stall(), 3u * (end - 7));
    // Demands waiting behind a demand transfer are not contention.
    dram.serve(0x0, end + 10, ReqClass::Demand);
    dram.setWaitingDemands(0, 4, end + 10);
    dram.accountTo(end + 20);
    EXPECT_EQ(stall(), 3u * (end - 7));
    EXPECT_EQ(dram.channelCycles(0).demand, 10u);
}

/** Region streaming property: the 64 blocks of a region land evenly
 *  on the 4 channels with 16 blocks per channel, all in one row. */
TEST_F(DramTest, RegionStreamsAcrossAllChannels)
{
    DramSystem dram(config);
    unsigned per_channel[4] = {};
    std::set<uint64_t> rows;
    for (unsigned i = 0; i < kBlocksPerRegion; ++i) {
        const Addr addr = static_cast<Addr>(i) << kBlockShift;
        ++per_channel[dram.channelOf(addr)];
        rows.insert(dram.rowOf(addr));
    }
    for (unsigned ch = 0; ch < 4; ++ch)
        EXPECT_EQ(per_channel[ch], kBlocksPerRegion / 4);
    EXPECT_EQ(rows.size(), 1u);
}

} // namespace
} // namespace grp
