/** @file Unit tests for configuration validation and helpers. */

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "sim/config.hh"
#include "sim/logging.hh"

namespace grp
{
namespace
{

class ConfigTest : public ::testing::Test
{
  protected:
    void SetUp() override { setQuiet(true); }
    SimConfig config;
};

TEST_F(ConfigTest, DefaultsMatchPaperParameters)
{
    EXPECT_EQ(config.l1d.sizeBytes, 64u * 1024);
    EXPECT_EQ(config.l1d.assoc, 2u);
    EXPECT_EQ(config.l1d.latency, 3u);
    EXPECT_EQ(config.l2.sizeBytes, 1024u * 1024);
    EXPECT_EQ(config.l2.assoc, 4u);
    EXPECT_EQ(config.l2.latency, 12u);
    EXPECT_EQ(config.l1d.mshrs, 8u);
    EXPECT_EQ(config.l2.mshrs, 8u);
    EXPECT_EQ(config.dram.channels, 4u);
    EXPECT_EQ(config.cpu.issueWidth, 4u);
    EXPECT_EQ(config.cpu.robEntries, 64u);
    EXPECT_EQ(config.region.queueEntries, 32u);
    EXPECT_TRUE(config.region.lifo);
    EXPECT_EQ(config.region.recursiveDepth, 6u);
    EXPECT_EQ(config.region.blocksPerPointer, 2u);
    EXPECT_EQ(config.region.indirectFanout, 16u);
    EXPECT_EQ(config.stride.tableEntries, 1024u);
    EXPECT_EQ(config.stride.tableAssoc, 4u);
    EXPECT_EQ(config.stride.streamBuffers, 8u);
    EXPECT_EQ(config.stride.bufferEntries, 8u);
    EXPECT_NO_THROW(config.validate());
}

TEST_F(ConfigTest, RejectsNonPowerOfTwoCache)
{
    config.l2.sizeBytes = 1000 * 1000;
    EXPECT_THROW(config.validate(), std::runtime_error);
}

TEST_F(ConfigTest, RejectsZeroAssoc)
{
    config.l1d.assoc = 0;
    EXPECT_THROW(config.validate(), std::runtime_error);
}

TEST_F(ConfigTest, RejectsL2SmallerThanL1)
{
    config.l2.sizeBytes = 32 * 1024;
    EXPECT_THROW(config.validate(), std::runtime_error);
}

TEST_F(ConfigTest, RejectsZeroMshrs)
{
    config.l2.mshrs = 0;
    EXPECT_THROW(config.validate(), std::runtime_error);
}

/** The message validate() throws for @p config; empty if it passes. */
std::string
rejection(const SimConfig &config)
{
    try {
        config.validate();
    } catch (const std::runtime_error &error) {
        return error.what();
    }
    return "";
}

TEST_F(ConfigTest, RejectsZeroMshrTargets)
{
    // A miss whose target cannot be recorded never completes.
    SimConfig l1 = config;
    l1.l1d.mshrTargets = 0;
    EXPECT_NE(rejection(l1).find("L1D mshrTargets"), std::string::npos);
    SimConfig l2 = config;
    l2.l2.mshrTargets = 0;
    EXPECT_NE(rejection(l2).find("L2 mshrTargets"), std::string::npos);
    config.l1d.mshrTargets = 1;
    config.l2.mshrTargets = 1;
    EXPECT_NO_THROW(config.validate());
}

TEST_F(ConfigTest, RejectsPointerWindowOutsideARegion)
{
    // A pointer fill prefetches 1..kBlocksPerRegion blocks.
    for (const unsigned blocks : {0u, kBlocksPerRegion + 1, 1000u}) {
        config.region.blocksPerPointer = blocks;
        EXPECT_NE(rejection(config).find("region.blocksPerPointer"),
                  std::string::npos)
            << blocks;
    }
    for (const unsigned blocks : {1u, 3u, kBlocksPerRegion}) {
        config.region.blocksPerPointer = blocks;
        EXPECT_NO_THROW(config.validate()) << blocks;
    }
}

TEST_F(ConfigTest, RejectsBadChannelCount)
{
    config.dram.channels = 3;
    EXPECT_THROW(config.validate(), std::runtime_error);
}

TEST_F(ConfigTest, RejectsOverlongRecursion)
{
    config.region.recursiveDepth = 8; // 3-bit counter.
    EXPECT_THROW(config.validate(), std::runtime_error);
}

TEST_F(ConfigTest, RejectsBadStrideTableShape)
{
    config.stride.tableEntries = 10;
    config.stride.tableAssoc = 4;
    EXPECT_THROW(config.validate(), std::runtime_error);
}

TEST_F(ConfigTest, RejectsUnreachableStrideThreshold)
{
    // The two-bit confidence counter saturates at 3, so a higher
    // threshold would never start a stream.
    config.stride.trainThreshold = 4;
    EXPECT_NE(rejection(config).find("stride.trainThreshold"),
              std::string::npos);
    for (const unsigned threshold : {0u, 1u, 3u}) {
        config.stride.trainThreshold = threshold;
        EXPECT_NO_THROW(config.validate()) << threshold;
    }
}

TEST_F(ConfigTest, SchemePredicates)
{
    config.scheme = PrefetchScheme::None;
    EXPECT_FALSE(config.usesHints());
    EXPECT_FALSE(config.usesRegions());
    EXPECT_FALSE(config.usesPointerScan());

    config.scheme = PrefetchScheme::Srp;
    EXPECT_FALSE(config.usesHints());
    EXPECT_TRUE(config.usesRegions());
    EXPECT_FALSE(config.usesPointerScan());

    config.scheme = PrefetchScheme::GrpVar;
    EXPECT_TRUE(config.usesHints());
    EXPECT_TRUE(config.usesRegions());
    EXPECT_TRUE(config.usesPointerScan());

    config.scheme = PrefetchScheme::PointerHw;
    EXPECT_FALSE(config.usesRegions());
    EXPECT_TRUE(config.usesPointerScan());

    config.scheme = PrefetchScheme::SrpPlusPointer;
    EXPECT_TRUE(config.usesRegions());
    EXPECT_TRUE(config.usesPointerScan());
}

TEST_F(ConfigTest, ToStringNames)
{
    EXPECT_STREQ(toString(PrefetchScheme::Srp), "srp");
    EXPECT_STREQ(toString(PrefetchScheme::GrpFix), "grp-fix");
    EXPECT_STREQ(toString(Perfection::PerfectL2), "perfect-l2");
    EXPECT_STREQ(toString(CompilerPolicy::Aggressive), "aggressive");
}

} // namespace
} // namespace grp
