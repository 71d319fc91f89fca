/** @file Unit tests for the shared numeric env-knob and flag parser. */

#include <gtest/gtest.h>

#include <cstdlib>
#include <stdexcept>
#include <string>

#include "sim/env.hh"
#include "sim/logging.hh"

namespace grp
{
namespace
{

constexpr const char *kVar = "GRP_TEST_ENV_INT";

class EnvIntTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        setQuiet(true);
        unsetenv(kVar);
    }

    void TearDown() override { unsetenv(kVar); }
};

TEST_F(EnvIntTest, UnsetAndEmptyReturnFallback)
{
    EXPECT_EQ(envInt(kVar, 42), 42u);
    setenv(kVar, "", 1);
    EXPECT_EQ(envInt(kVar, 42), 42u);
}

TEST_F(EnvIntTest, ParsesPlainDecimals)
{
    setenv(kVar, "0", 1);
    EXPECT_EQ(envInt(kVar, 42), 0u);
    setenv(kVar, "200000000", 1);
    EXPECT_EQ(envInt(kVar, 42), 200'000'000u);
    setenv(kVar, "18446744073709551615", 1); // UINT64_MAX
    EXPECT_EQ(envInt(kVar, 42), ~0ull);
}

TEST_F(EnvIntTest, RejectsNonNumericText)
{
    for (const char *bad : {"nonsense", "20k", "1e6", "4x", "1 "}) {
        setenv(kVar, bad, 1);
        EXPECT_THROW(envInt(kVar, 42), std::runtime_error)
            << "accepted '" << bad << "'";
    }
}

TEST_F(EnvIntTest, RejectsSignsAndWhitespace)
{
    for (const char *bad : {"-5", "-0", "+7", " 7", "7 "}) {
        setenv(kVar, bad, 1);
        EXPECT_THROW(envInt(kVar, 42), std::runtime_error)
            << "accepted '" << bad << "'";
    }
}

TEST_F(EnvIntTest, RejectsOverflow)
{
    setenv(kVar, "18446744073709551616", 1); // UINT64_MAX + 1
    EXPECT_THROW(envInt(kVar, 42), std::runtime_error);
    setenv(kVar, "99999999999999999999999999", 1);
    EXPECT_THROW(envInt(kVar, 42), std::runtime_error);
}

TEST_F(EnvIntTest, DiagnosticNamesTheVariable)
{
    setenv(kVar, "bogus", 1);
    try {
        envInt(kVar, 42);
        FAIL() << "expected fatal";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find(kVar), std::string::npos)
            << e.what();
        EXPECT_NE(std::string(e.what()).find("bogus"),
                  std::string::npos)
            << e.what();
    }
}

// The rule envInt applies, called directly the way the command-line
// tools call it for their numeric flags.
TEST(ParseUint, AcceptsPlainDecimalsUpToTheMax)
{
    EXPECT_EQ(parseUint("--n", "0"), 0u);
    EXPECT_EQ(parseUint("--n", "007"), 7u);
    EXPECT_EQ(parseUint("--n", "18446744073709551615"), ~0ull);
    EXPECT_EQ(parseUint("--n", "100", 100), 100u);
}

TEST(ParseUint, RejectsMalformedText)
{
    setQuiet(true);
    for (const char *bad :
         {"", "-1", "+1", "-0", " 7", "7 ", "\t7", "7\n", "abc", "4x",
          "20k", "1e6", "0x10", "1.5", "18446744073709551616",
          "99999999999999999999999999"}) {
        EXPECT_THROW(parseUint("--n", bad), std::runtime_error)
            << "accepted '" << bad << "'";
    }
}

TEST(ParseUint, RejectsValuesAboveTheMax)
{
    setQuiet(true);
    EXPECT_THROW(parseUint("--n", "101", 100), std::runtime_error);
    EXPECT_THROW(parseUint("--n", "2147483648", 2147483647),
                 std::runtime_error);
}

TEST(ParseUint, DiagnosticNamesTheFlag)
{
    setQuiet(true);
    try {
        parseUint("--instructions", "abc");
        FAIL() << "expected fatal";
    } catch (const std::runtime_error &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("--instructions"), std::string::npos)
            << what;
        EXPECT_NE(what.find("abc"), std::string::npos) << what;
    }
}

} // namespace
} // namespace grp
