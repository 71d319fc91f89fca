/**
 * @file
 * The JSON reader's contract on corrupt input: every malformed
 * document is an error, never a crash. Numbers follow the JSON
 * grammar exactly, and nesting is capped far above what the writers
 * emit.
 */

#include <gtest/gtest.h>

#include <string>

#include "obs/json_reader.hh"

namespace grp
{
namespace
{

TEST(JsonReader, ParsesTheNumberGrammar)
{
    const struct
    {
        const char *text;
        double value;
    } good[] = {
        {"0", 0.0},      {"-0", 0.0},         {"7", 7.0},
        {"-12", -12.0},  {"1.5", 1.5},        {"0.25", 0.25},
        {"1e3", 1000.0}, {"2E-2", 0.02},      {"-3.5e+2", -350.0},
        {"18446744073709551615", 18446744073709551615.0},
    };
    for (const auto &[text, value] : good) {
        std::string error;
        const auto doc = obs::parseJson(text, &error);
        ASSERT_TRUE(doc) << text << ": " << error;
        ASSERT_TRUE(doc->isNumber()) << text;
        EXPECT_EQ(doc->asNumber(), value) << text;
    }
}

TEST(JsonReader, RejectsNumbersOutsideTheGrammar)
{
    // strtod takes every one of these; JSON takes none.
    for (const char *text :
         {"nan", "-nan", "NaN", "inf", "-inf", "infinity", "0x10", "+1",
          "01", "-01", "1.", ".5", "-", "1e", "1e+", "--1", "1.e3",
          "0x1p3"}) {
        std::string error;
        EXPECT_EQ(obs::parseJson(text, &error), nullptr) << text;
        EXPECT_FALSE(error.empty()) << text;
        const std::string member = std::string("{\"seq\":") + text + "}";
        EXPECT_EQ(obs::parseJson(member), nullptr) << member;
    }
}

TEST(JsonReader, DeepNestingIsAnErrorNotACrash)
{
    for (const char open : {'[', '{'}) {
        std::string text;
        for (int i = 0; i < 200'000; ++i)
            text += open == '[' ? "[" : "{\"a\":";
        std::string error;
        EXPECT_EQ(obs::parseJson(text, &error), nullptr) << open;
        EXPECT_NE(error.find("nesting"), std::string::npos) << error;
    }

    // The cap sits far above the writers' five levels.
    std::string nested = "0";
    for (int i = 0; i < 32; ++i)
        nested = "{\"a\":[" + nested + "]}";
    EXPECT_NE(obs::parseJson(nested), nullptr);
}

} // namespace
} // namespace grp
