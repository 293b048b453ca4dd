/** @file Unit tests for trace CSV load/save round-tripping. */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "workload/mooncake_trace.h"
#include "workload/trace_io.h"

namespace shiftpar::workload {
namespace {

class TraceIoTest : public ::testing::Test
{
  protected:
    // Each test gets its own directory: ctest runs tests in parallel
    // processes from the same working directory, so a shared path would
    // race between one test's writes and another's teardown.
    std::string
    test_dir() const
    {
        const auto* info =
            ::testing::UnitTest::GetInstance()->current_test_info();
        return std::string("trace_test_tmp_") + info->name();
    }

    void TearDown() override
    {
        std::filesystem::remove_all(test_dir());
    }

    std::string
    write_file(const std::string& content)
    {
        std::filesystem::create_directories(test_dir());
        const std::string path = test_dir() + "/trace.csv";
        std::ofstream(path) << content;
        return path;
    }
};

TEST_F(TraceIoTest, LoadBasicTrace)
{
    const auto path = write_file(
        "arrival_s,prompt_tokens,output_tokens\n"
        "0.5,4096,250\n"
        "1.25,128,16\n");
    const auto reqs = load_trace(path);
    ASSERT_EQ(reqs.size(), 2u);
    EXPECT_DOUBLE_EQ(reqs[0].arrival, 0.5);
    EXPECT_EQ(reqs[0].prompt_tokens, 4096);
    EXPECT_EQ(reqs[1].output_tokens, 16);
}

TEST_F(TraceIoTest, LoadSortsByArrival)
{
    const auto path = write_file(
        "arrival_s,prompt_tokens,output_tokens\n"
        "9.0,10,1\n"
        "1.0,20,1\n"
        "5.0,30,1\n");
    const auto reqs = load_trace(path);
    ASSERT_EQ(reqs.size(), 3u);
    EXPECT_EQ(reqs[0].prompt_tokens, 20);
    EXPECT_EQ(reqs[2].prompt_tokens, 10);
}

TEST_F(TraceIoTest, SkipsBlankLines)
{
    const auto path = write_file(
        "arrival_s,prompt_tokens,output_tokens\n"
        "\n"
        "1.0,10,2\n"
        "\n");
    EXPECT_EQ(load_trace(path).size(), 1u);
}

TEST_F(TraceIoTest, MissingFileIsFatal)
{
    EXPECT_DEATH(load_trace(test_dir() + "/nope.csv"), "cannot open");
}

TEST_F(TraceIoTest, BadHeaderIsFatal)
{
    const auto path = write_file("time,in,out\n1,2,3\n");
    EXPECT_DEATH(load_trace(path), "expected header");
}

TEST_F(TraceIoTest, WrongArityIsFatal)
{
    const auto path = write_file(
        "arrival_s,prompt_tokens,output_tokens\n"
        "1.0,10\n");
    EXPECT_DEATH(load_trace(path), "expected 3 fields");
}

TEST_F(TraceIoTest, NonNumericIsFatal)
{
    const auto path = write_file(
        "arrival_s,prompt_tokens,output_tokens\n"
        "abc,10,2\n");
    EXPECT_DEATH(load_trace(path), "bad number");
}

TEST_F(TraceIoTest, InvalidRequestIsFatal)
{
    const auto path = write_file(
        "arrival_s,prompt_tokens,output_tokens\n"
        "1.0,0,5\n");
    EXPECT_DEATH(load_trace(path), "invalid request");
}

TEST_F(TraceIoTest, JunkAndNonFiniteNumbersAreFatal)
{
    // Each field is parsed whole and must be finite: a nan arrival would
    // slip past `arrival < 0`, and a non-finite token count cannot be
    // converted to an integer at all.
    for (const char* row : {"nan,10,2\n", "inf,10,2\n", "1.0,12abc,2\n",
                            "1.0,10,nan\n", "1.0,inf,2\n",
                            "1.0x,10,2\n"}) {
        const auto path =
            write_file(std::string("arrival_s,prompt_tokens,output_tokens\n") +
                       row);
        EXPECT_DEATH(load_trace(path), "bad number") << row;
    }
}

TEST_F(TraceIoTest, TokensMustBeWholeAndInRange)
{
    for (const char* row : {"1.0,2.5,2\n", "1.0,10,0.5\n", "1.0,1e30,2\n",
                            "1.0,10,-1e30\n", "1.0,9223372036854775808,2\n"}) {
        const auto path =
            write_file(std::string("arrival_s,prompt_tokens,output_tokens\n") +
                       row);
        EXPECT_DEATH(load_trace(path), "invalid request") << row;
    }
}

TEST_F(TraceIoTest, WholeTokensAndTrailingWhitespaceLoad)
{
    const auto path = write_file(
        "arrival_s,prompt_tokens,output_tokens\n"
        "0.5,1e3,2.0\r\n"
        "1.0,9223372036854774784,1\n");
    const auto reqs = load_trace(path);
    ASSERT_EQ(reqs.size(), 2u);
    EXPECT_EQ(reqs[0].prompt_tokens, 1000);
    EXPECT_EQ(reqs[0].output_tokens, 2);
    EXPECT_EQ(reqs[1].prompt_tokens, 9223372036854774784);
}

TEST_F(TraceIoTest, SaveLoadRoundTrip)
{
    Rng rng(5);
    MooncakeTraceOptions opts;
    opts.duration = 30.0;
    const auto original = mooncake_conversation_trace(rng, opts);
    ASSERT_FALSE(original.empty());

    const std::string path = test_dir() + "/roundtrip.csv";
    save_trace(path, original);
    const auto loaded = load_trace(path);
    ASSERT_EQ(loaded.size(), original.size());
    for (std::size_t i = 0; i < loaded.size(); ++i) {
        EXPECT_NEAR(loaded[i].arrival, original[i].arrival, 1e-5);
        EXPECT_EQ(loaded[i].prompt_tokens, original[i].prompt_tokens);
        EXPECT_EQ(loaded[i].output_tokens, original[i].output_tokens);
    }
}

} // namespace
} // namespace shiftpar::workload
