/**
 * @file
 * Trace-file round trips: writer/reader symmetry, comments, malformed
 * records, and rewind.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "workloads/trace_file.hpp"

namespace dice
{
namespace
{

class TraceFileTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        // Unique per test and process: ctest -j runs the cases as
        // parallel processes sharing one temp directory.
        const auto *info =
            ::testing::UnitTest::GetInstance()->current_test_info();
        path_ = ::testing::TempDir() + "dice_trace_test." + info->name() +
                "." + std::to_string(::getpid()) + ".txt";
    }

    void TearDown() override { std::remove(path_.c_str()); }

    std::string path_;
};

TEST_F(TraceFileTest, RoundTripPreservesEveryField)
{
    const WorkloadProfile prof = profileByName("soplex");
    TraceGenerator gen(prof, 4096, 100000, 42);

    std::vector<MemRef> refs;
    {
        TraceFileWriter writer(path_);
        writer.comment("synthetic soplex slice");
        for (int i = 0; i < 2000; ++i) {
            const MemRef ref = gen.next();
            refs.push_back(ref);
            writer.append(ref);
        }
        EXPECT_EQ(writer.written(), 2000u);
    }

    TraceFileReader reader(path_);
    MemRef ref;
    for (const MemRef &expect : refs) {
        ASSERT_TRUE(reader.next(ref));
        EXPECT_EQ(ref.line, expect.line);
        EXPECT_EQ(ref.is_write, expect.is_write);
        EXPECT_EQ(ref.gap_instr, expect.gap_instr);
        EXPECT_EQ(ref.pc, expect.pc);
    }
    EXPECT_FALSE(reader.next(ref));
    EXPECT_EQ(reader.consumed(), 2000u);
}

TEST_F(TraceFileTest, RewindRestartsTheStream)
{
    {
        TraceFileWriter writer(path_);
        writer.append(MemRef{0xABC, true, 7, 0x400100});
        writer.append(MemRef{0xDEF, false, 9, 0x400200});
    }
    TraceFileReader reader(path_);
    MemRef a, b;
    ASSERT_TRUE(reader.next(a));
    ASSERT_TRUE(reader.next(b));
    ASSERT_FALSE(reader.next(a));
    reader.rewind();
    ASSERT_TRUE(reader.next(a));
    EXPECT_EQ(a.line, 0xABCu);
    EXPECT_TRUE(a.is_write);
    EXPECT_EQ(a.gap_instr, 7u);
    EXPECT_EQ(a.pc, 0x400100u);
}

TEST_F(TraceFileTest, SkipsCommentsAndMalformedLines)
{
    {
        std::ofstream out(path_);
        out << "# header\n";
        out << "R 10 5 400\n";
        out << "garbage line that is not a record\n";
        out << "X 11 5 400\n"; // bad kind
        out << "\n";
        out << "W 12 6 500\n";
    }
    TraceFileReader reader(path_);
    MemRef ref;
    ASSERT_TRUE(reader.next(ref));
    EXPECT_EQ(ref.line, 0x10u);
    EXPECT_FALSE(ref.is_write);
    ASSERT_TRUE(reader.next(ref));
    EXPECT_EQ(ref.line, 0x12u);
    EXPECT_TRUE(ref.is_write);
    EXPECT_FALSE(reader.next(ref));
    EXPECT_EQ(reader.consumed(), 2u);
}

} // namespace
} // namespace dice
