/**
 * @file
 * Series / CSV tests.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "stats/series.hh"

namespace
{

TEST(Series, AppendAndAccess)
{
    stats::Series s("mlcWB");
    EXPECT_TRUE(s.empty());
    s.append(10 * sim::oneUs, 1.5);
    s.append(20 * sim::oneUs, 2.5);
    ASSERT_EQ(s.size(), 2u);
    EXPECT_EQ(s.points()[0].when, 10 * sim::oneUs);
    EXPECT_DOUBLE_EQ(s.points()[1].value, 2.5);
}

TEST(Series, PeakMeanSum)
{
    stats::Series s("x");
    s.append(1, 1.0);
    s.append(2, 5.0);
    s.append(3, 3.0);
    EXPECT_DOUBLE_EQ(s.peak(), 5.0);
    EXPECT_DOUBLE_EQ(s.mean(), 3.0);
    EXPECT_DOUBLE_EQ(s.sum(), 9.0);
}

TEST(Series, EmptyAggregates)
{
    stats::Series s("x");
    EXPECT_DOUBLE_EQ(s.peak(), 0.0);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.sum(), 0.0);
}

TEST(SeriesCsv, HeaderAndRows)
{
    stats::Series a("alpha"), b("beta");
    a.append(10 * sim::oneUs, 1.0);
    a.append(20 * sim::oneUs, 2.0);
    b.append(10 * sim::oneUs, 3.0);

    std::ostringstream os;
    stats::writeCsv(os, {&a, &b});
    const std::string out = os.str();

    EXPECT_NE(out.find("time_us,alpha,beta"), std::string::npos);
    EXPECT_NE(out.find("10,1,3"), std::string::npos);
    // beta has no point at t=20; cell is blank.
    EXPECT_NE(out.find("20,2,"), std::string::npos);
}

TEST(SeriesCsv, MergesUnalignedTimeAxes)
{
    stats::Series a("a"), b("b");
    a.append(1 * sim::oneUs, 1.0);
    b.append(2 * sim::oneUs, 2.0);

    std::ostringstream os;
    stats::writeCsv(os, {&a, &b});
    const std::string out = os.str();

    // Two data rows plus the header.
    int lines = 0;
    for (char c : out)
        lines += (c == '\n');
    EXPECT_EQ(lines, 3);
}

} // anonymous namespace
