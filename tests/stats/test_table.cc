/**
 * @file
 * TablePrinter tests.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "stats/table.hh"

namespace
{

TEST(Table, AlignedOutput)
{
    stats::TablePrinter t({"name", "value"});
    t.addRow({"short", "1"});
    t.addRow({"a-much-longer-name", "2"});

    std::ostringstream os;
    t.print(os);
    const std::string out = os.str();

    EXPECT_NE(out.find("name"), std::string::npos);
    EXPECT_NE(out.find("a-much-longer-name"), std::string::npos);
    // Separator line present.
    EXPECT_NE(out.find("---"), std::string::npos);
}

TEST(Table, ShortRowsPadded)
{
    stats::TablePrinter t({"a", "b", "c"});
    t.addRow({"only-one"});
    std::ostringstream os;
    t.print(os);
    SUCCEED(); // must not crash on missing cells
}

TEST(Table, NumFormatting)
{
    EXPECT_EQ(stats::TablePrinter::num(3.14159, 2), "3.14");
    EXPECT_EQ(stats::TablePrinter::num(10.0, 0), "10");
    EXPECT_EQ(stats::TablePrinter::num(-1.5, 1), "-1.5");
}

} // anonymous namespace
