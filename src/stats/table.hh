/**
 * @file
 * Minimal ASCII table formatting for benchmark/figure output.
 *
 * Every bench binary prints the rows of the paper table/figure it
 * reproduces; TablePrinter keeps that output aligned and greppable.
 */

#ifndef IDIO_STATS_TABLE_HH
#define IDIO_STATS_TABLE_HH

#include <ostream>
#include <string>
#include <vector>

namespace stats
{

/**
 * Accumulates rows of string cells and prints them with aligned columns.
 */
class TablePrinter
{
  public:
    /** @param header Column titles. */
    explicit TablePrinter(std::vector<std::string> header);

    /** Append a full row; must match the header width. */
    void addRow(std::vector<std::string> row);

    /** Format a double with the given precision. */
    static std::string num(double v, int precision = 3);

    /** Write the table to @p os. */
    void print(std::ostream &os) const;

  private:
    std::vector<std::string> header;
    std::vector<std::vector<std::string>> rows;
};

} // namespace stats

#endif // IDIO_STATS_TABLE_HH
