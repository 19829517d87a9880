/**
 * @file
 * TablePrinter implementation.
 */

#include "table.hh"

#include <algorithm>
#include <cstdio>

namespace stats
{

TablePrinter::TablePrinter(std::vector<std::string> header)
    : header(std::move(header))
{
}

void
TablePrinter::addRow(std::vector<std::string> row)
{
    row.resize(header.size());
    rows.push_back(std::move(row));
}

std::string
TablePrinter::num(double v, int precision)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
    return buf;
}

void
TablePrinter::print(std::ostream &os) const
{
    std::vector<std::size_t> widths(header.size());
    for (std::size_t i = 0; i < header.size(); ++i)
        widths[i] = header[i].size();
    for (const auto &row : rows) {
        for (std::size_t i = 0; i < row.size(); ++i)
            widths[i] = std::max(widths[i], row[i].size());
    }

    auto printRow = [&](const std::vector<std::string> &row) {
        for (std::size_t i = 0; i < row.size(); ++i) {
            os << row[i];
            for (std::size_t p = row[i].size(); p < widths[i] + 2; ++p)
                os << ' ';
        }
        os << "\n";
    };

    printRow(header);
    std::size_t total = 0;
    for (auto w : widths)
        total += w + 2;
    os << std::string(total, '-') << "\n";
    for (const auto &row : rows)
        printRow(row);
}

} // namespace stats
