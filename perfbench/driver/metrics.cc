/**
 * @file
 * Metric helpers.
 */

#include "metrics.hh"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <sstream>

namespace perfbench
{

namespace
{

bool
isAlnum(char c)
{
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
}

} // anonymous namespace

bool
validMetricName(const std::string &name)
{
    if (name.empty() || name.size() > 64 || !isAlnum(name[0]))
        return false;
    return std::all_of(name.begin(), name.end(), [](char c) {
        return isAlnum(c) || c == '_' || c == '.' || c == '-';
    });
}

bool
validUnit(const std::string &unit)
{
    if (unit.empty() || unit.size() > 16)
        return false;
    return std::all_of(unit.begin(), unit.end(), [](char c) {
        return isAlnum(c) || c == '_' || c == '/' || c == '%' ||
               c == '.' || c == '-';
    });
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

std::uint64_t
nearestRank(const std::vector<std::uint64_t> &sorted, double pct)
{
    if (sorted.empty())
        return 0;
    const double rank =
        std::ceil(pct / 100.0 * static_cast<double>(sorted.size()));
    const std::size_t idx =
        rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
    return sorted[std::min(idx, sorted.size() - 1)];
}

double
tailPercentile(std::size_t n)
{
    for (double p : {99.0, 98.0, 95.0, 90.0}) {
        if (static_cast<double>(n) * (100.0 - p) / 100.0 >= 10.0)
            return p;
    }
    return 50.0;
}

std::string
formatNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[64];
    const auto r = std::to_chars(buf, buf + sizeof(buf), v);
    return std::string(buf, r.ptr);
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

std::string
resultLine(bool correct, std::uint64_t attempted, std::uint64_t failed,
           const std::vector<Metric> &metrics)
{
    std::ostringstream os;
    os << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const Metric &m = metrics[i];
        os << (i ? ", " : "") << jsonString(m.name)
           << ": {\"value\": " << formatNumber(m.value)
           << ", \"unit\": " << jsonString(m.unit) << "}";
    }
    os << "}}";
    return os.str();
}

std::uint64_t
fnv1a(const std::string &bytes, std::uint64_t h)
{
    for (unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

} // namespace perfbench
