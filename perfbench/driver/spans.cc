/**
 * @file
 * Span recorder implementation.
 */

#include "spans.hh"

#include <stdexcept>

#include "metrics.hh"

namespace perfbench
{

void
SpanRecorder::close(int id)
{
    if (!on)
        return;
    if (stack.empty() || stack.back() != id)
        throw std::logic_error("span closed out of order");
    all[static_cast<std::size_t>(id)].endNs = nowNs();
    stack.pop_back();
}

std::vector<std::int64_t>
selfTimes(const std::vector<Span> &spans)
{
    std::vector<std::int64_t> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        self[i] += spans[i].duration();
        if (spans[i].parent >= 0)
            self[static_cast<std::size_t>(spans[i].parent)] -=
                spans[i].duration();
    }
    return self;
}

void
SpanRecorder::writeJson(std::ostream &os,
                        const std::vector<std::string> &counterNames) const
{
    const auto self = selfTimes(all);
    const std::int64_t epoch = all.empty() ? 0 : all.front().startNs;
    os << "{\"spans\": [\n";
    for (std::size_t i = 0; i < all.size(); ++i) {
        const Span &s = all[i];
        os << "  {\"id\": " << i << ", \"name\": \"" << s.name
           << "\", \"parent\": " << s.parent
           << ", \"start_ns\": " << (s.startNs - epoch)
           << ", \"end_ns\": " << (s.endNs - epoch)
           << ", \"self_ns\": " << self[i];
        if (!s.counters.empty()) {
            os << ", \"counters\": {";
            for (std::size_t c = 0;
                 c < s.counters.size() && c < counterNames.size(); ++c) {
                os << (c ? ", " : "") << "\"" << counterNames[c]
                   << "\": " << formatNumber(s.counters[c]);
            }
            os << "}";
        }
        os << "}" << (i + 1 < all.size() ? "," : "") << "\n";
    }
    os << "]}\n";
}

} // namespace perfbench
