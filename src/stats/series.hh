/**
 * @file
 * Time series containers for figure reproduction.
 *
 * The paper's timeline figures (Figs. 5, 9, 11, 13) plot event *rates*
 * sampled at 10 us intervals. A Series stores (tick, value) points; the
 * rate-from-counter computation lives in harness::TimelineRecorder,
 * which owns the periodic sampling events.
 */

#ifndef IDIO_STATS_SERIES_HH
#define IDIO_STATS_SERIES_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace stats
{

/** One sampled point of a time series. */
struct SeriesPoint
{
    sim::Tick when;
    double value;
};

/**
 * A named sequence of sampled points.
 */
class Series
{
  public:
    explicit Series(std::string name = "") : _name(std::move(name)) {}

    /** Series label used in CSV headers. */
    const std::string &name() const { return _name; }

    /** Append one point; points must arrive in time order. */
    void
    append(sim::Tick when, double value)
    {
        pts.push_back(SeriesPoint{when, value});
    }

    /** All points. */
    const std::vector<SeriesPoint> &points() const { return pts; }

    /** Number of points. */
    std::size_t size() const { return pts.size(); }

    bool empty() const { return pts.empty(); }

    /** Largest sampled value (0 when empty). */
    double peak() const;

    /** Arithmetic mean of sampled values (0 when empty). */
    double mean() const;

    /** Sum of sampled values. */
    double sum() const;

  private:
    std::string _name;
    std::vector<SeriesPoint> pts;
};

/**
 * Write a set of series sharing a time axis as CSV:
 * time_us,name1,name2,... Missing points are left blank.
 */
void writeCsv(std::ostream &os, const std::vector<const Series *> &series);

} // namespace stats

#endif // IDIO_STATS_SERIES_HH
