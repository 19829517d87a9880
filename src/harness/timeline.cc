/**
 * @file
 * TimelineRecorder implementation.
 */

#include "timeline.hh"

#include "sim/logging.hh"

namespace harness
{

TimelineRecorder::TimelineRecorder(sim::Simulation &simulation,
                                   sim::Tick interval)
    : simRef(simulation), period(interval),
      mtpsScale(1.0 / (sim::ticksToSeconds(interval) * 1e6)),
      event(simulation.eventq(), interval, [this] { sample(); },
            "timeline.sample")
{
}

void
TimelineRecorder::trackRate(const std::string &name,
                            std::function<std::uint64_t()> counter)
{
    auto t = std::make_unique<Track>();
    t->series = stats::Series(name);
    t->counter = std::move(counter);
    t->last = t->counter();
    tracks.push_back(std::move(t));
}

void
TimelineRecorder::start()
{
    event.start();
}

void
TimelineRecorder::sample()
{
    // A tracked counter may be one a sleeping core's skipped steps
    // still owe.
    simRef.eventq().syncSleepers();
    const sim::Tick when = simRef.now();
    for (auto &t : tracks) {
        const std::uint64_t cur = t->counter();
        const double rate = static_cast<double>(cur - t->last) * mtpsScale;
        t->last = cur;
        t->series.append(when, rate);
    }
}

const stats::Series &
TimelineRecorder::series(const std::string &name) const
{
    for (const auto &t : tracks) {
        if (t->series.name() == name)
            return t->series;
    }
    sim::fatal("unknown timeline series '%s'", name.c_str());
}

std::vector<const stats::Series *>
TimelineRecorder::all() const
{
    std::vector<const stats::Series *> out;
    out.reserve(tracks.size());
    for (const auto &t : tracks)
        out.push_back(&t->series);
    return out;
}

} // namespace harness
