/**
 * @file
 * JSON export of the statistics registry.
 *
 * Machine-readable companion to Registry::dump(): emits one JSON
 * object per stat group so external tooling (plotting scripts, CI
 * regression checks) can consume simulation results without parsing
 * the human-oriented table output.
 */

#ifndef IDIO_STATS_JSON_HH
#define IDIO_STATS_JSON_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "stats/registry.hh"
#include "stats/series.hh"

namespace stats
{

/** Escape a string for embedding in a JSON document. */
std::string jsonEscape(const std::string &s);

/**
 * Minimal streaming JSON writer for bench result files.
 *
 * Produces compact, valid JSON with automatic comma management; the
 * caller is responsible for nesting begin/end calls correctly (an
 * unbalanced document is a programming error and asserts). Used by the
 * run report writer (harness/run_report.cc: the benches' `--json=FILE`
 * files and the trace totals sidecar) and the Chrome trace exporter.
 */
class JsonWriter
{
  public:
    explicit JsonWriter(std::ostream &out) : os(out) {}
    ~JsonWriter();

    /** @{ Containers. Keyed forms are for use inside an object. */
    void beginObject();
    void beginObject(const std::string &key);
    void beginArray();
    void beginArray(const std::string &key);
    void end(); ///< close the innermost object or array
    /** @} */

    /** @{ Key/value fields (inside an object). */
    void field(const std::string &key, std::uint64_t v);
    void field(const std::string &key, std::int64_t v);
    void field(const std::string &key, int v);
    void field(const std::string &key, unsigned v);
    void field(const std::string &key, double v);
    void field(const std::string &key, bool v);
    void field(const std::string &key, const std::string &v);
    void field(const std::string &key, const char *v);

    /**
     * Emit @p rawJson verbatim as the value of @p key. For values the
     * typed overloads cannot express exactly (e.g.\ fixed-point
     * decimals wider than double's %.9g round-trip, used by the trace
     * exporter for tick-accurate microsecond timestamps). The caller
     * guarantees @p rawJson is a valid JSON value.
     */
    void fieldRaw(const std::string &key, const std::string &rawJson);
    /** @} */

    /** @{ Bare values (inside an array). */
    void value(std::uint64_t v);
    void value(double v);
    void value(const std::string &v);
    /** @} */

  private:
    void comma();
    void key(const std::string &k);
    void open(char opener, char closer);

    /** One open container: its closing bracket and comma state. */
    struct Level
    {
        char closer;
        bool needComma;
    };

    std::ostream &os;
    std::vector<Level> levels;
};

/**
 * Write the whole registry as a JSON object:
 * {"groups": {"<group>": {"<stat>": value, ...}, ...}}
 */
void writeJson(std::ostream &os, const Registry &registry);

/**
 * Write a set of time series as JSON:
 * {"series": {"<name>": [[time_us, value], ...], ...}}
 */
void writeJson(std::ostream &os,
               const std::vector<const Series *> &series);

} // namespace stats

#endif // IDIO_STATS_JSON_HH
