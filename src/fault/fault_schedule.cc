#include "fault/fault_schedule.h"

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cstdlib>
#include <limits>
#include <map>
#include <set>

#include "util/logging.h"
#include "util/rng.h"

namespace shiftpar::fault {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/** Split `s` on `sep`, dropping empty pieces. */
std::vector<std::string>
split(const std::string& s, char sep)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    while (start <= s.size()) {
        const std::size_t end = s.find(sep, start);
        const std::string piece =
            s.substr(start, end == std::string::npos ? end : end - start);
        if (!piece.empty())
            out.push_back(piece);
        if (end == std::string::npos)
            break;
        start = end + 1;
    }
    return out;
}

/** Strip leading/trailing whitespace. */
std::string
trim(const std::string& s)
{
    const std::size_t first = s.find_first_not_of(" \t\n\r");
    if (first == std::string::npos)
        return "";
    const std::size_t last = s.find_last_not_of(" \t\n\r");
    return s.substr(first, last - first + 1);
}

/** Key=value pairs of one clause body; fatal() on a pair without '='. */
std::map<std::string, std::string>
parse_pairs(const std::string& label, const std::string& body)
{
    std::map<std::string, std::string> pairs;
    for (const std::string& item : split(body, ',')) {
        const std::size_t eq = item.find('=');
        if (eq == std::string::npos || eq == 0 || eq + 1 >= item.size()) {
            fatal("fault spec: malformed key=value token '" + item +
                  "' in clause " + label);
        }
        const std::string key = item.substr(0, eq);
        if (!pairs.emplace(key, item.substr(eq + 1)).second) {
            fatal("fault spec: duplicate key '" + key + "' in clause " +
                  label);
        }
    }
    return pairs;
}

/** A clause's parsed keys with checked typed extraction. */
class Keys
{
  public:
    Keys(std::string clause, std::map<std::string, std::string> pairs)
        : clause_(std::move(clause)), pairs_(std::move(pairs))
    {
    }

    bool has(const std::string& key) const { return pairs_.count(key) > 0; }

    double
    number(const std::string& key)
    {
        const std::string& value = raw(key);
        errno = 0;
        char* end = nullptr;
        const double v = std::strtod(value.c_str(), &end);
        if (end == value.c_str() || *end != '\0' || errno == ERANGE) {
            fatal("fault spec: key '" + key + "' expects a number, got '" +
                  value + "' in clause " + clause_);
        }
        return v;
    }

    double
    number_at_least(const std::string& key, double min)
    {
        const double v = number(key);
        if (!(v >= min)) {
            fatal("fault spec: key '" + key + "' must be >= " +
                  std::to_string(min) + ", got '" + raw(key) +
                  "' in clause " + clause_);
        }
        return v;
    }

    int
    index(const std::string& key)
    {
        const double v = number(key);
        // Range-check before the cast: converting an out-of-range double
        // (or NaN, for which the check is false) to int is undefined.
        if (!(v >= 0 && v <= INT_MAX) ||
            static_cast<double>(static_cast<int>(v)) != v) {
            fatal("fault spec: key '" + key +
                  "' expects a non-negative integer, got '" + raw(key) +
                  "' in clause " + clause_);
        }
        return static_cast<int>(v);
    }

    std::uint64_t
    seed(const std::string& key)
    {
        const std::string& value = raw(key);
        errno = 0;
        char* end = nullptr;
        const unsigned long long v =
            std::strtoull(value.c_str(), &end, 10);
        if (end == value.c_str() || *end != '\0' || errno == ERANGE) {
            fatal("fault spec: key '" + key + "' expects an integer, got '" +
                  value + "' in clause " + clause_);
        }
        return v;
    }

    /** All keys consumed? fatal() naming the first leftover otherwise. */
    void
    finish() const
    {
        for (const auto& [key, value] : pairs_) {
            if (!used_.count(key)) {
                fatal("fault spec: unknown key '" + key + "' in clause " +
                      clause_);
            }
        }
    }

  private:
    const std::string&
    raw(const std::string& key)
    {
        const auto it = pairs_.find(key);
        if (it == pairs_.end()) {
            fatal("fault spec: clause " + clause_ + " needs key '" + key +
                  "'");
        }
        used_.insert(key);
        return it->second;
    }

    std::string clause_;
    std::map<std::string, std::string> pairs_;
    std::set<std::string> used_;
};

} // namespace

FaultSchedule
parse_fault_spec(const std::string& spec)
{
    FaultSchedule schedule;
    // Clauses are numbered by their 1-based position in the raw spec —
    // including blank ones — so an error in "a;;b" points at clause 3.
    std::size_t position = 0;
    std::size_t start = 0;
    std::vector<std::pair<std::size_t, std::string>> clauses;
    while (start <= spec.size()) {
        const std::size_t end = spec.find(';', start);
        const std::string piece = trim(spec.substr(
            start, end == std::string::npos ? end : end - start));
        ++position;
        // Blank clauses (trailing ';', doubled separators, whitespace)
        // are tolerated and skipped.
        if (!piece.empty())
            clauses.emplace_back(position, piece);
        if (end == std::string::npos)
            break;
        start = end + 1;
    }
    for (const auto& [index, clause] : clauses) {
        // Errors name the clause by index and text, so a typo in a long
        // multi-clause spec is findable: "in clause 3 ('fail:at=5')".
        const std::string label =
            std::to_string(index) + " ('" + clause + "')";
        const std::size_t colon = clause.find(':');
        if (colon == std::string::npos) {
            fatal("fault spec: clause " + label +
                  " is missing its 'kind:' prefix");
        }
        const std::string kind = clause.substr(0, colon);
        Keys keys(label, parse_pairs(label, clause.substr(colon + 1)));

        if (kind == "fail") {
            FaultEvent ev;
            ev.kind = FaultKind::kFail;
            ev.engine = keys.index("engine");
            ev.at = keys.number_at_least("at", 0.0);
            ev.recover_at = keys.has("recover")
                                ? keys.number_at_least("recover", 0.0)
                                : kInf;
            if (ev.recover_at <= ev.at) {
                fatal("fault spec: recover= must be after at= in clause " +
                      label);
            }
            keys.finish();
            schedule.events.push_back(ev);
        } else if (kind == "straggle") {
            FaultEvent ev;
            ev.kind = FaultKind::kStraggle;
            ev.engine = keys.index("engine");
            ev.at = keys.number_at_least("at", 0.0);
            ev.recover_at = keys.number_at_least("until", 0.0);
            if (ev.recover_at <= ev.at) {
                fatal("fault spec: until= must be after at= in clause " +
                      label);
            }
            ev.factor = keys.number("slow");
            if (!(ev.factor > 1.0)) {
                fatal("fault spec: slowdown factor must be > 1 in clause " +
                      label);
            }
            keys.finish();
            schedule.events.push_back(ev);
        } else if (kind == "drain") {
            FaultEvent ev;
            ev.kind = FaultKind::kDrain;
            ev.engine = keys.index("engine");
            ev.at = keys.number_at_least("at", 0.0);
            ev.recover_at = keys.has("resume")
                                ? keys.number_at_least("resume", 0.0)
                                : kInf;
            if (ev.recover_at <= ev.at) {
                fatal("fault spec: resume= must be after at= in clause " +
                      label);
            }
            keys.finish();
            schedule.events.push_back(ev);
        } else if (kind == "mtbf") {
            MtbfSpec m;
            m.mean = keys.number("mean");
            m.mttr = keys.number("mttr");
            m.duration = keys.number("duration");
            if (keys.has("seed"))
                m.seed = keys.seed("seed");
            if (!(m.mean > 0.0) || !(m.mttr > 0.0) || !(m.duration > 0.0)) {
                fatal("fault spec: mtbf clause needs positive mean=, mttr=, "
                      "and duration= in clause " + label);
            }
            keys.finish();
            schedule.mtbf.push_back(m);
        } else {
            fatal("fault spec: unknown clause kind '" + kind +
                  "' in clause " + label +
                  " (expected fail/straggle/drain/mtbf)");
        }
    }
    return schedule;
}

std::vector<FaultEvent>
FaultSchedule::materialize(int num_engines) const
{
    SP_ASSERT(num_engines > 0);
    std::vector<FaultEvent> out = events;
    for (const FaultEvent& ev : out) {
        if (ev.engine < 0 || ev.engine >= num_engines) {
            fatal("fault spec: engine " + std::to_string(ev.engine) +
                  " is outside the deployment (" +
                  std::to_string(num_engines) + " engines)");
        }
    }

    // Stochastic clauses: one decorrelated stream per (clause, engine),
    // derived from the clause seed alone — independent of thread count,
    // sweep order, or any other schedule content.
    for (const MtbfSpec& m : mtbf) {
        for (int e = 0; e < num_engines; ++e) {
            Rng rng(m.seed ^
                    (0x9E3779B97F4A7C15ULL * static_cast<std::uint64_t>(
                                                e + 1)));
            double t = rng.exponential(1.0 / m.mean);
            while (t < m.duration) {
                FaultEvent ev;
                ev.kind = FaultKind::kFail;
                ev.engine = e;
                ev.at = t;
                ev.recover_at = t + m.mttr;
                out.push_back(ev);
                t = ev.recover_at + rng.exponential(1.0 / m.mean);
            }
        }
    }

    std::stable_sort(out.begin(), out.end(),
                     [](const FaultEvent& a, const FaultEvent& b) {
                         return a.at < b.at;
                     });
    return out;
}

} // namespace shiftpar::fault
