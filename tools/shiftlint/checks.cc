/**
 * @file
 * The built-in shiftlint checks. Each corresponds to a bug class that has
 * either occurred in this repo or would silently break the determinism
 * guard (byte-identical regenerated CSVs) or the accounting invariant
 * (submitted == completed + lost + shed) if introduced.
 */

#include "check.h"

#include <algorithm>
#include <map>
#include <set>
#include <unordered_set>

namespace shiftpar::lint {

namespace {

Finding
make_finding(const char* check, const SourceFile& f, const Token& tok,
             std::string message)
{
    Finding out;
    out.check = check;
    out.path = f.path;
    out.line = tok.line;
    out.col = tok.col;
    out.message = std::move(message);
    return out;
}

bool
is_member_access(const std::vector<Token>& toks, std::size_t i)
{
    return i > 0 && (toks[i - 1].text == "." || toks[i - 1].text == "->");
}

bool
path_contains(const std::string& path, const std::string& part)
{
    return path.find(part) != std::string::npos;
}

/**
 * Check 1: nondeterminism sources.
 *
 * The simulator's claims rest on replays being a pure function of
 * (config, seed). Wall clocks, the libc RNG, environment lookups outside
 * `util/`, and containers ordered by pointer value all leak host state
 * into results. `system_clock`/`high_resolution_clock` get a mechanical
 * --fix to `steady_clock` (the monotonic clock is fine for measuring
 * host-side durations; it never feeds simulated time).
 */
class NondetSourceCheck final : public Check
{
  public:
    const char*
    name() const override
    {
        return "nondet-source";
    }

    const char*
    description() const override
    {
        return "bans rand()/random_device/wall clocks/getenv (outside "
               "util/) and pointer-keyed map/set keys";
    }

    void
    run(const LintContext& ctx, std::vector<Finding>& out) const override
    {
        const Corpus& corpus = ctx.corpus;
        for (const auto& f : corpus.files) {
            const auto& toks = f.tokens;
            for (std::size_t i = 0; i < toks.size(); ++i) {
                if (toks[i].kind != TokKind::kIdent)
                    continue;
                const std::string& t = toks[i].text;
                const bool call_next =
                    i + 1 < toks.size() && toks[i + 1].text == "(";

                if ((t == "rand" || t == "srand") && call_next &&
                    !is_member_access(toks, i)) {
                    out.push_back(make_finding(
                        name(), f, toks[i],
                        t + "() draws from global libc state; use a "
                            "seeded util::Rng stream instead"));
                } else if (t == "random_device") {
                    out.push_back(make_finding(
                        name(), f, toks[i],
                        "std::random_device is host entropy; derive "
                        "streams from the run seed (util::Rng) instead"));
                } else if (t == "system_clock" ||
                           t == "high_resolution_clock") {
                    auto fd = make_finding(
                        name(), f, toks[i],
                        "std::chrono::" + t +
                            " reads the wall clock; use steady_clock for "
                            "host-side durations (simulated time comes "
                            "from the cluster clock)");
                    fd.fix = FixEdit{toks[i].offset,
                                     toks[i].offset + t.size(),
                                     "steady_clock"};
                    out.push_back(std::move(fd));
                } else if ((t == "time" || t == "clock" ||
                            t == "localtime" || t == "gmtime") &&
                           call_next && !is_member_access(toks, i)) {
                    out.push_back(make_finding(
                        name(), f, toks[i],
                        t + "() reads host time; results must be a pure "
                            "function of (config, seed)"));
                } else if (t == "getenv" &&
                           !path_contains(f.path, "util/")) {
                    out.push_back(make_finding(
                        name(), f, toks[i],
                        "getenv outside util/ lets the environment alter "
                        "results; route host knobs through util (e.g. "
                        "logging) or argparse"));
                } else if ((t == "map" || t == "set" || t == "multimap" ||
                            t == "multiset") &&
                           i > 0 && toks[i - 1].text == "::" &&
                           i + 1 < toks.size() &&
                           toks[i + 1].text == "<") {
                    if (pointer_key(toks, i + 1)) {
                        out.push_back(make_finding(
                            name(), f, toks[i],
                            "std::" + t +
                                " keyed on a pointer iterates in "
                                "address order, which differs per run; "
                                "key on a stable id instead"));
                    }
                }
            }
        }
    }

  private:
    /** @return true when the first template argument after `open`
     *  (tokens[open] == "<") contains a '*' at argument depth. */
    static bool
    pointer_key(const std::vector<Token>& toks, std::size_t open)
    {
        int depth = 0;
        for (std::size_t i = open; i < toks.size(); ++i) {
            const std::string& t = toks[i].text;
            if (t == "<")
                ++depth;
            else if (t == ">")
                --depth;
            else if (t == ">>")
                depth -= 2;
            else if (t == ";" || t == "{")
                return false;
            if (depth <= 0)
                return false;  // template list closed: single argument
            if (depth == 1 && t == ",")
                return false;  // end of the key argument
            if (t == "*")
                return true;
        }
        return false;
    }
};

/**
 * Check 2: iteration-order leaks into emitters.
 *
 * Iterating an unordered container is fine for order-independent
 * reductions, but inside a function that also writes to a TraceSink,
 * ReportJson, CSV, or histogram the iteration order can reach a committed
 * artifact. This is the bug class the determinism guard exists to catch —
 * shiftlint catches it before a sweep runs. Order-independent uses carry
 * an `unordered-emit` allow-comment stating why the order cannot leak.
 */
class UnorderedEmitCheck final : public Check
{
  public:
    const char*
    name() const override
    {
        return "unordered-emit";
    }

    const char*
    description() const override
    {
        return "flags unordered_map/set iteration inside functions that "
               "emit to trace/report/CSV/histogram sinks";
    }

    void
    run(const LintContext& ctx, std::vector<Finding>& out) const override
    {
        const Corpus& corpus = ctx.corpus;
        static const std::unordered_set<std::string> kEmitIdents = {
            "on_request",      "on_step",        "on_mode_switch",
            "on_gauge",        "on_fault",       "on_instant",
            "add_run",         "add_row",        "CsvWriter",
            "JsonWriter",      "counter_add",    "gauge_max",
            "observe",         "write_prometheus",
            "publish_request", "set_metrics",
        };

        for (const auto& fn : corpus.functions) {
            const auto& toks = fn.file->tokens;

            bool emits = false;
            for (std::size_t i = fn.body_begin; i <= fn.body_end; ++i)
                if (toks[i].kind == TokKind::kIdent &&
                    kEmitIdents.count(toks[i].text)) {
                    emits = true;
                    break;
                }
            if (!emits)
                continue;

            // Range-fors over a known-unordered range expression.
            for (std::size_t i = fn.body_begin; i < fn.body_end; ++i) {
                if (toks[i].text != "for" || toks[i + 1].text != "(")
                    continue;
                // Locate the ':' separating declaration from range.
                int depth = 0;
                std::size_t colon = 0, close = 0;
                for (std::size_t j = i + 1; j <= fn.body_end; ++j) {
                    if (toks[j].text == "(")
                        ++depth;
                    else if (toks[j].text == ")" && --depth == 0) {
                        close = j;
                        break;
                    } else if (toks[j].text == ":" && depth == 1 &&
                               colon == 0) {
                        colon = j;
                    }
                }
                if (colon == 0 || close == 0)
                    continue;  // classic for loop
                for (std::size_t j = colon + 1; j < close; ++j) {
                    if (toks[j].kind != TokKind::kIdent)
                        continue;
                    if (corpus.unordered_names.count(toks[j].text) ||
                        toks[j].text.rfind("unordered_", 0) == 0) {
                        out.push_back(make_finding(
                            name(), *fn.file, toks[i],
                            "function '" + fn.qualified +
                                "' iterates unordered container '" +
                                toks[j].text +
                                "' and emits to a sink; hash order can "
                                "leak into reported output — iterate a "
                                "sorted view or make the use provably "
                                "order-independent"));
                        break;
                    }
                }
            }
        }
    }
};

/**
 * Check 3: trace-span balance (whole-corpus).
 *
 * Paired trace emissions (straggle start/end, drain start/end, and any
 * kBeginX/kEndX convention) must both be emitted *somewhere in the
 * linted corpus* — a begin whose end exists nowhere renders as an
 * unterminated span and breaks span-based analysis. Pairing is resolved
 * corpus-wide, not per TU: a span legitimately opened in `router.cc` and
 * closed in `scheduler.cc` (the drain pair's shape) is checked, not
 * flagged. (kFail/kRecover is deliberately not a pair: permanent
 * fail-stop is a legal final state.)
 */
class TraceSpanBalanceCheck final : public Check
{
  public:
    const char*
    name() const override
    {
        return "trace-span-balance";
    }

    const char*
    description() const override
    {
        return "paired trace emissions (k*Start/k*End, kBegin*/kEnd*) "
               "must both appear somewhere in the corpus (cross-TU "
               "pairs resolve)";
    }

    void
    run(const LintContext& ctx, std::vector<Finding>& out) const override
    {
        const Corpus& corpus = ctx.corpus;
        static const std::pair<const char*, const char*> kPairs[] = {
            {"kStraggleStart", "kStraggleEnd"},
            {"kDrainStart", "kDrainEnd"},
        };

        const auto is_impl = [](const std::string& path) {
            // Headers declare the enumerators (both halves, next to each
            // other) without emitting.
            for (const char* suffix : {".cc", ".cpp", ".cxx"}) {
                const std::string s = suffix;
                if (path.size() >= s.size() &&
                    path.compare(path.size() - s.size(), s.size(), s) ==
                        0)
                    return true;
            }
            return false;
        };

        // Pass 1: every identifier emitted by any implementation file —
        // the corpus-wide resolution set for span ends.
        std::set<std::string> corpus_present;
        for (const auto& f : corpus.files) {
            if (!is_impl(f.path))
                continue;
            for (const auto& tok : f.tokens)
                if (tok.kind == TokKind::kIdent)
                    corpus_present.insert(tok.text);
        }

        // Pass 2: report each TU's first use of a begin whose end exists
        // nowhere in the corpus.
        for (const auto& f : corpus.files) {
            if (!is_impl(f.path))
                continue;

            std::map<std::string, const Token*> first_use;
            std::set<std::string> present;
            for (const auto& tok : f.tokens) {
                if (tok.kind != TokKind::kIdent)
                    continue;
                if (present.insert(tok.text).second)
                    first_use[tok.text] = &tok;
            }

            const auto require = [&](const std::string& begin,
                                     const std::string& end) {
                if (present.count(begin) && !corpus_present.count(end)) {
                    out.push_back(make_finding(
                        name(), f, *first_use[begin],
                        "emits '" + begin + "' but '" + end +
                            "' is never emitted anywhere in the linted "
                            "corpus; a begin without its end leaves an "
                            "unterminated trace span on some control "
                            "path"));
                }
            };

            for (const auto& [b, e] : kPairs)
                require(b, e);
            // Generic convention: kBeginX pairs with kEndX.
            for (const auto& id : present) {
                if (id.rfind("kBegin", 0) == 0 && id.size() > 6)
                    require(id, "kEnd" + id.substr(6));
            }
        }
    }
};

/**
 * Check 4: struct/serializer drift.
 *
 * The accounting structs are only trustworthy if every field survives
 * both aggregation and serialization: a counter added to `FaultStats`
 * but not to the registry export (`Router::export_counters`) silently
 * vanishes from every downstream analysis. Each watched struct's fields must appear in each of its
 * coverage functions (one level of same-file call delegation is
 * followed, so `Metrics::merge` delegating to `add_record`/`merge_steps`
 * counts).
 */
class StructSerializerDriftCheck final : public Check
{
  public:
    const char*
    name() const override
    {
        return "struct-serializer-drift";
    }

    const char*
    description() const override
    {
        return "every field of the accounting structs must appear in "
               "their merge and serializer functions";
    }

    void
    run(const LintContext& ctx, std::vector<Finding>& out) const override
    {
        const Corpus& corpus = ctx.corpus;
        struct Watch
        {
            const char* struct_name;
            const char* file_hint;  ///< path substring of the definition
            std::vector<const char*> functions;
            bool underscore_fields_only;  ///< classes: data members only
        };
        static const Watch kWatched[] = {
            {"FaultStats", "fault/fault_schedule.h",
             {"Router::export_counters"}, false},
            {"Run", "obs/report_json.h", {"ReportJson::write"}, false},
            {"LatencySummary", "obs/report_json.h",
             {"ReportJson::write"}, false},
            {"Metrics", "engine/metrics.h", {"Metrics::merge"}, true},
            {"KernelClassFit", "calibrate/calibrate.h",
             {"write_calibration_report"}, false},
            {"CalibrationReport", "calibrate/calibrate.h",
             {"write_calibration_report"}, false},
        };

        for (const auto& w : kWatched) {
            const StructDef* sd = nullptr;
            for (const auto& cand : corpus.structs) {
                if (cand.name == w.struct_name &&
                    cand.file->path.find(w.file_hint) !=
                        std::string::npos) {
                    sd = &cand;
                    break;
                }
            }
            if (sd == nullptr)
                continue;  // struct not in the scanned set
            for (const char* fname : w.functions) {
                const auto fns = corpus.find_functions(fname);
                if (fns.empty())
                    continue;  // writer not in the scanned set
                std::set<std::string> covered;
                for (const auto* fn : fns)
                    collect_idents(corpus, *fn, covered, 1);
                for (const auto& field : sd->fields) {
                    if (w.underscore_fields_only &&
                        (field.empty() || field.back() != '_'))
                        continue;
                    if (covered.count(field))
                        continue;
                    Finding fd;
                    fd.check = name();
                    fd.path = sd->file->path;
                    fd.line = sd->line;
                    fd.col = 1;
                    fd.message = "field '" + field + "' of " +
                                 w.struct_name +
                                 " never appears in " + fname +
                                 " (or its direct callees): the field "
                                 "is dropped on " +
                                 (std::string(fname).find("merge") !=
                                          std::string::npos
                                      ? "aggregation"
                                      : "serialization");
                    out.push_back(std::move(fd));
                }
            }
        }
    }

  private:
    /** Collect identifiers in `fn`'s body, following same-file calls
     *  `depth` more levels (handles merge-by-delegation). */
    static void
    collect_idents(const Corpus& corpus, const FunctionDef& fn,
                   std::set<std::string>& out, int depth)
    {
        const auto& toks = fn.file->tokens;
        for (std::size_t i = fn.body_begin; i <= fn.body_end; ++i) {
            if (toks[i].kind != TokKind::kIdent)
                continue;
            out.insert(toks[i].text);
            if (depth > 0 && i + 1 <= fn.body_end &&
                toks[i + 1].text == "(") {
                for (const auto& callee : corpus.functions) {
                    if (callee.file == fn.file &&
                        callee.name == toks[i].text &&
                        callee.body_begin != fn.body_begin)
                        collect_idents(corpus, callee, out, depth - 1);
                }
            }
        }
    }
};

/**
 * Check 5: sim-core contract.
 *
 * (a) `Component::advance_to` runs *inside* the cluster loop; mutating
 * the cluster from there (posting/cancelling events, registering
 * components, installing hooks, or poking the ready index via
 * `notify_ready` / `notify_ready_changed`) re-enters the queue
 * mid-decision and breaks determinism rule 4. State changes belong in
 * posted events or the progress hook; the loop republishes the advanced
 * component's ready time itself.
 *
 * (b) Closures given to `post()` fire after arbitrary intervening
 * mutation; a captured container iterator is invalidated by then.
 * Capture keys/ids and re-look-up at fire time.
 */
class SimContractCheck final : public Check
{
  public:
    const char*
    name() const override
    {
        return "sim-contract";
    }

    const char*
    description() const override
    {
        return "advance_to must not mutate the Cluster; post() closures "
               "must not capture container iterators";
    }

    void
    run(const LintContext& ctx, std::vector<Finding>& out) const override
    {
        const Corpus& corpus = ctx.corpus;
        static const std::unordered_set<std::string> kClusterMutators = {
            "post", "cancel_event",   "add",
            "run",  "set_progress_hook", "notify_ready",
        };
        static const std::unordered_set<std::string> kIterSources = {
            "begin", "end",  "rbegin", "rend",        "cbegin",
            "cend",  "find", "lower_bound", "upper_bound",
        };

        for (const auto& fn : corpus.functions) {
            const auto& toks = fn.file->tokens;

            // (a) Cluster mutation from advance_to.
            if (fn.name == "advance_to") {
                for (std::size_t i = fn.body_begin; i + 2 < fn.body_end;
                     ++i) {
                    const std::string& t = toks[i].text;
                    if (toks[i].kind != TokKind::kIdent)
                        continue;
                    // Self-notification from inside the grant: the loop
                    // republishes the component's new time itself after
                    // advance_to returns; notifying mid-grant re-enters
                    // the ready index while its entry is detached.
                    if (t == "notify_ready_changed" &&
                        toks[i + 1].text == "(" &&
                        (i == fn.body_begin ||
                         (toks[i - 1].text != "." &&
                          toks[i - 1].text != "->" &&
                          toks[i - 1].text != "::"))) {
                        out.push_back(make_finding(
                            name(), *fn.file, toks[i],
                            "'" + fn.qualified + "' calls "
                            "notify_ready_changed() during advance_to: "
                            "the cluster republishes the component's "
                            "ready time after the grant returns"));
                        continue;
                    }
                    const bool cluster_ref = t == "cluster" ||
                                             t == "cluster_";
                    if (!cluster_ref)
                        continue;
                    if (toks[i + 1].text != "." &&
                        toks[i + 1].text != "->")
                        continue;
                    if (kClusterMutators.count(toks[i + 2].text)) {
                        out.push_back(make_finding(
                            name(), *fn.file, toks[i],
                            "'" + fn.qualified + "' calls " + t +
                                (toks[i + 1].text == "." ? "." : "->") +
                                toks[i + 2].text +
                                "() during advance_to: components must "
                                "not mutate the cluster mid-grant (post "
                                "from an event or the progress hook)"));
                    }
                }
            }

            // (b) Iterators captured by post() closures.
            std::set<std::string> iter_vars;
            for (std::size_t i = fn.body_begin; i + 2 < fn.body_end;
                 ++i) {
                // `<ident> = ... .find( | .begin( | ...` before the next
                // ';' marks <ident> as an iterator variable.
                if (toks[i].kind != TokKind::kIdent ||
                    toks[i + 1].text != "=")
                    continue;
                for (std::size_t j = i + 2;
                     j + 1 < fn.body_end && toks[j].text != ";"; ++j) {
                    if ((toks[j].text == "." || toks[j].text == "->") &&
                        toks[j + 1].kind == TokKind::kIdent &&
                        kIterSources.count(toks[j + 1].text) &&
                        j + 2 < fn.body_end &&
                        toks[j + 2].text == "(") {
                        iter_vars.insert(toks[i].text);
                        break;
                    }
                }
            }
            if (iter_vars.empty())
                continue;
            for (std::size_t i = fn.body_begin; i + 1 < fn.body_end;
                 ++i) {
                if (toks[i].kind != TokKind::kIdent ||
                    toks[i].text != "post" || toks[i + 1].text != "(")
                    continue;
                // Scan the argument list for lambdas; flag iterator
                // variables inside their capture list or body.
                int depth = 0;
                std::size_t j = i + 1;
                for (; j <= fn.body_end; ++j) {
                    if (toks[j].text == "(")
                        ++depth;
                    else if (toks[j].text == ")" && --depth == 0)
                        break;
                    else if (toks[j].text == "[" && depth >= 1) {
                        const std::size_t lam_end =
                            lambda_extent(toks, j, fn.body_end);
                        for (std::size_t k = j; k < lam_end; ++k) {
                            if (toks[k].kind == TokKind::kIdent &&
                                iter_vars.count(toks[k].text)) {
                                out.push_back(make_finding(
                                    name(), *fn.file, toks[k],
                                    "closure passed to post() uses "
                                    "iterator '" + toks[k].text +
                                        "'; the event fires after "
                                        "arbitrary mutation — capture a "
                                        "key/id and re-look-up at fire "
                                        "time"));
                            }
                        }
                        j = lam_end;
                    }
                }
            }
        }
    }

  private:
    /** @return one past the end of a lambda starting at `open` ('['). */
    static std::size_t
    lambda_extent(const std::vector<Token>& toks, std::size_t open,
                  std::size_t limit)
    {
        // capture list [...]
        std::size_t j = open;
        int sq = 0;
        for (; j <= limit; ++j) {
            if (toks[j].text == "[")
                ++sq;
            else if (toks[j].text == "]" && --sq == 0)
                break;
        }
        ++j;
        if (j <= limit && toks[j].text == "(") {  // parameter list
            int p = 0;
            for (; j <= limit; ++j) {
                if (toks[j].text == "(")
                    ++p;
                else if (toks[j].text == ")" && --p == 0)
                    break;
            }
            ++j;
        }
        while (j <= limit && toks[j].text != "{" && toks[j].text != ")" &&
               toks[j].text != ",")
            ++j;  // mutable / noexcept / -> type
        if (j <= limit && toks[j].text == "{") {
            const std::size_t close = match_brace(toks, j);
            return close >= limit ? limit : close + 1;
        }
        return j;  // not a lambda body after all (e.g. subscript)
    }
};

/**
 * Check 6: sim-core contract, interprocedural.
 *
 * The direct sim-contract check only sees mutation written inside
 * `advance_to` itself; this one walks the call graph so an `advance_to`
 * that calls `step()` which calls `expire_now()` which pokes the ready
 * index is flagged too. Resolution fails open: a call through a
 * `std::function` member or any name with no in-corpus definition
 * produces no edge and therefore no finding.
 */
class SimContractInterprocCheck final : public Check
{
  public:
    const char*
    name() const override
    {
        return "sim-contract-interproc";
    }

    const char*
    description() const override
    {
        return "advance_to must not reach cluster mutation or ready "
               "notification through its callees (call-graph "
               "transitive)";
    }

    void
    run(const LintContext& ctx, std::vector<Finding>& out) const override
    {
        const Corpus& corpus = ctx.corpus;
        constexpr int kMaxDepth = 8;

        // Memoized "does this function mutate the cluster" predicate.
        std::vector<int> memo(corpus.functions.size(), -1);
        const auto mutates = [&](std::size_t fi) {
            if (memo[fi] < 0)
                memo[fi] = mutator_site(corpus.functions[fi]).first
                               ? 1
                               : 0;
            return memo[fi] == 1;
        };

        for (std::size_t fi = 0; fi < corpus.functions.size(); ++fi) {
            const FunctionDef& fn = corpus.functions[fi];
            if (fn.name != "advance_to")
                continue;
            const std::vector<std::size_t> path =
                ctx.callgraph.find_path(fi, mutates, kMaxDepth);
            if (path.empty())
                continue;

            // Locate the first hop's call site for the finding location.
            const Token* site = nullptr;
            for (const auto& e : ctx.callgraph.callees(fi)) {
                if (e.callee == path[1]) {
                    site = &fn.file->tokens[e.site];
                    break;
                }
            }
            if (site == nullptr)
                continue;  // should not happen; fail open

            std::string chain;
            for (std::size_t k = 1; k < path.size(); ++k) {
                if (k > 1)
                    chain += " -> ";
                chain += "'" + corpus.functions[path[k]].qualified + "'";
            }
            const auto what =
                mutator_site(corpus.functions[path.back()]).second;
            out.push_back(make_finding(
                name(), *fn.file, *site,
                "'" + fn.qualified + "' reaches " + what + " via " +
                    chain +
                    ": components must not mutate the cluster "
                    "mid-grant, even transitively (post from an event "
                    "or the progress hook; the loop republishes the "
                    "ready time itself)"));
        }
    }

  private:
    /** @return {true, what} when `fn`'s body directly notifies the ready
     *  index or calls a mutating member on a cluster-ish receiver. */
    static std::pair<bool, std::string>
    mutator_site(const FunctionDef& fn)
    {
        static const std::unordered_set<std::string> kClusterMutators = {
            "post", "cancel_event",      "add",
            "run",  "set_progress_hook", "notify_ready",
        };
        const auto& toks = fn.file->tokens;
        for (std::size_t i = fn.body_begin; i + 2 < fn.body_end; ++i) {
            if (toks[i].kind != TokKind::kIdent)
                continue;
            const std::string& t = toks[i].text;
            if (t == "notify_ready_changed" && toks[i + 1].text == "(" &&
                (i == fn.body_begin || (toks[i - 1].text != "." &&
                                        toks[i - 1].text != "->" &&
                                        toks[i - 1].text != "::")))
                return {true, "notify_ready_changed()"};
            const bool cluster_ref =
                t == "cluster" ||
                (t.size() >= 8 &&
                 t.compare(t.size() - 8, 8, "cluster_") == 0);
            if (!cluster_ref)
                continue;
            if (toks[i + 1].text != "." && toks[i + 1].text != "->")
                continue;
            if (kClusterMutators.count(toks[i + 2].text))
                return {true,
                        t + toks[i + 1].text + toks[i + 2].text + "()"};
        }
        return {false, ""};
    }
};

/**
 * Check 7: guarded-by discipline.
 *
 * Fields carrying a guarded-field comment (`shiftlint-guarded` naming a
 * mutex member) must only be touched inside member functions of the
 * owning class that lock that mutex — directly (lock_guard / unique_lock
 * / scoped_lock / shared_lock naming it, or an explicit `.lock()`), or
 * via *every* call-graph path from a locking caller. Constructors and
 * destructors are exempt (no sharing before/after lifetime). A function
 * with no in-corpus callers and no lock of its own is part of the public
 * surface and is flagged — that is exactly the `set_title` bug class.
 */
class GuardedByCheck final : public Check
{
  public:
    const char*
    name() const override
    {
        return "guarded-by";
    }

    const char*
    description() const override
    {
        return "annotated fields must only be touched while their "
               "declared mutex is held (directly or on every caller "
               "path)";
    }

    void
    run(const LintContext& ctx, std::vector<Finding>& out) const override
    {
        const Corpus& corpus = ctx.corpus;
        constexpr int kCallerDepth = 4;

        for (const auto& ug : ctx.symbols.unresolved_guards) {
            Finding fd;
            fd.check = name();
            fd.path = ug.file->path;
            fd.line = ug.line;
            fd.col = 1;
            fd.message =
                "guarded-field annotation names mutex '" + ug.mutex +
                "' but binds to no data member declared on this line or "
                "the next; move it onto the field declaration";
            out.push_back(std::move(fd));
        }

        for (const auto& gf : ctx.symbols.guarded_fields) {
            for (std::size_t fi = 0; fi < corpus.functions.size();
                 ++fi) {
                const FunctionDef& fn = corpus.functions[fi];
                if (fn.owner != gf.struct_name)
                    continue;
                if (fn.name == gf.struct_name)
                    continue;  // constructor/destructor: not shared yet
                const auto& toks = fn.file->tokens;
                const Token* touch = nullptr;
                for (std::size_t i = fn.body_begin + 1; i < fn.body_end;
                     ++i) {
                    if (toks[i].kind == TokKind::kIdent &&
                        toks[i].text == gf.field) {
                        touch = &toks[i];
                        break;
                    }
                }
                if (touch == nullptr)
                    continue;
                if (locks(corpus.functions[fi], gf.mutex))
                    continue;
                std::set<std::size_t> visiting;
                if (callers_all_lock(ctx, fi, gf.mutex, kCallerDepth,
                                     visiting))
                    continue;
                out.push_back(make_finding(
                    name(), *fn.file, *touch,
                    "field '" + gf.field + "' of " + gf.struct_name +
                        " is guarded by '" + gf.mutex + "' but '" +
                        fn.qualified +
                        "' touches it without locking it, and no "
                        "locking caller covers every path here"));
            }
        }
    }

  private:
    /** @return true when `fn`'s body locks `mutex` (RAII guard naming
     *  it, or an explicit `.lock()` on it). */
    static bool
    locks(const FunctionDef& fn, const std::string& mutex)
    {
        static const std::unordered_set<std::string> kGuards = {
            "lock_guard", "unique_lock", "scoped_lock", "shared_lock",
        };
        const auto& toks = fn.file->tokens;
        for (std::size_t i = fn.body_begin + 1; i + 1 < fn.body_end;
             ++i) {
            if (toks[i].kind != TokKind::kIdent)
                continue;
            if (toks[i].text == mutex && toks[i + 1].text == "." &&
                i + 2 < fn.body_end && toks[i + 2].text == "lock")
                return true;
            if (!kGuards.count(toks[i].text))
                continue;
            // Find the constructor's argument list: the first '(' within
            // a few tokens (skipping the template argument list and the
            // variable name), then scan it for the mutex name.
            std::size_t j = i + 1;
            for (int hops = 0;
                 j < fn.body_end && toks[j].text != "(" &&
                 toks[j].text != ";" && hops < 12;
                 ++j, ++hops) {
            }
            if (j >= fn.body_end || toks[j].text != "(")
                continue;
            int depth = 0;
            for (; j < fn.body_end; ++j) {
                if (toks[j].text == "(")
                    ++depth;
                else if (toks[j].text == ")" && --depth == 0)
                    break;
                else if (toks[j].kind == TokKind::kIdent &&
                         toks[j].text == mutex)
                    return true;
            }
        }
        return false;
    }

    /** @return true when every call-graph path into `fi` goes through a
     *  function that locks `mutex` within `depth` hops. No callers means
     *  unprotected public surface: false. Cycles resolve to false
     *  (cannot prove the lock). */
    static bool
    callers_all_lock(const LintContext& ctx, std::size_t fi,
                     const std::string& mutex, int depth,
                     std::set<std::size_t>& visiting)
    {
        const auto& callers = ctx.callgraph.callers(fi);
        if (callers.empty())
            return false;
        if (!visiting.insert(fi).second)
            return false;
        bool ok = true;
        for (const std::size_t c : callers) {
            if (locks(ctx.corpus.functions[c], mutex))
                continue;
            if (depth <= 0 ||
                !callers_all_lock(ctx, c, mutex, depth - 1, visiting)) {
                ok = false;
                break;
            }
        }
        visiting.erase(fi);
        return ok;
    }
};

/**
 * Check 8: outcome conservation.
 *
 * The router's accounting identity (submitted = completed + expired +
 * cancelled + lost + shed) holds by construction when every request
 * settles exactly once: the flight table is the one tally of terminal
 * outcomes, and `Router::settle` asserts that the flight it settles was
 * still in flight. That assert sees every transition only if no other
 * code writes a terminal outcome, so a terminal `FlightOutcome`
 * assignment anywhere but `Router::settle` is flagged.
 */
class OutcomeConservationCheck final : public Check
{
  public:
    const char*
    name() const override
    {
        return "outcome-conservation";
    }

    const char*
    description() const override
    {
        return "terminal flight outcomes are assigned only inside "
               "Router::settle";
    }

    void
    run(const LintContext& ctx, std::vector<Finding>& out) const override
    {
        static const std::unordered_set<std::string> kTerminals = {
            "kCompleted", "kExpired", "kCancelled", "kLost", "kShed",
        };
        for (const FunctionDef& fn : ctx.corpus.functions) {
            if (fn.owner == "Router" && fn.name == "settle")
                continue;
            const auto& toks = fn.file->tokens;
            for (std::size_t i = fn.body_begin + 1; i + 2 < fn.body_end;
                 ++i) {
                if (toks[i].text == "FlightOutcome" &&
                    toks[i - 1].text == "=" && toks[i + 1].text == "::" &&
                    kTerminals.count(toks[i + 2].text)) {
                    out.push_back(make_finding(
                        name(), *fn.file, toks[i],
                        "'" + fn.qualified + "' assigns FlightOutcome::" +
                            toks[i + 2].text +
                            " outside Router::settle — the exactly-once "
                            "settlement assert cannot see it"));
                }
            }
        }
    }
};

/**
 * Check 9: RNG discipline.
 *
 * Replay determinism requires one owner per RNG stream. A by-value RNG
 * parameter or a copy-initialized RNG local silently forks the stream:
 * the copy replays the original's future draws while the original never
 * advances — two call sites then see correlated "randomness" and a
 * replay with a reordered call sequence diverges. Streams must flow by
 * reference/pointer; deliberate decorrelated children come from
 * `split()`.
 */
class RngDisciplineCheck final : public Check
{
  public:
    const char*
    name() const override
    {
        return "rng-discipline";
    }

    const char*
    description() const override
    {
        return "seeded RNG state must flow by reference: by-value "
               "parameters and copy-init fork the stream";
    }

    void
    run(const LintContext& ctx, std::vector<Finding>& out) const override
    {
        const Corpus& corpus = ctx.corpus;
        static const std::unordered_set<std::string> kRngTypes = {
            "Rng",          "mt19937",       "mt19937_64",
            "minstd_rand",  "minstd_rand0",  "default_random_engine",
            "knuth_b",      "ranlux24",      "ranlux48",
            "ranlux24_base", "ranlux48_base",
        };

        // Macro invocations with braced bodies — TEST(Rng, Seed) { .. }
        // — parse as definitions, but their "parameters" are macro
        // arguments: an RNG type name there is a test-suite label, not
        // a by-value parameter. ALL_CAPS names are macros by project
        // convention.
        const auto macro_like = [](const std::string& n) {
            for (const char c : n)
                if (c != '_' && !(c >= 'A' && c <= 'Z') &&
                    !(c >= '0' && c <= '9'))
                    return false;
            return !n.empty();
        };

        // (a) By-value RNG parameters in function definitions.
        for (const auto& fn : corpus.functions) {
            if (macro_like(fn.name))
                continue;
            const auto& toks = fn.file->tokens;
            for (std::size_t i = fn.params_begin + 1; i < fn.params_end;
                 ++i) {
                if (toks[i].kind != TokKind::kIdent ||
                    !kRngTypes.count(toks[i].text))
                    continue;
                // Scan this parameter (to the next ',' or the closing
                // ')' at top level) for a '&' or '*' declarator.
                bool by_ref = false;
                int depth = 0;
                std::size_t j = i + 1;
                for (; j < fn.params_end; ++j) {
                    const std::string& t = toks[j].text;
                    if (t == "(" || t == "<")
                        ++depth;
                    else if (t == ")" || t == ">")
                        --depth;
                    else if (t == "," && depth == 0)
                        break;
                    else if ((t == "&" || t == "*" || t == "&&") &&
                             depth == 0)
                        by_ref = true;
                }
                if (by_ref)
                    continue;
                out.push_back(make_finding(
                    name(), *fn.file, toks[i],
                    "'" + fn.qualified + "' takes RNG type '" +
                        toks[i].text +
                        "' by value: the callee advances a private "
                        "copy and the caller's stream never moves — "
                        "pass by reference, or hand the callee its own "
                        "split() child"));
                i = j;
            }
        }

        // (b) Copy-initialization from another RNG object:
        //     `<RngType> <name> = <ident> ;`
        for (const auto& f : corpus.files) {
            const auto& toks = f.tokens;
            for (std::size_t i = 0; i + 4 < toks.size(); ++i) {
                if (toks[i].kind != TokKind::kIdent ||
                    !kRngTypes.count(toks[i].text))
                    continue;
                if (toks[i + 1].kind != TokKind::kIdent ||
                    toks[i + 2].text != "=" ||
                    toks[i + 3].kind != TokKind::kIdent ||
                    toks[i + 4].text != ";")
                    continue;
                out.push_back(make_finding(
                    name(), f, toks[i],
                    "'" + toks[i].text + " " + toks[i + 1].text + " = " +
                        toks[i + 3].text +
                        ";' copy-initializes RNG state: both objects "
                        "replay the same stream from here (a silent "
                        "fork) — bind a reference, or derive a "
                        "decorrelated child with split()"));
            }
        }
    }
};

} // namespace

const std::vector<std::unique_ptr<Check>>&
check_registry()
{
    static const auto* checks = [] {
        auto* v = new std::vector<std::unique_ptr<Check>>();
        v->push_back(std::make_unique<NondetSourceCheck>());
        v->push_back(std::make_unique<UnorderedEmitCheck>());
        v->push_back(std::make_unique<TraceSpanBalanceCheck>());
        v->push_back(std::make_unique<StructSerializerDriftCheck>());
        v->push_back(std::make_unique<SimContractCheck>());
        v->push_back(std::make_unique<SimContractInterprocCheck>());
        v->push_back(std::make_unique<GuardedByCheck>());
        v->push_back(std::make_unique<OutcomeConservationCheck>());
        v->push_back(std::make_unique<RngDisciplineCheck>());
        return v;
    }();
    return *checks;
}

} // namespace shiftpar::lint
