#include "calibrate.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>

#include "hw/presets.h"
#include "model/presets.h"
#include "parallel/kernel_cost_model.h"
#include "util/csv.h"
#include "util/json.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/stats.h"

namespace shiftpar::calibrate {

namespace {

constexpr const char* kCsvHeader = "kernel,class,count,flops,bytes,seconds";

std::string
format_double(double v)
{
    // %.17g round-trips doubles, so a written profile re-reads to the
    // exact samples (the round-trip tests rely on this).
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

/**
 * Least squares for one class: solve (X^T X) c = X^T y over the features
 * (count, flops, bytes). Degenerate columns — all zero, or collinear to
 * numerical rank — are dropped (first offender per pass) and their
 * coefficients pinned to 0, so e.g. a collective class with no FLOP column
 * still fits exactly.
 */
std::array<double, 3>
solve_ols(const std::vector<const ProfileSample*>& rows)
{
    double a[3][3] = {{0.0}};
    double b[3] = {0.0};
    for (const ProfileSample* s : rows) {
        const double x[3] = {s->count, s->flops, s->bytes};
        for (int i = 0; i < 3; ++i) {
            for (int j = 0; j < 3; ++j)
                a[i][j] += x[i] * x[j];
            b[i] += x[i] * s->seconds;
        }
    }

    std::vector<int> active;
    for (int j = 0; j < 3; ++j) {
        if (a[j][j] > 0.0)
            active.push_back(j);
    }

    std::array<double, 3> coef = {0.0, 0.0, 0.0};
    while (!active.empty()) {
        const int k = static_cast<int>(active.size());
        // Normalize each active column by its scale so the pivot tolerance
        // is meaningful across wildly different units (counts ~1e0, flops
        // ~1e12): solve for c'_j = c_j * scale_j, un-scale at the end.
        std::vector<double> scale(k);
        for (int j = 0; j < k; ++j)
            scale[j] = std::sqrt(a[active[j]][active[j]]);
        std::vector<std::vector<double>> m(k, std::vector<double>(k + 1));
        for (int i = 0; i < k; ++i) {
            for (int j = 0; j < k; ++j)
                m[i][j] = a[active[i]][active[j]] / (scale[i] * scale[j]);
            m[i][k] = b[active[i]] / scale[i];
        }

        int dropped = -1;
        for (int col = 0; col < k && dropped < 0; ++col) {
            int pivot = col;
            for (int r = col + 1; r < k; ++r) {
                if (std::abs(m[r][col]) > std::abs(m[pivot][col]))
                    pivot = r;
            }
            if (std::abs(m[pivot][col]) <= 1e-9) {
                dropped = active[col];
                break;
            }
            std::swap(m[col], m[pivot]);
            for (int r = col + 1; r < k; ++r) {
                const double f = m[r][col] / m[col][col];
                for (int j = col; j <= k; ++j)
                    m[r][j] -= f * m[col][j];
            }
        }
        if (dropped >= 0) {
            active.erase(std::find(active.begin(), active.end(), dropped));
            continue;
        }

        for (int i = k - 1; i >= 0; --i) {
            double v = m[i][k];
            for (int j = i + 1; j < k; ++j)
                v -= m[i][j] * coef[active[j]] * scale[j];
            coef[active[i]] = v / m[i][i] / scale[i];
        }
        break;
    }
    return coef;
}

double
predict(const std::array<double, 3>& coef, const ProfileSample& s)
{
    return coef[0] * s.count + coef[1] * s.flops + coef[2] * s.bytes;
}

} // namespace

std::vector<ProfileSample>
read_profile_csv(const std::string& path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot open profile CSV '" + path + "'");
    std::string line;
    if (!std::getline(in, line) || line != kCsvHeader) {
        fatal("profile CSV '" + path + "' must start with header '" +
              kCsvHeader + "'");
    }
    std::vector<ProfileSample> samples;
    std::size_t lineno = 1;
    while (std::getline(in, line)) {
        ++lineno;
        if (line.empty())
            continue;
        std::vector<std::string> fields;
        std::stringstream ss(line);
        std::string field;
        while (std::getline(ss, field, ','))
            fields.push_back(field);
        if (fields.size() != 6) {
            fatal("profile CSV '" + path + "' line " +
                  std::to_string(lineno) + ": expected 6 fields, got " +
                  std::to_string(fields.size()));
        }
        ProfileSample s;
        s.kernel = fields[0];
        s.klass = fields[1];
        try {
            s.count = std::stod(fields[2]);
            s.flops = std::stod(fields[3]);
            s.bytes = std::stod(fields[4]);
            s.seconds = std::stod(fields[5]);
        } catch (const std::exception&) {
            fatal("profile CSV '" + path + "' line " +
                  std::to_string(lineno) + ": non-numeric feature field");
        }
        samples.push_back(std::move(s));
    }
    if (samples.empty())
        fatal("profile CSV '" + path + "' holds no samples");
    return samples;
}

void
write_profile_csv(const std::string& path,
                  const std::vector<ProfileSample>& samples)
{
    CsvWriter csv(path, {"kernel", "class", "count", "flops", "bytes",
                         "seconds"});
    if (!csv.ok())
        fatal("cannot open profile CSV '" + path + "' for writing");
    for (const ProfileSample& s : samples) {
        csv.add_row({s.kernel, s.klass, format_double(s.count),
                     format_double(s.flops), format_double(s.bytes),
                     format_double(s.seconds)});
    }
}

std::vector<ProfileSample>
synthesize_profile(const hw::KernelCoeffs& coeffs, double noise_frac,
                   std::uint64_t seed)
{
    SP_ASSERT(noise_frac >= 0.0 && noise_frac < 1.0,
              "noise fraction must be in [0, 1)");
    const hw::Node node = hw::h200_node();
    const model::ModelConfig m = model::llama_70b();
    const parallel::KernelCostModel cost(node, m, coeffs);

    // The deployment grid spans the regimes the fit must cover: pure TP,
    // pure SP, combined SP x TP, and the shift configuration's sliced
    // steps; batches span prefill, saturated decode, and mixed steps.
    const std::vector<parallel::ParallelConfig> configs = {
        {1, 1}, {1, 2}, {1, 8}, {2, 1}, {2, 4}, {4, 2}, {8, 1}};
    std::vector<model::BatchWork> batches;
    for (const std::int64_t prompt : {128, 512, 2048, 8192})
        batches.push_back(model::BatchWork::prefill(prompt));
    batches.push_back(model::BatchWork::decode(1, 512));
    batches.push_back(model::BatchWork::decode(8, 2048));
    batches.push_back(model::BatchWork::decode(64, 2048));
    batches.push_back(model::BatchWork::decode(256, 4096));
    model::BatchWork mixed;
    mixed.add(256, 0, true);
    for (int i = 0; i < 32; ++i)
        mixed.add(1, 1024 + 64 * i, false);
    batches.push_back(mixed);

    Rng rng(seed);
    std::vector<ProfileSample> samples;
    std::vector<model::KernelCost> breakdown;
    const auto record = [&](const parallel::ParallelConfig& cfg,
                            const model::BatchWork& work, bool sliced) {
        breakdown.clear();
        cost.evaluate(work, cfg, sliced, &breakdown);
        for (const model::KernelCost& k : breakdown) {
            ProfileSample s;
            s.kernel = k.kernel;
            s.klass = k.klass;
            s.count = k.count;
            s.flops = k.flops;
            s.bytes = k.bytes;
            s.seconds = k.seconds;
            if (noise_frac > 0.0) {
                s.seconds *=
                    rng.uniform(1.0 - noise_frac, 1.0 + noise_frac);
            }
            samples.push_back(std::move(s));
        }
    };
    for (const parallel::ParallelConfig& cfg : configs) {
        for (const model::BatchWork& work : batches)
            record(cfg, work, false);
    }
    // Sliced shift-config steps (on-the-fly slicing weight penalty).
    for (const model::BatchWork& work : batches)
        record({1, 8}, work, true);
    return samples;
}

CalibrationReport
fit_profile(const std::vector<ProfileSample>& samples,
            const std::string& hardware, const std::string& source)
{
    SP_ASSERT(!samples.empty(), "cannot fit an empty profile");

    // std::map: classes fit and reported in sorted order, so the emitted
    // document is deterministic for any input row order.
    std::map<std::string, std::vector<const ProfileSample*>> by_class;
    for (const ProfileSample& s : samples)
        by_class[s.klass].push_back(&s);

    CalibrationReport report;
    report.hardware = hardware;
    report.source = source;
    report.total_samples = static_cast<std::int64_t>(samples.size());

    double pooled_res = 0.0;
    double pooled_tot = 0.0;
    double global_mean = 0.0;
    for (const ProfileSample& s : samples)
        global_mean += s.seconds;
    global_mean /= static_cast<double>(samples.size());

    for (const auto& [klass, rows] : by_class) {
        const std::array<double, 3> coef = solve_ols(rows);

        KernelClassFit fit;
        fit.klass = klass;
        fit.samples = static_cast<std::int64_t>(rows.size());
        fit.alpha = coef[0];
        fit.beta = coef[1];
        fit.gamma = coef[2];

        double ss_res = 0.0;
        double ss_tot = 0.0;
        double mean = 0.0;
        for (const ProfileSample* s : rows)
            mean += s->seconds;
        mean /= static_cast<double>(rows.size());
        Summary resid;
        for (const ProfileSample* s : rows) {
            const double err = s->seconds - predict(coef, *s);
            ss_res += err * err;
            ss_tot += (s->seconds - mean) * (s->seconds - mean);
            pooled_res += err * err;
            pooled_tot += (s->seconds - global_mean) *
                          (s->seconds - global_mean);
            resid.add(std::abs(err) /
                      std::max(std::abs(s->seconds), 1e-30));
        }
        fit.r2 = ss_tot > 0.0 ? 1.0 - ss_res / ss_tot
                              : (ss_res == 0.0 ? 1.0 : 0.0);
        fit.resid_p50 = resid.percentile(50.0);
        fit.resid_p90 = resid.percentile(90.0);
        fit.resid_p99 = resid.percentile(99.0);
        report.fits.push_back(std::move(fit));
    }
    report.overall_r2 = pooled_tot > 0.0
                            ? 1.0 - pooled_res / pooled_tot
                            : (pooled_res == 0.0 ? 1.0 : 0.0);
    return report;
}

void
write_calibration_report(const CalibrationReport& report, std::ostream& os)
{
    util::JsonWriter w(os, /*pretty=*/true);
    w.begin_object();
    w.kv("schema", "shiftpar.calibration");
    w.kv("version", 1);
    w.kv("hardware", report.hardware);
    w.kv("source", report.source);
    w.kv("total_samples", report.total_samples);
    w.kv("overall_r2", report.overall_r2);
    w.key("kernels").begin_array();
    for (const KernelClassFit& fit : report.fits) {
        w.begin_object();
        w.kv("class", fit.klass);
        w.kv("alpha", fit.alpha);
        w.kv("beta", fit.beta);
        w.kv("gamma", fit.gamma);
        w.kv("samples", fit.samples);
        w.kv("r2", fit.r2);
        w.key("residuals").begin_object();
        w.kv("p50", fit.resid_p50);
        w.kv("p90", fit.resid_p90);
        w.kv("p99", fit.resid_p99);
        w.end_object();
        w.end_object();
    }
    w.end_array();
    w.end_object();
    os << "\n";
}

} // namespace shiftpar::calibrate
