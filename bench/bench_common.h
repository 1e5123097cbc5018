/**
 * @file
 * Shared helpers for the benchmark binaries: table printing and the
 * standard workloads of the paper's evaluation, with the scaled-down
 * parameter choices documented in EXPERIMENTS.md.
 */

#ifndef OSCAR_BENCH_BENCH_COMMON_H
#define OSCAR_BENCH_BENCH_COMMON_H

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/backend/analytic_qaoa.h"
#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/core/oscar.h"
#include "src/graph/generators.h"
#include "src/landscape/landscape.h"
#include "src/landscape/metrics.h"
#include "src/quantum/kernels.h"

namespace oscar {
namespace bench {

/**
 * Shared hardware-sized engine for the benchmark binaries: every
 * reconstruction below fans its circuit executions out over this pool.
 * Results are bit-identical to serial runs by the engine's determinism
 * contract, so the published numbers do not depend on the host.
 */
inline ExecutionEngine&
engine()
{
    static ExecutionEngine instance(0);
    return instance;
}

/** Seconds elapsed since a steady_clock time point. */
inline double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
}

/** Repeated-run wall-clock statistics (seconds). */
struct TimingStats
{
    double median = 0.0;
    double min = 0.0;
    double p25 = 0.0; ///< quartiles; written only for reps > 1
    double p75 = 0.0;
    int reps = 0;
};

/**
 * Median, quartiles and minimum of repeated wall-clock samples
 * (seconds). Single-shot timing is noise-bound on shared CI hosts; the
 * median is the headline number (robust to one-off stalls), the
 * quartiles its spread, and the minimum approximates the noise-free
 * cost.
 */
inline TimingStats
timingStats(std::vector<double> seconds)
{
    std::sort(seconds.begin(), seconds.end());
    // Linear interpolation between order statistics.
    auto quantile = [&seconds](double q) {
        const double pos = q * static_cast<double>(seconds.size() - 1);
        const auto lo = static_cast<std::size_t>(pos);
        const std::size_t hi = std::min(lo + 1, seconds.size() - 1);
        return seconds[lo] +
               (pos - static_cast<double>(lo)) * (seconds[hi] - seconds[lo]);
    };
    TimingStats stats;
    stats.reps = static_cast<int>(seconds.size());
    stats.min = seconds.front();
    stats.median = quantile(0.5);
    stats.p25 = quantile(0.25);
    stats.p75 = quantile(0.75);
    return stats;
}

/** Run `fn` `reps` times and report timingStats() of the runs. */
template <typename Fn>
TimingStats
timeRepeated(int reps, Fn&& fn)
{
    std::vector<double> seconds;
    seconds.reserve(static_cast<std::size_t>(reps));
    for (int r = 0; r < reps; ++r) {
        const auto start = std::chrono::steady_clock::now();
        fn();
        seconds.push_back(secondsSince(start));
    }
    return timingStats(std::move(seconds));
}

/**
 * `git describe --always --dirty` of the source tree the bench was
 * built from, or "unknown" outside a git checkout.
 */
inline std::string
gitDescribe()
{
    std::string out;
#ifdef OSCAR_SOURCE_DIR
    const std::string cmd = std::string("git -C '") + OSCAR_SOURCE_DIR +
                            "' describe --always --dirty --abbrev=12 "
                            "2>/dev/null";
    if (std::FILE* pipe = ::popen(cmd.c_str(), "r")) {
        char buf[128];
        if (std::fgets(buf, sizeof(buf), pipe))
            out = buf;
        ::pclose(pipe);
    }
    while (!out.empty() && (out.back() == '\n' || out.back() == '\r'))
        out.pop_back();
#endif
    return out.empty() ? "unknown" : out;
}

/**
 * Machine-readable benchmark report: one JSON file of {case, median_s,
 * p25_s, p75_s, min_s, ...} rows under a "host" record (core count,
 * default kernel ISA, git revision), so the perf trajectory of a hot
 * path is diffable across PRs (bench_engine writes BENCH_kernels.json).
 */
class JsonReport
{
  public:
    explicit JsonReport(std::string bench) : bench_(std::move(bench)) {}

    /** Record one case; `extra` rows append as "key": value pairs. */
    void
    add(const std::string& name, const TimingStats& timing,
        std::size_t points,
        const std::vector<std::pair<std::string, double>>& extra = {})
    {
        Case c;
        c.name = name;
        c.timing = timing;
        c.points = points;
        c.extra = extra;
        cases_.push_back(std::move(c));
    }

    /** Write the report; returns false (and warns) on I/O failure. */
    bool
    write(const std::string& path) const
    {
        std::FILE* f = std::fopen(path.c_str(), "w");
        if (!f) {
            std::fprintf(stderr, "warning: cannot write %s\n",
                         path.c_str());
            return false;
        }
        std::fprintf(f,
                     "{\n  \"bench\": \"%s\",\n"
                     "  \"host\": {\"nproc\": %u, \"isa\": \"%s\", "
                     "\"git\": \"%s\"},\n  \"cases\": [\n",
                     bench_.c_str(), std::thread::hardware_concurrency(),
                     kernels::isaName(kernels::defaultKernelTable().isa),
                     gitDescribe().c_str());
        for (std::size_t i = 0; i < cases_.size(); ++i) {
            const Case& c = cases_[i];
            std::fprintf(f,
                         "    {\"name\": \"%s\", \"median_s\": %.9g, "
                         "\"min_s\": %.9g, \"reps\": %d, "
                         "\"points\": %zu, \"points_per_s\": %.9g",
                         c.name.c_str(), c.timing.median, c.timing.min,
                         c.timing.reps, c.points,
                         c.timing.median > 0.0
                             ? static_cast<double>(c.points) /
                                   c.timing.median
                             : 0.0);
            if (c.timing.reps > 1)
                std::fprintf(f, ", \"p25_s\": %.9g, \"p75_s\": %.9g",
                             c.timing.p25, c.timing.p75);
            for (const auto& [key, value] : c.extra)
                std::fprintf(f, ", \"%s\": %.9g", key.c_str(), value);
            std::fprintf(f, "}%s\n",
                         i + 1 < cases_.size() ? "," : "");
        }
        std::fprintf(f, "  ]\n}\n");
        std::fclose(f);
        return true;
    }

  private:
    struct Case
    {
        std::string name;
        TimingStats timing;
        std::size_t points = 0;
        std::vector<std::pair<std::string, double>> extra;
    };

    std::string bench_;
    std::vector<Case> cases_;
};

/** Print a horizontal rule sized to a title. */
inline void
header(const std::string& title)
{
    std::printf("\n=== %s ===\n", title.c_str());
}

/** Print one row of labeled doubles. */
inline void
row(const std::string& label, const std::vector<double>& values,
    const char* fmt = " %10.4f")
{
    std::printf("%-28s", label.c_str());
    for (double v : values)
        std::printf(fmt, v);
    std::printf("\n");
}

/** Print a row of column labels. */
inline void
columns(const std::string& label, const std::vector<std::string>& names)
{
    std::printf("%-28s", label.c_str());
    for (const auto& n : names)
        std::printf(" %10s", n.c_str());
    std::printf("\n");
}

/**
 * Median NRMSE of OSCAR reconstructions of `truth` over several sample
 * seeds (Fig. 4 draws quartile bands over instances; we aggregate over
 * seeds per instance elsewhere).
 */
inline double
reconstructionNrmse(const Landscape& truth, double fraction,
                    std::uint64_t seed)
{
    OscarOptions options;
    options.samplingFraction = fraction;
    options.seed = seed;
    const auto result =
        Oscar::reconstructFromLandscape(truth, options, &engine());
    return nrmse(truth.values(), result.reconstructed.values());
}

} // namespace bench
} // namespace oscar

#endif // OSCAR_BENCH_BENCH_COMMON_H
