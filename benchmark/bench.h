/**
 * @file
 * Shared pieces of the oscar_bench binary: run arguments, the
 * result record every workload fills in, order statistics, the
 * benchmark-side span log of the traced mode, the traced composition
 * of one reconstruction request, and process probes (peak RSS, ISA).
 */

#ifndef OSCAR_BENCHMARK_BENCH_H
#define OSCAR_BENCHMARK_BENCH_H

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "src/backend/engine.h"
#include "src/core/oscar.h"
#include "src/hamiltonian/pauli_sum.h"
#include "src/quantum/circuit.h"

namespace oscar {
namespace obench {

/** Command-line arguments of one benchmark run. */
struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    /** Length of the timed window. */
    double seconds = 10.0;
    /** Traced mode: per-layer metrics instead of end-to-end ones. */
    bool trace = false;
    /** One request per workload, no warm-up, no minimum count. */
    bool smoke = false;
    /** Source revision stamped into the run record. */
    std::string rev = "unknown";
    /** Directory for the run record, traces and scratch stores. */
    std::string outDir = ".";
};

/** Everything one run reports. */
struct RunResult
{
    struct Metric
    {
        std::string name;
        double value = 0.0;
        std::string unit;
    };

    std::size_t attempted = 0;
    std::size_t failed = 0;
    /** Checks outside any single request (bit-identity, span loss). */
    bool checksPassed = true;
    /**
     * False when the workload's inputs rest on an assumption no
     * measurement in the repository supports; compare.py then claims
     * no gain on it.
     */
    bool claimable = true;
    /** The metrics of the final result line, in BENCHMARK.json order. */
    std::vector<Metric> metrics;
    /** Further numbers for the run record and the summary only. */
    std::vector<Metric> extras;

    void metric(const std::string& name, double value,
                const std::string& unit)
    {
        metrics.push_back({name, value, unit});
    }

    void extra(const std::string& name, double value,
               const std::string& unit)
    {
        extras.push_back({name, value, unit});
    }

    /** Count one failed request and say why on stderr. */
    void fail(const std::string& why);

    /** Record a failed run-level check and say why on stderr. */
    void failCheck(const std::string& why);
};

// ---------------------------------------------------------------- timing

inline double
nowS()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Linear-interpolated quantile (numpy's default), q in [0, 1]. */
double quantile(std::vector<double> values, double q);

inline double
median(const std::vector<double>& values)
{
    return quantile(values, 0.5);
}

/** Add `name`.n/.p25/.p50/.p75 to the record's extras. */
void addQuartiles(RunResult& result, const std::string& name,
                  const std::vector<double>& values, const std::string& unit);

/**
 * Set-up time: the median of repeated set-ups, each a call of `fn`,
 * which times its own construction phase and returns those seconds
 * (teardown untimed). The set-ups are taken in short bursts spread
 * over the run -- before the first request and between later ones --
 * because the host's speed drifts over seconds: a few milliseconds of
 * back-to-back set-ups can all land in one slow moment.
 */
class SetupClock
{
  public:
    explicit SetupClock(std::function<double()> fn) : fn_(std::move(fn)) {}

    /** Set up at least once, and again while under 8 and 20 ms. */
    void
    burst()
    {
        const double start = nowS();
        std::size_t taken = 0;
        do {
            seconds_.push_back(fn_());
            ++taken;
        } while (taken < 8 && nowS() - start < 0.02);
    }

    double median() const { return obench::median(seconds_); }
    std::size_t count() const { return seconds_.size(); }

  private:
    std::function<double()> fn_;
    std::vector<double> seconds_;
};

// ----------------------------------------------------------------- spans

/**
 * Benchmark-side spans of the traced mode: every call into a layer is
 * wrapped from the benchmark's own code. Spans stay in memory (never
 * dropped) and are written once, at exit, as a Chrome trace.
 */
class SpanLog
{
  public:
    struct Span
    {
        std::string name;
        double t0 = 0.0;
        double t1 = 0.0;
        /** Index of the parent span, -1 for a root. */
        int parent = -1;
        std::uint64_t request = 0;
    };

    /** RAII span: opens at construction, closes at destruction. */
    class Scope
    {
      public:
        Scope(SpanLog& log, const char* name, int parent,
              std::uint64_t request);
        ~Scope() { close(); }
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;

        int id() const { return id_; }

        /** Close now (idempotent); returns the span's seconds. */
        double close();

      private:
        SpanLog& log_;
        int id_;
        bool open_ = true;
    };

    double seconds(int id) const { return spans_[id].t1 - spans_[id].t0; }

    /**
     * Write every span as a Chrome trace "X" event, followed by
     * `extra_events` (already-rendered events, comma-led). False on an
     * I/O error.
     */
    bool writeChromeTrace(const std::string& path,
                          const std::string& extra_events = {}) const;

  private:
    std::vector<Span> spans_;
};

// -------------------------------------------------------------- requests

/** One reconstruction request: what Oscar::reconstruct is asked. */
struct ReconRequest
{
    const GridSpec* grid = nullptr;
    const Circuit* circuit = nullptr;
    const PauliSum* hamiltonian = nullptr;
    OscarOptions options;
};

/**
 * The untraced request: a fresh StatevectorCost (cold prefix cache,
 * as in oscar-serve) and Oscar::reconstruct on `engine` (null = the
 * pipeline picks one from options.numThreads, as the daemon does).
 */
OscarResult reconstructOnce(const ReconRequest& request,
                            ExecutionEngine* engine);

/** What one traced request produced, stage by stage. */
struct TracedRequest
{
    /** Reconstructed landscape, flat row-major. */
    std::vector<double> values;
    std::vector<std::size_t> sampleIndices;
    std::vector<double> sampleValues;

    double requestS = 0.0;
    double engineS = 0.0;
    double compileS = 0.0;
    double configureS = 0.0;
    double selectS = 0.0;
    double execS = 0.0;
    double solveS = 0.0;
    /** requestS minus every stage span. */
    double selfS = 0.0;

    std::size_t iterations = 0;
    double lambdaFraction = 0.0;
    /** ||values at samples - samples|| / ||samples||. */
    double residualRel = 0.0;
    KernelStats kernel;
};

/**
 * The same request composed from the public calls Oscar::reconstruct
 * makes -- engine selection, cost construction, configureKernel,
 * chooseSampleIndices, gatherCost, csSolveFolded -- each wrapped in a
 * span under one "request" root. Bit-identical to reconstructOnce.
 */
TracedRequest reconstructTraced(SpanLog& log, std::uint64_t request_id,
                                const ReconRequest& request,
                                ExecutionEngine* engine);

/** Seconds of gatherCost for `request` on a fresh cost and `engine`. */
double gatherSeconds(const ReconRequest& request, ExecutionEngine& engine);

/** Median ms of one Dct2d forward plus inverse on `shape`'s fold. */
double dctMs(SpanLog& log, const std::vector<std::size_t>& shape);

/**
 * Per-layer numbers of a traced run. Every workload fills the same
 * fields so the traced result line always carries every metric.
 */
struct LayerReport
{
    std::vector<TracedRequest> requests;
    /** Untraced seconds of the same requests (trace overhead base). */
    std::vector<double> untracedS;
    double speedup4t = 0.0;
    double dctMs = 0.0;
    std::vector<double> storeGetMs;
    std::vector<double> storePutMs;
    double containerKb = 0.0;
    std::uint64_t serveEvaluations = 0;
    std::uint64_t serveStoreHits = 0;
    std::uint64_t serveErrors = 0;
    std::uint64_t droppedSpans = 0;
};

/** Emit every per-layer metric, in BENCHMARK.json order. */
void addLayerMetrics(RunResult& result, const LayerReport& report);

/**
 * Compare a traced request with its untraced twin and the truth:
 * counts a failure on any difference in bits, a non-finite value, or
 * an NRMSE above `nrmse_ceiling`.
 */
void checkTraced(RunResult& result, const TracedRequest& traced,
                 const OscarResult& untraced,
                 const std::vector<double>& truth, double nrmse_ceiling);

/**
 * Gate one reconstruction: false (and a counted failure) when any
 * value is non-finite or its NRMSE against `truth` exceeds the
 * ceiling. `nrmse_out` receives the NRMSE.
 */
bool gateValues(RunResult& result, const std::vector<double>& values,
                const std::vector<double>& truth, double nrmse_ceiling,
                double* nrmse_out);

// ---------------------------------------------------------------- process

/**
 * Return freed heap to the system, then reset the kernel's peak-RSS
 * mark (VmHWM) to the current RSS, so the peak measured afterwards
 * does not depend on what earlier set-up left in allocator arenas.
 * Records whether the reset took as the extra `peak_rss_reset` (1 or
 * 0); where /proc/self/clear_refs cannot be written, the peak also
 * covers the benchmark's own preparation.
 */
void resetPeakRss(RunResult& result);

/** VmHWM of this process in MB (10^6 bytes). */
double peakRssMb();

/** Resolved kernel ISA name of this host ("avx2", ...). */
std::string isaName();

/** True when both vectors hold exactly the same bit patterns. */
bool sameBits(const std::vector<double>& a, const std::vector<double>& b);

/**
 * A fresh directory `<parent>/<prefix>XXXXXX` (mkdtemp), removed with
 * its contents on destruction.
 */
class ScratchDir
{
  public:
    ScratchDir(const std::string& parent, const std::string& prefix);
    ~ScratchDir();
    ScratchDir(const ScratchDir&) = delete;
    ScratchDir& operator=(const ScratchDir&) = delete;

    const std::string& path() const { return path_; }

  private:
    std::string path_;
};

// -------------------------------------------------------------- workloads

/** Names of the workloads, in BENCHMARK.json order. */
const std::vector<std::string>& workloadNames();

/** Run one reconstruction workload (p2_fista, p1_exec, p2_omp). */
RunResult runRecon(const Args& args, ExecutionEngine& engine);

/** Run the serving workload (serve_mix). */
RunResult runServeMix(const Args& args, ExecutionEngine& engine);

} // namespace obench
} // namespace oscar

#endif // OSCAR_BENCHMARK_BENCH_H
