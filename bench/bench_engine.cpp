/**
 * @file
 * Execution-engine throughput (per-point evaluate vs one batch vs
 * threaded) and the CS solve on the engine.
 *
 * Studies:
 *
 *  1. Sweep modes: per-point evaluate() (the reference: every point
 *     replayed from scratch), one batch (each point resumed from the
 *     previous one's shared prefix, fused expectation), and the batch
 *     fanned out over k workers -- every mode verified bit-identical
 *     to the reference (resuming and threading change performance,
 *     never values).
 *
 *  2. Kernel layers (BENCH_kernels.json): the one fused, blocked
 *     replay plan on each available kernel ISA, on the 12-qubit p=2
 *     sweep of a MaxCut and of an SK instance and on the p1_exec
 *     request's gather (150 samples of the 20-qubit p=1 grid on 4
 *     threads).
 *
 *  3. Observability (BENCH_obs.json): the same sweep with tracing off
 *     and on (metrics always record) -- the traced row reports its
 *     overhead ratio and p50/p95/p99 per-batch latency read back from
 *     the live engine.batch.latency.ns histogram (src/obs/).
 *
 *  4. CS solve (BENCH_cs.json): fistaSolve alone on the paper's p = 2
 *     fold and on a fold below kFistaParallelPoints, with no engine
 *     and on engines of 1, 2 and 4 threads, every row checked bitwise
 *     against the engine-free solve; each fold reports the iterations
 *     its solve ran and its NRMSE against the truth.
 *
 * OSCAR_BENCH_ONLY=<substring> selects a subset of studies (the CI
 * observability leg runs only "obs"; the Release test leg runs
 * "sweeps" and "kernels"). The exit status is non-zero when any
 * `identical` or `match` check fails.
 *
 * Timings are repeated-run medians on fresh costs (bench_common.h).
 * Thread speedups require cores: on a 1-core host the engine can only
 * match the serial path.
 */

#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "src/ansatz/qaoa.h"
#include "src/backend/engine.h"
#include "src/backend/statevector_backend.h"
#include "src/cs/fista.h"
#include "src/cs/reconstructor.h"
#include "src/hamiltonian/maxcut.h"
#include "src/hamiltonian/sk_model.h"
#include "src/landscape/sampler.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace oscar {
namespace {

/** OSCAR_BENCH_ONLY=<substring> selects which studies run. */
bool
benchEnabled(const char* name)
{
    const char* only = std::getenv("OSCAR_BENCH_ONLY");
    return !only || std::strstr(name, only) != nullptr;
}

/** Failed `identical`/`match` checks; main() exits non-zero on any. */
int failedChecks = 0;

/** Record one check's outcome and pass it through. */
bool
check(bool ok)
{
    failedChecks += ok ? 0 : 1;
    return ok;
}

bool
identical(const std::vector<double>& a, const std::vector<double>& b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i] != b[i])
            return false;
    }
    return true;
}

/**
 * Shared sweep workload: a QAOA instance (a random 3-regular MaxCut
 * graph, or an SK instance with Gaussian couplings when `sk`), its
 * cost factory, and the grid's points in axis-major order.
 */
struct SweepCase
{
    Graph graph;
    int depth;
    bool sk;
    std::vector<std::vector<double>> points;

    SweepCase(int num_qubits, int depth_, const GridSpec& grid,
              bool sk_ = false)
        : graph(makeGraph(num_qubits, sk_)), depth(depth_), sk(sk_)
    {
        const StatevectorCost probe = make();
        std::vector<std::size_t> indices(grid.numPoints());
        for (std::size_t i = 0; i < indices.size(); ++i)
            indices[i] = i;
        const auto perm = grid.prefixFriendlyPermutation(
            indices, probe.batchOrderHint());
        points.reserve(perm.size());
        for (std::size_t p : perm)
            points.push_back(grid.pointAt(p));
    }

    StatevectorCost
    make() const
    {
        return StatevectorCost(qaoaCircuit(graph, depth),
                               sk ? skHamiltonian(graph)
                                  : maxcutHamiltonian(graph));
    }

    static Graph
    makeGraph(int num_qubits, bool sk)
    {
        Rng rng(7);
        return sk ? skInstance(num_qubits, rng)
                  : random3RegularGraph(num_qubits, rng);
    }
};

/**
 * Time `run(cost)` once on a fresh cost of `sweep` built and
 * configured outside the timed region: the run starts with no resume
 * buffers or scratch states allocated and pays no circuit lowering or
 * diagonal-table build.
 */
template <typename Run>
double
timeFreshCost(const SweepCase& sweep, const KernelOptions& options,
              Run&& run)
{
    StatevectorCost cost = sweep.make();
    cost.configureKernel(options);
    const auto start = std::chrono::steady_clock::now();
    run(cost);
    return bench::secondsSince(start);
}

/** timeFreshCost `reps` times, back to back. */
template <typename Run>
bench::TimingStats
timeFreshCosts(const SweepCase& sweep, int reps,
               const KernelOptions& options, Run&& run)
{
    std::vector<double> seconds;
    for (int r = 0; r < reps; ++r)
        seconds.push_back(timeFreshCost(sweep, options, run));
    return bench::timingStats(std::move(seconds));
}

/**
 * Kernel-layer study: one row per kernel ISA available on this
 * host/build (scalar / AVX2 / AVX-512) for each of three workloads,
 * each replaying StatevectorCost's one plan on fresh costs:
 *
 *  - the acceptance sweep (axis-major 12q p=2 MaxCut QAOA, one batch,
 *    prefix resume and batched expectation), whose cost layers replay
 *    as phase ops on the 11-qubit half state;
 *  - the same sweep on a 12q SK instance (rows "sk_<isa>"), whose
 *    Gaussian couplings share no unit, so its cost layers replay as
 *    per-block diagonal tables on the full state;
 *  - the p1_exec request's gather: 150 samples (3%) of the 20-qubit
 *    p=1 grid through gatherCost on a 4-thread engine, as
 *    Oscar::reconstruct runs them (rows "p1_gather_<isa>").
 *
 * `match` checks every row against its workload's scalar row: bitwise
 * for scalar itself, within rounding (1e-12 relative, the 20-qubit
 * energies reach |E| ~ 30) for the wider ISAs. `state_amps` is the
 * amplitudes one replay covers: 2^(n-1) on the half state. The ISAs
 * take turns within each rep, so every avx512 row also reports its
 * alternating pairs against avx2 (`pairs_faster_than_avx2`,
 * `pair_ratio_vs_avx2_p50`).
 * Writes BENCH_kernels.json (median and quartiles per row) so the perf
 * trajectory is tracked across changes.
 */
void
runKernelStudy()
{
    struct IsaCase
    {
        const char* name;
        kernels::KernelIsa isa;
        bool available;
    };
    const IsaCase isa_cases[] = {
        {"scalar", kernels::KernelIsa::Scalar, true},
        {"avx2", kernels::KernelIsa::Avx2, kernels::avx2Available()},
        {"avx512", kernels::KernelIsa::Avx512,
         kernels::avx512Available()},
    };
    bench::JsonReport json("bench_engine/kernels");

    // One workload's rows: `run(cost, stats)` evaluates a fresh cost,
    // returning its values and filling the kernel stats of the run.
    // Each rep times every available ISA once, forward on even reps
    // and backward on odd ones, so neighbouring tiers form pairs
    // whose order alternates and host drift cannot favour either.
    auto study = [&](const std::string& title, const std::string& prefix,
                     const SweepCase& sweep, std::size_t num_points,
                     int reps, const auto& run) {
        bench::header(title + " (median of " + std::to_string(reps) + ")");
        bench::columns("isa", {"pts/s", "median_s", "p25_s", "p75_s",
                               "speedup", "match"});
        std::vector<const IsaCase*> isas;
        for (const IsaCase& isa : isa_cases) {
            if (isa.available)
                isas.push_back(&isa);
            else
                std::printf("  (skipping %s: unavailable on this "
                            "host/build)\n",
                            isa.name);
        }
        const std::size_t n = isas.size();
        std::vector<std::vector<double>> seconds(n), values(n);
        std::vector<KernelStats> stats(n);
        for (int r = 0; r < reps; ++r) {
            for (std::size_t k = 0; k < n; ++k) {
                const std::size_t i = r % 2 == 0 ? k : n - 1 - k;
                KernelOptions options;
                options.isa = isas[i]->isa;
                seconds[i].push_back(timeFreshCost(
                    sweep, options, [&](StatevectorCost& cost) {
                        values[i] = run(cost, stats[i]);
                    }));
            }
        }
        const StatevectorCost probe = sweep.make();
        const double state_amps =
            static_cast<double>(probe.compiled().stateDim());
        const double fused_units =
            static_cast<double>(probe.compiled().numFusedUnits());
        const std::vector<double>& reference = values[0];
        const double base_median = bench::timingStats(seconds[0]).median;
        for (std::size_t i = 0; i < n; ++i) {
            const IsaCase& isa = *isas[i];
            const bench::TimingStats timing = bench::timingStats(seconds[i]);
            bool match = values[i].size() == reference.size();
            for (std::size_t j = 0; match && j < values[i].size(); ++j) {
                match = isa.isa == kernels::KernelIsa::Scalar
                            ? values[i][j] == reference[j]
                            : std::abs(values[i][j] - reference[j]) <=
                                  1e-12 * std::max(1.0,
                                                   std::abs(reference[j]));
            }
            check(match);
            const double speedup = base_median / timing.median;
            const std::string name = prefix + isa.name;
            bench::row(name,
                       {static_cast<double>(num_points) / timing.median,
                        timing.median, timing.p25, timing.p75, speedup,
                        match ? 1.0 : 0.0},
                       " %10.4g");
            std::vector<std::pair<std::string, double>> extra = {
                {"speedup_vs_scalar", speedup},
                {"match", match ? 1.0 : 0.0},
                {"fused_units", fused_units},
                {"cache_lookups", static_cast<double>(stats[i].cacheLookups)},
                {"state_amps", state_amps}};
            // The AVX-512 row against its AVX2 neighbour, pair by pair.
            if (isa.isa == kernels::KernelIsa::Avx512 && i > 0 &&
                isas[i - 1]->isa == kernels::KernelIsa::Avx2) {
                std::vector<double> ratios;
                int faster = 0;
                for (int r = 0; r < reps; ++r) {
                    ratios.push_back(seconds[i][r] / seconds[i - 1][r]);
                    faster += seconds[i][r] < seconds[i - 1][r];
                }
                const double ratio_p50 =
                    bench::timingStats(std::move(ratios)).median;
                std::printf("  (%s vs %s over %d alternating pairs: "
                            "faster in %d, median time ratio %.3f)\n",
                            name.c_str(), (prefix + "avx2").c_str(), reps,
                            faster, ratio_p50);
                extra.push_back({"pairs_vs_avx2", reps});
                extra.push_back({"pairs_faster_than_avx2", faster});
                extra.push_back({"pair_ratio_vs_avx2_p50", ratio_p50});
            }
            json.add(name, timing, num_points, extra);
        }
    };

    // One batch over a sweep's points.
    auto batch = [](const SweepCase& sweep) {
        return [&sweep](StatevectorCost& cost, KernelStats& stats) {
            std::vector<double> values = cost.evaluateBatch(sweep.points);
            stats = cost.kernelStats();
            return values;
        };
    };
    const SweepCase sweep(12, 2, GridSpec::qaoaP2(5, 7));
    study("kernel layers: p=2 QAOA, 12 qubits, axis-major " +
              std::to_string(sweep.points.size()) + "-point sweep",
          "", sweep, sweep.points.size(), 7, batch(sweep));
    const SweepCase sk(12, 2, GridSpec::qaoaP2(5, 7), true);
    study("kernel layers: p=2 QAOA on an SK instance, 12 qubits, "
          "axis-major " +
              std::to_string(sk.points.size()) + "-point sweep",
          "sk_", sk, sk.points.size(), 7, batch(sk));

    const GridSpec p1_grid = GridSpec::qaoaP1();
    const SweepCase p1(20, 1, p1_grid);
    Rng sample_rng(2);
    const std::vector<std::size_t> indices =
        chooseSampleIndices(p1_grid.numPoints(), 0.03, sample_rng);
    ExecutionEngine engine(4);
    study("kernel layers: p1_exec gather, 20 qubits, " +
              std::to_string(indices.size()) + " samples on 4 threads",
          "p1_gather_", p1, indices.size(), 5,
          [&](StatevectorCost& cost, KernelStats& stats) {
              SampleSet samples = gatherCost(p1_grid, cost, indices, &engine);
              stats = samples.stats.kernel;
              return samples.values;
          });

    std::printf("  (default ISA: %s)\n",
                kernels::isaName(kernels::defaultKernelTable().isa));
    json.write("BENCH_kernels.json");
}

/**
 * Observability study (BENCH_obs.json): the same engine sweep with
 * tracing off and on; metrics record in both rows, as they always do.
 * The untraced row is the baseline; the traced row reports its
 * overhead ratio plus per-batch latency
 * percentiles read from the live engine.batch.latency.ns histogram
 * (the log2-bucket registry the metrics half of src/obs/ keeps), so
 * the p50/p95/p99 columns exercise exactly the code path `oscar-client
 * metrics` scrapes. Acceptance guard: tracing must cost no
 * measurable slowdown when off, and single-digit percent when on.
 */
void
runObsStudy()
{
    constexpr int kStudyReps = 5;
    const SweepCase sweep(12, 1, GridSpec::qaoaP1(30, 60));
    const std::size_t num_points = sweep.points.size();

    bench::header("observability overhead: p=1 QAOA, 12 qubits, " +
                  std::to_string(num_points) +
                  "-point engine sweep (median of " +
                  std::to_string(kStudyReps) + ")");
    bench::columns("mode", {"pts/s", "median_s", "p50_ms", "p95_ms",
                            "p99_ms", "overhead"});
    bench::JsonReport json("bench_engine/obs");

    ExecutionEngine engine(2);

    obs::setTracing(false);
    std::vector<double> reference;
    bench::TimingStats untraced;
    {
        untraced = timeFreshCosts(
            sweep, kStudyReps, KernelOptions{}, [&](StatevectorCost& cost) {
                reference = engine.submit(cost, sweep.points).get();
            });
        bench::row("untraced",
                   {static_cast<double>(num_points) / untraced.median,
                    untraced.median, 0.0, 0.0, 0.0, 1.0},
                   " %10.4g");
        json.add("untraced", untraced, num_points,
                 {{"overhead_vs_untraced", 1.0}});
    }

    obs::setTracing(true);
    obs::Histogram& latency =
        obs::Registry::global().histogram("engine.batch.latency.ns");
    const obs::HistogramSnapshot before = latency.snapshot();
    const std::uint64_t dropped_before =
        obs::Tracer::global().droppedSpans();
    std::vector<double> values;
    bench::TimingStats traced;
    traced = timeFreshCosts(sweep, kStudyReps, KernelOptions{},
                            [&](StatevectorCost& cost) {
                                values =
                                    engine.submit(cost, sweep.points).get();
                            });
    obs::setTracing(false);

    const obs::HistogramSnapshot delta = latency.snapshot() - before;
    const double p50_ms = delta.quantile(0.50) / 1e6;
    const double p95_ms = delta.quantile(0.95) / 1e6;
    const double p99_ms = delta.quantile(0.99) / 1e6;
    const double overhead = traced.median / untraced.median;
    const bool match = check(identical(values, reference));
    bench::row("traced",
               {static_cast<double>(num_points) / traced.median,
                traced.median, p50_ms, p95_ms, p99_ms, overhead},
               " %10.4g");
    std::printf("  (batch latency from the metrics histogram: "
                "p50 %.2f ms, p95 %.2f ms, p99 %.2f ms over %llu "
                "batches; %llu span(s) dropped by ring wrap; "
                "values %s)\n",
                p50_ms, p95_ms, p99_ms,
                static_cast<unsigned long long>(delta.count),
                static_cast<unsigned long long>(
                    obs::Tracer::global().droppedSpans() -
                    dropped_before),
                match ? "bit-identical" : "DIVERGED");
    json.add("traced", traced, num_points,
             {{"overhead_vs_untraced", overhead},
              {"p50_batch_ms", p50_ms},
              {"p95_batch_ms", p95_ms},
              {"p99_batch_ms", p99_ms},
              {"batches_observed", static_cast<double>(delta.count)},
              {"match", match ? 1.0 : 0.0}});
    json.write("BENCH_obs.json");
}

/** Bitwise equality, so -0.0 and +0.0 differ. */
bool
sameBits(const std::vector<double>& a, const std::vector<double>& b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (std::bit_cast<std::uint64_t>(a[i]) !=
            std::bit_cast<std::uint64_t>(b[i]))
            return false;
    }
    return true;
}

/**
 * CS solve study (BENCH_cs.json): fistaSolve alone -- the stage that
 * is ~90% of a p = 2 request -- on the p2_fista benchmark's fold,
 * (12, 12, 15, 15) -> 144 x 225 at 5%, and on (8, 8, 10, 10) ->
 * 64 x 100 at 10%, which is below kFistaParallelPoints and so runs
 * inline on every engine. The samples are the p = 2 QAOA landscape of
 * the accuracy gate's 8-node 3-regular MaxCut graph. Each fold is
 * solved with no engine and on engines of 1, 2 and 4 threads; every
 * row must equal the engine-free solve bit for bit (coefficients,
 * iterations, residual norm).
 */
void
runCsStudy()
{
    constexpr int kStudyReps = 7;
    struct Fold
    {
        const char* name;
        GridSpec grid;
        double fraction;
    };
    const Fold folds[] = {
        {"144x225 5%", GridSpec::qaoaP2(12, 15), 0.05},
        {"64x100 10%", GridSpec::qaoaP2(8, 10), 0.10},
    };
    Rng graph_rng(8);
    const Graph graph = random3RegularGraph(8, graph_rng);

    bench::header("CS solve: FISTA on the engine, 8-qubit p=2 QAOA "
                  "landscape (median of " +
                  std::to_string(kStudyReps) + ")");
    bench::columns("mode", {"median_s", "p25_s", "p75_s", "ms/iter",
                            "iters", "nrmse", "speedup", "identical"});
    bench::JsonReport json("bench_engine/cs");
    for (const Fold& fold : folds) {
        StatevectorCost cost(qaoaCircuit(graph, 2),
                             maxcutHamiltonian(graph));
        const Landscape truth =
            Landscape::gridSearch(fold.grid, cost, &bench::engine());
        Rng rng(1);
        const std::vector<std::size_t> indices = chooseSampleIndices(
            fold.grid.numPoints(), fold.fraction, rng);
        std::vector<double> values;
        for (std::size_t i : indices)
            values.push_back(truth.values()[i]);
        const auto folded = csFoldedShape(fold.grid.shape());
        const Dct2d dct(folded[0], folded[1]);
        const FistaResult reference = fistaSolve(dct, indices, values);
        const double error =
            nrmse(truth.values(), dct.inverse(reference.coefficients));

        // Modes alternate within each rep, so host drift over the
        // study lands on every mode alike.
        const int thread_counts[] = {0, 1, 2, 4};
        std::vector<std::unique_ptr<ExecutionEngine>> engines;
        for (int threads : thread_counts) {
            engines.push_back(threads > 0 ? std::make_unique<ExecutionEngine>(
                                                threads)
                                          : nullptr);
        }
        std::vector<std::vector<double>> seconds(engines.size());
        std::vector<bool> same(engines.size(), true);
        for (int rep = 0; rep < kStudyReps; ++rep) {
            for (std::size_t m = 0; m < engines.size(); ++m) {
                const auto start = std::chrono::steady_clock::now();
                const FistaResult result = fistaSolve(
                    dct, indices, values, {}, engines[m].get());
                seconds[m].push_back(bench::secondsSince(start));
                same[m] = same[m] &&
                          sameBits(result.coefficients.flat(),
                                   reference.coefficients.flat()) &&
                          result.iterations == reference.iterations &&
                          sameBits({result.residualNorm},
                                   {reference.residualNorm});
            }
        }
        const double serial_median = bench::timingStats(seconds[0]).median;
        for (std::size_t m = 0; m < engines.size(); ++m) {
            const int threads = thread_counts[m];
            check(same[m]);
            const bench::TimingStats timing =
                bench::timingStats(seconds[m]);
            const double ms_per_iter =
                timing.median * 1e3 /
                static_cast<double>(
                    std::max<std::size_t>(1, reference.iterations));
            const double speedup = serial_median / timing.median;
            const std::string name =
                std::string("fista ") + fold.name +
                (threads == 0 ? " no engine"
                              : " x" + std::to_string(threads));
            bench::row(name,
                       {timing.median, timing.p25, timing.p75, ms_per_iter,
                        static_cast<double>(reference.iterations), error,
                        speedup, same[m] ? 1.0 : 0.0},
                       " %10.4g");
            json.add(name, timing, fold.grid.numPoints(),
                     {{"threads", static_cast<double>(threads)},
                      {"iterations",
                       static_cast<double>(reference.iterations)},
                      {"ms_per_iter", ms_per_iter},
                      {"nrmse", error},
                      {"speedup_vs_no_engine", speedup},
                      {"identical", same[m] ? 1.0 : 0.0}});
        }
    }
    json.write("BENCH_cs.json");
}

constexpr int kReps = 3;

struct Mode
{
    std::string name;
    bench::TimingStats timing;
    bool identical;
};

void
report(const std::vector<Mode>& modes, std::size_t num_points)
{
    bench::columns("mode",
                   {"pts/s", "median_s", "min_s", "speedup", "identical"});
    const double base = modes.front().timing.median;
    for (const Mode& m : modes) {
        check(m.identical);
        bench::row(m.name,
                   {static_cast<double>(num_points) / m.timing.median,
                    m.timing.median, m.timing.min, base / m.timing.median,
                    m.identical ? 1.0 : 0.0},
                   " %10.4g");
    }
}

/**
 * Axis-major sweep benchmark: every point of `grid` for a depth-p QAOA
 * circuit, ordered by the backend's own batch order hint (the order
 * the landscape sampler emits).
 */
void
runSweep(int num_qubits, int depth, const GridSpec& grid)
{
    const SweepCase sweep(num_qubits, depth, grid);
    const auto& points = sweep.points;
    const std::size_t num_points = points.size();

    bench::header("p=" + std::to_string(depth) + " QAOA, " +
                  std::to_string(num_qubits) + " qubits, axis-major " +
                  std::to_string(num_points) + "-point sweep (median of " +
                  std::to_string(kReps) + ")");

    std::vector<Mode> modes;

    // 1. Per-point evaluate(): every point replayed from scratch.
    std::vector<double> reference;
    {
        const auto timing = timeFreshCosts(
            sweep, kReps, KernelOptions{}, [&](StatevectorCost& cost) {
                reference.clear();
                reference.reserve(points.size());
                for (const auto& p : points)
                    reference.push_back(cost.evaluate(p));
            });
        modes.push_back({"per-point evaluate (reference)", timing, true});
    }

    // 2. One batch on a fresh cost per rep: each point resumes from
    // the previous one's deepest shared frontier level.
    {
        std::vector<double> values;
        KernelStats stats;
        const auto timing = timeFreshCosts(
            sweep, kReps, KernelOptions{}, [&](StatevectorCost& cost) {
                values = cost.evaluateBatch(points);
                stats = cost.kernelStats();
            });
        modes.push_back(
            {"batch (resume)", timing, identical(values, reference)});
        std::printf("  (resumed %zu of %zu points with a frontier level)\n",
                    stats.cacheHits, stats.cacheLookups);
    }

    // 3. Engine with growing worker pools (one contiguous chunk per
    // replica).
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    for (unsigned threads = 2; threads <= hw && threads <= 8;
         threads *= 2) {
        ExecutionEngine engine(static_cast<int>(threads));
        std::vector<double> values;
        const auto timing = timeFreshCosts(
            sweep, kReps, KernelOptions{}, [&](StatevectorCost& cost) {
                values = engine.submit(cost, points).get();
            });
        modes.push_back({"engine x" + std::to_string(threads), timing,
                         identical(values, reference)});
    }

    report(modes, num_points);
}

} // namespace
} // namespace oscar

int
main()
{
    const unsigned hw = std::thread::hardware_concurrency();
    std::printf("hardware_concurrency: %u\n", hw);
    if (hw <= 1) {
        std::printf("note: single-core host; thread speedups need "
                    "cores, expect ~1x there\n");
    }

    // OSCAR_BENCH_ONLY=<substring> narrows to matching studies (the
    // observability CI leg runs only "obs").
    if (oscar::benchEnabled("sweeps")) {
        // The paper's p=1 landscape shape (beta x gamma), scalar-heavy.
        oscar::runSweep(12, 1, oscar::GridSpec::qaoaP1(30, 60));
        // The acceptance sweep: p=2, >= 12 qubits, axis-major order.
        oscar::runSweep(12, 2, oscar::GridSpec::qaoaP2(5, 7));
        oscar::runSweep(16, 1, oscar::GridSpec::qaoaP1(15, 30));
    }

    // Kernel-layer breakdown per ISA on three workloads; writes
    // BENCH_kernels.json.
    if (oscar::benchEnabled("kernels"))
        oscar::runKernelStudy();

    // Instrumentation overhead + live latency percentiles; writes
    // BENCH_obs.json.
    if (oscar::benchEnabled("obs"))
        oscar::runObsStudy();

    // The CS solve with and without the engine; writes BENCH_cs.json.
    if (oscar::benchEnabled("cs"))
        oscar::runCsStudy();

    if (oscar::failedChecks > 0) {
        std::printf("FAILED: %d identical/match check(s)\n",
                    oscar::failedChecks);
        return 1;
    }
    return 0;
}
