/**
 * @file
 * The reconstruction workloads: one closed-loop client calling
 * Oscar::reconstruct on the shared ExecutionEngine(4), one request at
 * a time, each on a fresh StatevectorCost (cold prefix cache, as in
 * oscar-serve).
 *
 *   p2_fista  12q p=2, qaoaP2(12,15) = 32,400 points, 5%, FISTA:
 *             solve-bound (FISTA runs to maxIters on the 144x225 fold)
 *   p1_exec   20q p=1, qaoaP1() = 5,000 points, 3%: execution-bound
 *   p2_omp    8q p=2, qaoaP2(8,10) = 6,400 points, 10%, OMP 160 atoms:
 *             the only workload through ompSolve
 */

#include <filesystem>
#include <memory>
#include <stdexcept>

#include "benchmark/bench.h"
#include "src/ansatz/qaoa.h"
#include "src/backend/analytic_qaoa.h"
#include "src/backend/statevector_backend.h"
#include "src/common/rng.h"
#include "src/graph/generators.h"
#include "src/hamiltonian/maxcut.h"
#include "src/landscape/landscape.h"
#include "src/store/landscape_store.h"

namespace oscar {
namespace obench {

namespace {

struct ReconWorkload
{
    std::uint64_t tag = 0;
    int qubits = 0;
    int depth = 0;
    GridSpec grid;
    double fraction = 0.0;
    CsOptions cs;
    /** Truth from the closed form (p=1) instead of a grid search. */
    bool analyticTruth = false;
    double nrmseCeiling = 0.0;
    /** Timed requests a run makes at least, whatever its window. */
    std::size_t minRequests = 0;
};

ReconWorkload
reconWorkload(const std::string& name)
{
    ReconWorkload w;
    if (name == "p2_fista") {
        w = {1, 12, 2, GridSpec::qaoaP2(12, 15), 0.05, {}, false, 0.30, 3};
    } else if (name == "p1_exec") {
        // Its requests vary more within a run than the others' do, so
        // a run takes more of them for a steadier median.
        w = {2, 20, 1, GridSpec::qaoaP1(), 0.03, {}, true, 0.30, 8};
    } else if (name == "p2_omp") {
        w = {3, 8, 2, GridSpec::qaoaP2(8, 10), 0.10, {}, false, 0.40, 3};
        w.cs.solver = CsSolver::Omp;
        w.cs.omp.maxAtoms = 160;
    } else {
        throw std::invalid_argument("unknown reconstruction workload " +
                                    name);
    }
    return w;
}

} // namespace

RunResult
runRecon(const Args& args, ExecutionEngine& engine)
{
    const ReconWorkload w = reconWorkload(args.workload);
    const std::uint64_t base = mixSeed(args.seed, w.tag);
    Rng graph_rng(base);
    const Graph graph = random3RegularGraph(w.qubits, graph_rng);
    const Circuit circuit = qaoaCircuit(graph, w.depth);
    const PauliSum hamiltonian = maxcutHamiltonian(graph);

    // Benchmark-only preparation: the truth landscape.
    const double prep_start = nowS();
    std::vector<double> truth;
    if (w.analyticTruth) {
        AnalyticQaoaCost exact(graph);
        truth = Landscape::gridSearch(w.grid, exact, &engine).values().flat();
    } else {
        StatevectorCost exact(circuit, hamiltonian);
        truth = Landscape::gridSearch(w.grid, exact, &engine).values().flat();
    }

    const double prep_s = nowS() - prep_start;

    auto request = [&](std::size_t r) {
        ReconRequest req;
        req.grid = &w.grid;
        req.circuit = &circuit;
        req.hamiltonian = &hamiltonian;
        req.options.samplingFraction = w.fraction;
        req.options.seed = mixSeed(base, r);
        req.options.cs = w.cs;
        return req;
    };

    RunResult result;
    result.extra("prep_s", prep_s, "s");

    // Set-up: what a fresh process builds before its first request --
    // the engine and the first compiled cost. Untraced runs repeat it
    // before the warm-up and after every timed request.
    SetupClock setup([&] {
        const double t0 = nowS();
        const auto eng = std::make_unique<ExecutionEngine>(4);
        auto cost = std::make_unique<StatevectorCost>(circuit, hamiltonian);
        cost->configureKernel(KernelOptions{});
        return nowS() - t0;
    });
    if (!args.trace)
        setup.burst();
    resetPeakRss(result);

    // Warm-up: pays lazy set-up and empty caches (skipped by --smoke,
    // whose single request is both the first and the timed one).
    double first_s = 0.0;
    if (!args.smoke) {
        const double t0 = nowS();
        const OscarResult first = reconstructOnce(request(0), &engine);
        first_s = nowS() - t0;
        ++result.attempted;
        gateValues(result, first.reconstructed.values().flat(), truth,
                   w.nrmseCeiling, nullptr);
    }

    auto more = [&](std::size_t done, double elapsed) {
        if (args.smoke)
            return done < 1;
        return done < w.minRequests || elapsed < args.seconds;
    };

    if (!args.trace) {
        std::vector<double> latency;
        std::vector<double> errors;
        // The window counts time in requests only, not the set-up
        // bursts between them.
        double busy = 0.0;
        for (std::size_t r = 1; more(latency.size(), busy); ++r) {
            const double t0 = nowS();
            const OscarResult out = reconstructOnce(request(r), &engine);
            latency.push_back(nowS() - t0);
            busy += latency.back();
            ++result.attempted;
            double err = 0.0;
            // nrmse.p50 covers only the requests every run makes, so it
            // reads the same on every run of a seed.
            if (gateValues(result, out.reconstructed.values().flat(), truth,
                           w.nrmseCeiling, &err) &&
                latency.size() <= w.minRequests)
                errors.push_back(err);
            setup.burst();
        }
        if (args.smoke)
            first_s = latency.front();

        result.metric("recon_s.p50", median(latency), "s");
        result.metric("req_per_s", static_cast<double>(latency.size()) / busy,
                      "1/s");
        result.metric("setup_s", setup.median(), "s");
        result.metric("peak_rss_mb", peakRssMb(), "MB");
        result.extra("first_s", first_s, "s");
        result.extra("setup_s.n", static_cast<double>(setup.count()),
                     "count");
        addQuartiles(result, "recon_s", latency, "s");
        addQuartiles(result, "nrmse", errors, "ratio");
        return result;
    }

    // Traced: each request runs twice, untraced (the reference and the
    // overhead base) and composed from spans; the order alternates so
    // neither side always runs second.
    SpanLog log;
    LayerReport report;
    const double start = nowS();
    for (std::size_t r = 1; more(report.requests.size(), nowS() - start);
         ++r) {
        const ReconRequest req = request(r);
        OscarResult reference;
        TracedRequest traced;
        auto untraced = [&] {
            const double t0 = nowS();
            reference = reconstructOnce(req, &engine);
            report.untracedS.push_back(nowS() - t0);
        };
        if (r % 2 == 1)
            untraced();
        traced = reconstructTraced(log, r, req, &engine);
        if (r % 2 == 0)
            untraced();
        ++result.attempted;
        checkTraced(result, traced, reference, truth, w.nrmseCeiling);
        report.requests.push_back(std::move(traced));
    }

    // The store layer on this workload's landscapes: persist each
    // traced request and read it back, outside the request spans.
    {
        const ScratchDir dir(args.outDir, "store-" + args.workload + "-");
        store::StoreOptions store_options;
        store_options.dir = dir.path();
        store::LandscapeStore landscapes(store_options);
        std::uint64_t total_bytes = 0;
        for (std::size_t i = 0; i < report.requests.size(); ++i) {
            const TracedRequest& t = report.requests[i];
            const ReconRequest req = request(i + 1);
            store::StoredLandscape entry;
            entry.grid = w.grid;
            entry.sampleIndices.assign(t.sampleIndices.begin(),
                                       t.sampleIndices.end());
            entry.sampleValues = t.sampleValues;
            entry.reconstructed = t.values;
            entry.kernel = t.kernel;
            entry.samplingFraction = w.fraction;
            entry.sampleSeed = req.options.seed;
            entry.queriesUsed = t.sampleIndices.size();
            entry.querySpeedup =
                static_cast<double>(w.grid.numPoints()) /
                static_cast<double>(t.sampleIndices.size());
            const store::StoreKey key{base, store::gridHash(w.grid),
                                      store::configHash(w.fraction,
                                                        req.options.seed)};
            {
                SpanLog::Scope s(log, "store.put", -1, i + 1);
                landscapes.put(key, entry);
                report.storePutMs.push_back(s.close() * 1e3);
            }
            total_bytes +=
                std::filesystem::file_size(landscapes.containerPath(key));
            SpanLog::Scope s(log, "store.get", -1, i + 1);
            const auto loaded = landscapes.load(key);
            report.storeGetMs.push_back(s.close() * 1e3);
            if (!loaded || !sameBits(loaded->reconstructed, t.values))
                result.failCheck("store read-back differs from the put");
        }
        report.containerKb = static_cast<double>(total_bytes) / 1024.0 /
                             static_cast<double>(report.requests.size());
    }

    report.dctMs = dctMs(log, w.grid.shape());
    report.speedup4t = gatherSeconds(request(1), ExecutionEngine::serial()) /
                       gatherSeconds(request(1), engine);

    addLayerMetrics(result, report);
    const std::string trace_path =
        args.outDir + "/trace-" + args.workload + ".json";
    if (!log.writeChromeTrace(trace_path))
        result.failCheck("cannot write " + trace_path);
    return result;
}

} // namespace obench
} // namespace oscar
