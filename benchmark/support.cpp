#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <malloc.h>
#include <optional>
#include <stdexcept>

#include "benchmark/bench.h"
#include "src/backend/statevector_backend.h"
#include "src/common/rng.h"
#include "src/cs/dct.h"
#include "src/cs/reconstructor.h"
#include "src/landscape/metrics.h"
#include "src/landscape/sampler.h"
#include "src/quantum/kernels.h"

namespace oscar {
namespace obench {

void
RunResult::fail(const std::string& why)
{
    ++failed;
    std::fprintf(stderr, "oscar_bench: request failed: %s\n", why.c_str());
}

void
RunResult::failCheck(const std::string& why)
{
    checksPassed = false;
    std::fprintf(stderr, "oscar_bench: check failed: %s\n", why.c_str());
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] + (pos - static_cast<double>(lo)) *
                            (values[hi] - values[lo]);
}

void
addQuartiles(RunResult& result, const std::string& name,
             const std::vector<double>& values, const std::string& unit)
{
    result.extra(name + ".n", static_cast<double>(values.size()), "count");
    result.extra(name + ".p25", quantile(values, 0.25), unit);
    result.extra(name + ".p50", quantile(values, 0.50), unit);
    result.extra(name + ".p75", quantile(values, 0.75), unit);
}

// ----------------------------------------------------------------- spans

SpanLog::Scope::Scope(SpanLog& log, const char* name, int parent,
                      std::uint64_t request)
    : log_(log), id_(static_cast<int>(log.spans_.size()))
{
    log_.spans_.push_back({name, nowS(), 0.0, parent, request});
}

double
SpanLog::Scope::close()
{
    if (open_) {
        log_.spans_[id_].t1 = nowS();
        open_ = false;
    }
    return log_.seconds(id_);
}

bool
SpanLog::writeChromeTrace(const std::string& path,
                          const std::string& extra_events) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    out << "{\"traceEvents\":[\n"
        << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
           "\"args\":{\"name\":\"oscar_bench\"}}";
    char buf[512];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        std::snprintf(buf, sizeof(buf),
                      ",\n{\"name\":\"%s\",\"cat\":\"bench\",\"ph\":\"X\","
                      "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":1,"
                      "\"args\":{\"id\":%zu,\"parent\":%d,\"request\":%llu}}",
                      s.name.c_str(), s.t0 * 1e6, (s.t1 - s.t0) * 1e6, i,
                      s.parent, static_cast<unsigned long long>(s.request));
        out << buf;
    }
    out << extra_events << "\n]}\n";
    return static_cast<bool>(out);
}

// -------------------------------------------------------------- requests

OscarResult
reconstructOnce(const ReconRequest& request, ExecutionEngine* engine)
{
    StatevectorCost cost(*request.circuit, *request.hamiltonian);
    return Oscar::reconstruct(*request.grid, cost, request.options, engine);
}

TracedRequest
reconstructTraced(SpanLog& log, std::uint64_t request_id,
                  const ReconRequest& request, ExecutionEngine* engine)
{
    TracedRequest out;
    const GridSpec& grid = *request.grid;
    const OscarOptions& options = request.options;
    SpanLog::Scope root(log, "request", -1, request_id);
    const int parent = root.id();

    std::optional<PipelineEngine> pipeline;
    {
        SpanLog::Scope s(log, "backend.engine", parent, request_id);
        pipeline.emplace(engine, options);
        out.engineS = s.close();
    }
    std::optional<StatevectorCost> cost;
    {
        SpanLog::Scope s(log, "quantum.compile", parent, request_id);
        cost.emplace(*request.circuit, *request.hamiltonian);
        out.compileS = s.close();
    }
    {
        SpanLog::Scope s(log, "quantum.configure", parent, request_id);
        cost->configureKernel(options.kernel);
        out.configureS = s.close();
    }
    std::vector<std::size_t> indices;
    {
        SpanLog::Scope s(log, "landscape.select", parent, request_id);
        Rng rng(options.seed);
        indices = chooseSampleIndices(grid.numPoints(),
                                      options.samplingFraction, rng);
        out.selectS = s.close();
    }
    SampleSet samples;
    {
        SpanLog::Scope s(log, "backend.exec", parent, request_id);
        samples = gatherCost(grid, *cost, indices, pipeline->get());
        out.execS = s.close();
    }
    CsSolveResult solve;
    {
        SpanLog::Scope s(log, "cs.solve", parent, request_id);
        solve = csSolveFolded(grid.shape(), samples.indices, samples.values,
                              options.cs);
        out.solveS = s.close();
    }
    // Teardown belongs to the request, as in Oscar::reconstruct.
    cost.reset();
    pipeline.reset();
    out.requestS = root.close();
    out.selfS = out.requestS - out.engineS - out.compileS - out.configureS -
                out.selectS - out.execS - out.solveS;

    out.values = std::move(solve.values.flat());
    out.iterations = solve.iterations;
    out.lambdaFraction =
        options.cs.solver == CsSolver::Fista ? solve.lambdaFraction : 0.0;
    out.kernel = samples.stats.kernel;
    double num = 0.0;
    double den = 0.0;
    for (std::size_t i = 0; i < samples.indices.size(); ++i) {
        const double d = out.values[samples.indices[i]] - samples.values[i];
        num += d * d;
        den += samples.values[i] * samples.values[i];
    }
    out.residualRel = den > 0.0 ? std::sqrt(num / den) : 0.0;
    out.sampleIndices = std::move(samples.indices);
    out.sampleValues = std::move(samples.values);
    return out;
}

double
gatherSeconds(const ReconRequest& request, ExecutionEngine& engine)
{
    Rng rng(request.options.seed);
    const auto indices = chooseSampleIndices(
        request.grid->numPoints(), request.options.samplingFraction, rng);
    // Short gathers repeat (fresh cost each time) for a stable median.
    std::vector<double> seconds;
    const double start = nowS();
    while (seconds.empty() || (seconds.size() < 50 && nowS() - start < 0.2)) {
        StatevectorCost cost(*request.circuit, *request.hamiltonian);
        cost.configureKernel(request.options.kernel);
        const double t0 = nowS();
        const SampleSet samples =
            gatherCost(*request.grid, cost, indices, &engine);
        seconds.push_back(nowS() - t0);
    }
    return median(seconds);
}

double
dctMs(SpanLog& log, const std::vector<std::size_t>& shape)
{
    const auto folded = csFoldedShape(shape);
    const Dct2d dct(folded[0], folded[1]);
    NdArray x({folded[0], folded[1]});
    Rng rng(7);
    for (double& v : x.flat())
        v = rng.uniform(-1.0, 1.0);
    // Enough repetitions for a stable median, bounded in time.
    std::vector<double> ms;
    const double start = nowS();
    while (ms.size() < 5 || (ms.size() < 200 && nowS() - start < 0.25)) {
        SpanLog::Scope s(log, "cs.dct", -1, 0);
        x = dct.inverse(dct.forward(x));
        ms.push_back(s.close() * 1e3);
    }
    return median(ms);
}

void
addLayerMetrics(RunResult& result, const LayerReport& report)
{
    const auto& reqs = report.requests;
    auto over = [&reqs](auto fn) {
        std::vector<double> v;
        for (const TracedRequest& r : reqs)
            v.push_back(fn(r));
        return median(v);
    };
    std::size_t hits = 0;
    std::size_t lookups = 0;
    for (const TracedRequest& r : reqs) {
        hits += r.kernel.cacheHits;
        lookups += r.kernel.cacheLookups;
    }

    result.metric("core.self_ms",
                  over([](const TracedRequest& r) { return r.selfS * 1e3; }),
                  "ms");
    result.metric(
        "quantum.compile_ms",
        over([](const TracedRequest& r) { return r.compileS * 1e3; }), "ms");
    result.metric(
        "landscape.select_ms",
        over([](const TracedRequest& r) { return r.selectS * 1e3; }), "ms");
    result.metric("landscape.samples",
                  over([](const TracedRequest& r) {
                      return static_cast<double>(r.sampleIndices.size());
                  }),
                  "count");
    result.metric("backend.exec_s",
                  over([](const TracedRequest& r) { return r.execS; }), "s");
    result.metric(
        "backend.exec_share",
        over([](const TracedRequest& r) { return r.execS / r.requestS; }),
        "ratio");
    result.metric("backend.points_per_s",
                  over([](const TracedRequest& r) {
                      return static_cast<double>(r.sampleIndices.size()) /
                             r.execS;
                  }),
                  "1/s");
    result.metric("backend.cache_hit_ratio",
                  lookups > 0 ? static_cast<double>(hits) /
                                    static_cast<double>(lookups)
                              : 0.0,
                  "ratio");
    result.metric("backend.speedup_4t", report.speedup4t, "ratio");
    result.metric("cs.solve_s",
                  over([](const TracedRequest& r) { return r.solveS; }), "s");
    result.metric(
        "cs.solve_share",
        over([](const TracedRequest& r) { return r.solveS / r.requestS; }),
        "ratio");
    result.metric("cs.iters",
                  over([](const TracedRequest& r) {
                      return static_cast<double>(r.iterations);
                  }),
                  "count");
    result.metric("cs.ms_per_iter",
                  over([](const TracedRequest& r) {
                      return r.solveS * 1e3 /
                             static_cast<double>(
                                 std::max<std::size_t>(1, r.iterations));
                  }),
                  "ms");
    result.metric(
        "cs.lambda_final",
        over([](const TracedRequest& r) { return r.lambdaFraction; }),
        "ratio");
    result.metric(
        "cs.residual_rel",
        over([](const TracedRequest& r) { return r.residualRel; }), "ratio");
    result.metric("cs.dct_ms", report.dctMs, "ms");
    result.metric("store.get_ms", median(report.storeGetMs), "ms");
    result.metric("store.put_ms", median(report.storePutMs), "ms");
    result.metric("store.container_kb", report.containerKb, "KiB");
    result.metric("serve.evaluations",
                  static_cast<double>(report.serveEvaluations), "count");
    result.metric("serve.store_hits",
                  static_cast<double>(report.serveStoreHits), "count");
    result.metric("serve.errors", static_cast<double>(report.serveErrors),
                  "count");
    result.metric("obs.trace_overhead",
                  over([](const TracedRequest& r) { return r.requestS; }) /
                      median(report.untracedS),
                  "ratio");
    result.metric("obs.dropped_spans",
                  static_cast<double>(report.droppedSpans), "count");

    // The stage split of a request, for the summary and the record.
    const double request =
        over([](const TracedRequest& r) { return r.requestS; });
    result.extra("request_s.p50", request, "s");
    result.extra("stage.engine_share",
                 over([](const TracedRequest& r) { return r.engineS; }) /
                     request,
                 "ratio");
    result.extra("stage.compile_share",
                 over([](const TracedRequest& r) {
                     return r.compileS + r.configureS;
                 }) / request,
                 "ratio");
    result.extra("stage.select_share",
                 over([](const TracedRequest& r) { return r.selectS; }) /
                     request,
                 "ratio");
    result.extra("stage.self_share_max",
                 [&reqs] {
                     double worst = 0.0;
                     for (const TracedRequest& r : reqs)
                         worst = std::max(worst, r.selfS / r.requestS);
                     return worst;
                 }(),
                 "ratio");
}

bool
gateValues(RunResult& result, const std::vector<double>& values,
           const std::vector<double>& truth, double nrmse_ceiling,
           double* nrmse_out)
{
    for (double v : values) {
        if (!std::isfinite(v)) {
            result.fail("non-finite value in the reconstruction");
            return false;
        }
    }
    const std::vector<std::size_t> shape{values.size()};
    const double err = nrmse(NdArray(shape, truth), NdArray(shape, values));
    if (nrmse_out)
        *nrmse_out = err;
    if (!(err <= nrmse_ceiling)) {
        result.fail("NRMSE " + std::to_string(err) + " above ceiling " +
                    std::to_string(nrmse_ceiling));
        return false;
    }
    return true;
}

void
checkTraced(RunResult& result, const TracedRequest& traced,
            const OscarResult& untraced, const std::vector<double>& truth,
            double nrmse_ceiling)
{
    if (!sameBits(traced.values, untraced.reconstructed.values().flat()) ||
        traced.sampleIndices != untraced.samples.indices ||
        !sameBits(traced.sampleValues, untraced.samples.values)) {
        result.fail("traced request differs from Oscar::reconstruct");
        return;
    }
    gateValues(result, traced.values, truth, nrmse_ceiling, nullptr);
}

// ---------------------------------------------------------------- process

void
resetPeakRss(RunResult& result)
{
    ::malloc_trim(0);
    std::ofstream clear("/proc/self/clear_refs");
    clear << "5";
    clear.flush();
    const bool reset = static_cast<bool>(clear);
    if (!reset)
        std::fprintf(stderr, "oscar_bench: cannot reset VmHWM through "
                             "/proc/self/clear_refs; peak_rss_mb includes "
                             "the benchmark's own preparation\n");
    result.extra("peak_rss_reset", reset ? 1.0 : 0.0, "bool");
}

double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) * 1024.0 / 1e6;
    }
    throw std::runtime_error("VmHWM missing from /proc/self/status");
}

std::string
isaName()
{
    return kernels::isaName(kernels::defaultKernelTable().isa);
}

bool
sameBits(const std::vector<double>& a, const std::vector<double>& b)
{
    return a.size() == b.size() &&
           (a.empty() ||
            std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

ScratchDir::ScratchDir(const std::string& parent, const std::string& prefix)
{
    std::filesystem::create_directories(parent);
    std::string tmpl = parent + "/" + prefix + "XXXXXX";
    if (!::mkdtemp(tmpl.data()))
        throw std::runtime_error("mkdtemp failed under " + parent);
    path_ = tmpl;
}

ScratchDir::~ScratchDir()
{
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
}

const std::vector<std::string>&
workloadNames()
{
    static const std::vector<std::string> names{"p2_fista", "p1_exec",
                                                "p2_omp", "serve_mix"};
    return names;
}

} // namespace obench
} // namespace oscar
