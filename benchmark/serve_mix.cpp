/**
 * @file
 * The serving workload: an in-process ServeServer with the daemon's
 * defaults (2 job threads, per-request engines sized to the hardware)
 * and a landscape store, driven by 4 closed-loop clients -- every
 * oscar-client waits for its reply before sending the next request.
 * Half the requests name one of 16 warm keys stored before timing (a
 * store read); half name a fresh sample seed (a computation plus an
 * fsync'd store write), so hits queue behind misses for the job
 * threads. Requests are 6q p=1 QAOA on qaoaP1(20,40) at 15% sampling:
 * at 5% the reconstruction error is too large to gate on.
 *
 * The mix itself -- the 50/50 hit/miss split, 16 warm keys, 4 clients
 * -- is unverified: no measured or published request trace of OSCAR
 * traffic exists to derive it from. The hit ratio sets both the miss
 * latency and the request rate (misses queue behind hits for the job
 * threads), so runs of this workload are marked as not claimable.
 */

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <thread>

#include "benchmark/bench.h"
#include "src/ansatz/qaoa.h"
#include "src/backend/analytic_qaoa.h"
#include "src/backend/statevector_backend.h"
#include "src/common/rng.h"
#include "src/graph/generators.h"
#include "src/hamiltonian/maxcut.h"
#include "src/landscape/landscape.h"
#include "src/obs/trace.h"
#include "src/quantum/kernels.h"
#include "src/serve/client.h"
#include "src/serve/server.h"

namespace oscar {
namespace obench {

namespace {

namespace fs = std::filesystem;

constexpr int kClients = 4;
constexpr std::size_t kWarmKeys = 16;
/** Miss seeds checked bitwise against an in-process reconstruct. */
constexpr std::size_t kCheckedMisses = 20;
constexpr double kNrmseCeiling = 0.20;
constexpr std::uint64_t kTag = 4;

/** One reply as a client saw it. */
struct Reply
{
    bool warm = false;
    /** Warm key index, or miss seed index. */
    std::size_t key = 0;
    double seconds = 0.0;
    bool ok = false;
    serve::ServedFrom from = serve::ServedFrom::Computed;
    std::string error;
    std::vector<double> values;
};

/** Runs a server's poll loop on a thread; stops and joins on exit. */
class ServerThread
{
  public:
    explicit ServerThread(serve::ServeServer& server)
        : server_(server), thread_([this] { server_.run(); })
    {
    }
    ~ServerThread()
    {
        server_.stop();
        thread_.join();
    }
    ServerThread(const ServerThread&) = delete;
    ServerThread& operator=(const ServerThread&) = delete;

  private:
    serve::ServeServer& server_;
    std::thread thread_;
};

/**
 * Drains obs::Tracer every few ms while the mix runs, keeping the
 * store and serve spans. The daemon's per-thread span rings are small
 * (OSCAR_TRACE_BUFFER_KB=32), so draining often is what keeps them
 * from wrapping.
 */
class SpanDrainer
{
  public:
    SpanDrainer() : thread_([this] { loop(); }) {}
    ~SpanDrainer() { stop(); }
    SpanDrainer(const SpanDrainer&) = delete;
    SpanDrainer& operator=(const SpanDrainer&) = delete;

    /** Stop, take a last drain, and return every kept span. */
    std::vector<obs::SpanRecord>
    stop()
    {
        if (thread_.joinable()) {
            running_.store(false);
            thread_.join();
            keep();
        }
        return kept_;
    }

  private:
    void
    loop()
    {
        while (running_.load()) {
            keep();
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
    }

    void
    keep()
    {
        for (const obs::SpanRecord& s : obs::Tracer::global().drain()) {
            if (s.category == obs::SpanCategory::Store ||
                s.category == obs::SpanCategory::Serve)
                kept_.push_back(s);
        }
    }

    std::atomic<bool> running_{true};
    std::vector<obs::SpanRecord> kept_;
    std::thread thread_;
};

bool
named(const obs::SpanRecord& s, const char* name)
{
    return std::strcmp(s.name, name) == 0;
}

/**
 * Split the daemon's store spans by what its job did: a job whose
 * serve "execute" span encloses a store "put" computed (a miss); any
 * other job's "get" was a hit.
 */
void
storeSpanTimes(const std::vector<obs::SpanRecord>& spans,
               LayerReport& report, std::size_t* gets, std::size_t* puts)
{
    std::map<std::uint32_t, std::vector<const obs::SpanRecord*>> by_tid;
    for (const obs::SpanRecord& s : spans)
        by_tid[s.tid].push_back(&s);
    *gets = 0;
    *puts = 0;
    for (const auto& [tid, list] : by_tid) {
        for (const obs::SpanRecord* s : list) {
            if (s->category == obs::SpanCategory::Store) {
                if (named(*s, "get"))
                    ++*gets;
                if (named(*s, "put")) {
                    ++*puts;
                    report.storePutMs.push_back(s->durNs / 1e6);
                }
            }
            if (s->category != obs::SpanCategory::Serve ||
                !named(*s, "execute"))
                continue;
            const obs::SpanRecord* get = nullptr;
            bool put = false;
            for (const obs::SpanRecord* inner : list) {
                if (inner->category != obs::SpanCategory::Store ||
                    inner->t0Ns < s->t0Ns ||
                    inner->t0Ns + inner->durNs > s->t0Ns + s->durNs)
                    continue;
                if (named(*inner, "put"))
                    put = true;
                if (named(*inner, "get"))
                    get = inner;
            }
            if (get && !put)
                report.storeGetMs.push_back(get->durNs / 1e6);
        }
    }
}

/** obs spans as Chrome trace events (comma-led), for the trace file. */
std::string
renderObsSpans(const std::vector<obs::SpanRecord>& spans)
{
    std::string out;
    char buf[256];
    for (const obs::SpanRecord& s : spans) {
        std::snprintf(buf, sizeof(buf),
                      ",\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                      "\"ts\":%.3f,\"dur\":%.3f,\"pid\":2,\"tid\":%u}",
                      s.name, obs::spanCategoryName(s.category),
                      s.t0Ns / 1e3, s.durNs / 1e3, s.tid);
        out += buf;
    }
    return out;
}

} // namespace

RunResult
runServeMix(const Args& args, ExecutionEngine& engine)
{
    const std::uint64_t base = mixSeed(args.seed, kTag);
    Rng graph_rng(base);
    const Graph graph = random3RegularGraph(6, graph_rng);
    const Circuit circuit = qaoaCircuit(graph, 1);
    const PauliSum hamiltonian = maxcutHamiltonian(graph);
    const GridSpec grid = GridSpec::qaoaP1(20, 40);
    const double fraction = 0.15;
    auto warm_seed = [base](std::size_t k) { return mixSeed(base, k + 1); };
    auto miss_seed = [base](std::size_t j) {
        return mixSeed(base, 1000000 + j);
    };

    // Benchmark-only preparation: the truth landscape.
    const double prep_start = nowS();
    AnalyticQaoaCost exact(graph);
    const std::vector<double> truth =
        Landscape::gridSearch(grid, exact, &engine).values().flat();
    const double prep_s = nowS() - prep_start;

    const ScratchDir dir(args.outDir, "serve-");
    auto daemon_options = [&dir](const std::string& name) {
        serve::ServeOptions o;
        o.socketPath = dir.path() + "/" + name + ".sock";
        if (o.socketPath.size() >= 100)
            o.socketPath = fs::relative(o.socketPath).string();
        o.storeDir = dir.path() + "/" + name + "-store";
        return o;
    };
    const serve::ServeOptions options = daemon_options("serve");

    // The in-process twin of a served request: the daemon's options.
    auto request = [&](std::uint64_t sample_seed) {
        ReconRequest req;
        req.grid = &grid;
        req.circuit = &circuit;
        req.hamiltonian = &hamiltonian;
        req.options = options.oscar;
        req.options.samplingFraction = fraction;
        req.options.seed = sample_seed;
        req.options.kernel.isa =
            kernels::kernelTable(req.options.kernel.isa).isa;
        return req;
    };
    auto message = [&](std::uint64_t sample_seed) {
        serve::RequestMsg msg;
        msg.kind = serve::RequestKind::Reconstruct;
        msg.cost.circuit = circuit;
        msg.cost.hamiltonian = hamiltonian;
        msg.grid = grid;
        msg.samplingFraction = fraction;
        msg.sampleSeed = sample_seed;
        return msg;
    };

    RunResult result;
    result.claimable = false;
    result.extra("prep_s", prep_s, "s");

    // Set-up: daemon construction (store, socket, job threads) plus the
    // first compiled cost. Untraced runs repeat it, on a socket and
    // store of its own, before the warm-up and after every warm-up
    // request; the timed mix leaves no gaps for it.
    const serve::ServeOptions setup_options = daemon_options("setup");
    SetupClock setup([&] {
        const double t0 = nowS();
        const auto daemon =
            std::make_unique<serve::ServeServer>(setup_options);
        const StatevectorCost cost(circuit, hamiltonian);
        return nowS() - t0;
    });
    if (!args.trace)
        setup.burst();
    serve::ServeServer server(options);
    const ServerThread server_thread(server);
    resetPeakRss(result);

    // Warm-up: one client stores the warm keys on the fresh daemon and
    // empty store; first_s is the whole phase (one request alone is
    // too short to time steadily) without the set-up bursts.
    std::vector<std::vector<double>> warm_values(kWarmKeys);
    double first_s = 0.0;
    {
        serve::ServeClient client(options.socketPath);
        for (std::size_t k = 0; k < kWarmKeys; ++k) {
            const double t0 = nowS();
            const serve::ResponseMsg resp = client.call(message(warm_seed(k)));
            first_s += nowS() - t0;
            ++result.attempted;
            if (!args.trace)
                setup.burst();
            if (resp.status != serve::ResponseStatus::Ok) {
                result.fail("warm-up request: " + resp.error);
                continue;
            }
            warm_values[k] = resp.landscape.reconstructed;
        }
    }

    // The timed mix.
    const serve::ServeCounters before = server.counters();
    std::optional<SpanDrainer> drainer;
    if (args.trace) {
        obs::setTracing(true);
        drainer.emplace();
    }
    std::vector<std::vector<Reply>> replies(kClients);
    std::atomic<std::size_t> next_miss{0};
    const int clients = args.smoke ? 1 : kClients;
    const double start = nowS();
    {
        std::vector<std::thread> threads;
        for (int c = 0; c < clients; ++c) {
            threads.emplace_back([&, c] {
                std::vector<Reply>& out = replies[c];
                std::optional<serve::ServeClient> client;
                try {
                    client.emplace(options.socketPath);
                } catch (const std::exception& e) {
                    out.push_back({});
                    out.back().error = e.what();
                    return;
                }
                Rng mix(mixSeed(base, 500 + static_cast<std::uint64_t>(c)));
                while (args.smoke ? out.size() < 2
                                  : nowS() - start < args.seconds) {
                    Reply reply;
                    reply.warm = args.smoke ? out.empty() : mix.uniform() < 0.5;
                    reply.key = reply.warm ? mix.uniformInt(kWarmKeys)
                                           : next_miss.fetch_add(1);
                    const serve::RequestMsg msg =
                        message(reply.warm ? warm_seed(reply.key)
                                           : miss_seed(reply.key));
                    const double t0 = nowS();
                    try {
                        serve::ResponseMsg resp = client->call(msg);
                        reply.seconds = nowS() - t0;
                        reply.ok = resp.status == serve::ResponseStatus::Ok;
                        reply.from = resp.servedFrom;
                        reply.error = resp.error;
                        reply.values = std::move(resp.landscape.reconstructed);
                    } catch (const std::exception& e) {
                        reply.seconds = nowS() - t0;
                        reply.error = e.what();
                    }
                    out.push_back(std::move(reply));
                }
            });
        }
        for (std::thread& t : threads)
            t.join();
    }
    const double window = nowS() - start;
    // Responses go out before the job's serve span closes: let the last
    // spans land before recording stops.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    obs::setTracing(false);
    const std::vector<obs::SpanRecord> obs_spans =
        drainer ? drainer->stop() : std::vector<obs::SpanRecord>{};
    const serve::ServeCounters after = server.counters();

    // Checks, outside the timed window: every reply Ok, finite and
    // under the NRMSE ceiling; every warm key and the first misses
    // bit-identical to an in-process reconstruct of the same request.
    std::vector<std::vector<double>> warm_refs(kWarmKeys);
    for (std::size_t k = 0; k < kWarmKeys; ++k) {
        warm_refs[k] =
            reconstructOnce(request(warm_seed(k)), nullptr)
                .reconstructed.values()
                .flat();
        if (!sameBits(warm_values[k], warm_refs[k]))
            result.fail("warm key " + std::to_string(k) +
                        " differs from an in-process reconstruct");
    }
    // Traced mode also composes each checked miss from spans, paired
    // with its reference in alternating order (the overhead base).
    SpanLog log;
    LayerReport report;
    const std::size_t checked_misses =
        std::min(kCheckedMisses, next_miss.load());
    std::vector<OscarResult> miss_refs;
    for (std::size_t j = 0; j < checked_misses; ++j) {
        const ReconRequest req = request(miss_seed(j));
        auto untraced = [&] {
            const double t0 = nowS();
            miss_refs.push_back(reconstructOnce(req, nullptr));
            report.untracedS.push_back(nowS() - t0);
        };
        if (!args.trace || j % 2 == 0)
            untraced();
        if (!args.trace)
            continue;
        TracedRequest traced = reconstructTraced(log, j + 1, req, nullptr);
        if (j % 2 == 1)
            untraced();
        checkTraced(result, traced, miss_refs.back(), truth, kNrmseCeiling);
        report.requests.push_back(std::move(traced));
    }

    std::vector<double> hit_s;
    std::vector<double> miss_s;
    std::vector<double> errors;
    std::size_t completed = 0;
    for (const std::vector<Reply>& list : replies) {
        for (const Reply& reply : list) {
            ++result.attempted;
            if (!reply.ok) {
                result.fail("serve request: " + reply.error);
                continue;
            }
            ++completed;
            double err = 0.0;
            if (!gateValues(result, reply.values, truth, kNrmseCeiling, &err))
                continue;
            const std::vector<double>* ref = nullptr;
            if (reply.warm)
                ref = &warm_refs[reply.key];
            else if (reply.key < checked_misses)
                ref = &miss_refs[reply.key].reconstructed.values().flat();
            if (ref && !sameBits(reply.values, *ref)) {
                result.fail("served landscape differs from an in-process "
                            "reconstruct");
                continue;
            }
            if (reply.from == serve::ServedFrom::Store)
                hit_s.push_back(reply.seconds);
            else
                miss_s.push_back(reply.seconds);
            // nrmse.p50 covers the checked miss seeds, which every run
            // serves, so it reads the same on every run of a seed.
            if (!reply.warm && reply.key < checked_misses)
                errors.push_back(err);
        }
    }
    if (miss_s.empty() || hit_s.empty())
        result.failCheck("the mix produced no hits or no misses");

    if (!args.trace) {
        result.metric("recon_s.p50", median(miss_s), "s");
        result.metric("req_per_s", static_cast<double>(completed) / window,
                      "1/s");
        result.metric("setup_s", setup.median(), "s");
        result.metric("peak_rss_mb", peakRssMb(), "MB");
        result.extra("first_s", first_s, "s");
        result.extra("setup_s.n", static_cast<double>(setup.count()),
                     "count");
        std::vector<double> hit_ms;
        std::vector<double> miss_ms;
        for (double s : hit_s)
            hit_ms.push_back(s * 1e3);
        for (double s : miss_s)
            miss_ms.push_back(s * 1e3);
        addQuartiles(result, "hit_ms", hit_ms, "ms");
        result.extra("hit_ms.p98", quantile(hit_ms, 0.98), "ms");
        addQuartiles(result, "miss_ms", miss_ms, "ms");
        result.extra("miss_ms.p98", quantile(miss_ms, 0.98), "ms");
        addQuartiles(result, "nrmse", errors, "ratio");
        return result;
    }

    // Traced: the daemon's own store/serve spans read back from
    // obs::Tracer, and the composed misses above.
    std::size_t gets = 0;
    std::size_t puts = 0;
    storeSpanTimes(obs_spans, report, &gets, &puts);
    const std::uint64_t want_gets = (after.store.hits + after.store.misses) -
                                    (before.store.hits + before.store.misses);
    const std::uint64_t want_puts = after.store.puts - before.store.puts;
    report.droppedSpans = (want_gets > gets ? want_gets - gets : 0) +
                          (want_puts > puts ? want_puts - puts : 0);
    report.serveEvaluations = after.evaluations - before.evaluations;
    report.serveStoreHits = after.storeHits - before.storeHits;
    report.serveErrors = after.errors - before.errors;
    {
        std::uint64_t bytes = 0;
        std::size_t files = 0;
        for (const auto& entry : fs::directory_iterator(options.storeDir)) {
            if (entry.is_regular_file()) {
                bytes += entry.file_size();
                ++files;
            }
        }
        report.containerKb =
            files ? static_cast<double>(bytes) / 1024.0 /
                        static_cast<double>(files)
                  : 0.0;
    }
    if (report.requests.empty())
        throw std::runtime_error("serve_mix: no miss to trace");
    report.dctMs = dctMs(log, grid.shape());
    report.speedup4t =
        gatherSeconds(request(miss_seed(0)), ExecutionEngine::serial()) /
        gatherSeconds(request(miss_seed(0)), engine);
    addLayerMetrics(result, report);

    const std::string trace_path =
        args.outDir + "/trace-" + args.workload + ".json";
    if (!log.writeChromeTrace(trace_path, renderObsSpans(obs_spans)))
        result.failCheck("cannot write " + trace_path);
    return result;
}

} // namespace obench
} // namespace oscar
