/**
 * @file
 * Serving-path benchmark: requests/s against an in-process oscar-serve
 * daemon at N concurrent clients, at the two ends of the store hit rate.
 *
 *   hit-rate 0.0   every request is a fresh computation (pool-bound)
 *   hit-rate 1.0   every request answered from the persistent store
 *
 * A mixed hit rate is the end-to-end benchmark's serve_mix workload.
 *
 * plus a dedupe round: all clients submit the SAME fresh request
 * concurrently, and the daemon's counters show one pool evaluation
 * shared by everyone. Emits BENCH_serve.json; the headline contract is
 * warm (hit-rate 1.0) throughput >= 10x cold (hit-rate 0.0).
 */

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "src/ansatz/qaoa.h"
#include "src/graph/generators.h"
#include "src/hamiltonian/maxcut.h"
#include "src/serve/client.h"
#include "src/serve/server.h"

namespace {

using namespace oscar;

constexpr int kClients = 4;
constexpr int kRequestsPerClient = 8;
constexpr std::uint64_t kWarmSeed = 7;

std::atomic<std::uint64_t> g_coldSeed{1000};

/** A small but real workload: ~40 sampled 6-qubit QAOA executions. */
serve::RequestMsg
makeRequest(std::uint64_t seed)
{
    serve::RequestMsg msg;
    msg.kind = serve::RequestKind::Reconstruct;
    Rng rng(3);
    const Graph graph = random3RegularGraph(6, rng);
    msg.cost.circuit = qaoaCircuit(graph, 1);
    msg.cost.hamiltonian = maxcutHamiltonian(graph);
    msg.grid = GridSpec({{-0.785, 0.785, 20}, {-1.571, 1.571, 40}});
    msg.samplingFraction = 0.05;
    msg.sampleSeed = seed;
    return msg;
}

/** One client's request stream: all store hits or all fresh. */
void
clientRun(const std::string& socket, bool warm)
{
    serve::ServeClient client(socket);
    for (int i = 0; i < kRequestsPerClient; ++i) {
        const std::uint64_t seed =
            warm ? kWarmSeed : g_coldSeed.fetch_add(1);
        const serve::ResponseMsg response =
            client.call(makeRequest(seed));
        if (response.status != serve::ResponseStatus::Ok) {
            std::fprintf(stderr, "bench_serve: request failed: %s\n",
                         response.error.c_str());
            std::exit(1);
        }
    }
}

double
runCase(const std::string& socket, bool warm)
{
    const auto start = std::chrono::steady_clock::now();
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c)
        clients.emplace_back([&socket, warm] { clientRun(socket, warm); });
    for (std::thread& t : clients)
        t.join();
    return bench::secondsSince(start);
}

} // namespace

int
main()
{
    namespace fs = std::filesystem;
    char dir_template[] = "/tmp/oscar-bench-serve-XXXXXX";
    if (!::mkdtemp(dir_template)) {
        std::fprintf(stderr, "bench_serve: mkdtemp failed\n");
        return 1;
    }
    const std::string dir = dir_template;
    const std::string socket = dir + "/serve.sock";

    serve::ServeOptions options;
    options.socketPath = socket;
    options.storeDir = dir + "/store";
    options.jobThreads = kClients;
    options.oscar.numThreads = 0;
    serve::ServeServer server(options);
    std::thread server_thread([&server] { server.run(); });

    bench::header("oscar-serve throughput (4 clients, 8 requests each)");
    bench::columns("case", {"seconds", "req/s"});

    // Pre-warm the store with the shared warm key.
    {
        serve::ServeClient client(socket);
        serve::RequestMsg warm = makeRequest(kWarmSeed);
        if (client.call(warm).status != serve::ResponseStatus::Ok) {
            std::fprintf(stderr, "bench_serve: warmup failed\n");
            return 1;
        }
    }

    bench::JsonReport report("serve");
    const std::size_t total = kClients * kRequestsPerClient;
    double cold_rps = 0.0;
    double warm_rps = 0.0;
    for (const bool warm : {false, true}) {
        const double seconds = runCase(socket, warm);
        const double rps = static_cast<double>(total) / seconds;
        (warm ? warm_rps : cold_rps) = rps;
        const double hit_rate = warm ? 1.0 : 0.0;
        char name[64];
        std::snprintf(name, sizeof(name), "hit_rate_%.1f", hit_rate);
        bench::row(name, {seconds, rps});
        bench::TimingStats timing;
        timing.median = seconds;
        timing.min = seconds;
        timing.reps = 1;
        report.add(name, timing, total,
                   {{"hit_rate", hit_rate},
                    {"clients", kClients},
                    {"requests_per_s", rps}});
    }

    // Dedupe round: everyone submits the same fresh key at once; the
    // counter delta shows how many pool evaluations that cost.
    const std::uint64_t before = server.counters().evaluations;
    const std::uint64_t dedup_seed = g_coldSeed.fetch_add(1);
    {
        std::vector<std::thread> clients;
        for (int c = 0; c < kClients; ++c)
            clients.emplace_back([&socket, dedup_seed] {
                serve::ServeClient client(socket);
                serve::RequestMsg msg = makeRequest(dedup_seed);
                if (client.call(msg).status != serve::ResponseStatus::Ok)
                    std::exit(1);
            });
        for (std::thread& t : clients)
            t.join();
    }
    const std::uint64_t evals =
        server.counters().evaluations - before;
    std::printf("\n%d identical concurrent submits -> %llu pool "
                "evaluation(s)\n",
                kClients, static_cast<unsigned long long>(evals));
    const double speedup = cold_rps > 0.0 ? warm_rps / cold_rps : 0.0;
    std::printf("warm/cold throughput: %.1fx (contract: >= 10x)\n",
                speedup);
    {
        bench::TimingStats timing;
        timing.reps = 1;
        report.add("summary", timing, total,
                   {{"warm_over_cold", speedup},
                    {"dedup_evaluations", static_cast<double>(evals)},
                    {"dedup_clients", kClients}});
    }
    report.write("BENCH_serve.json");

    server.stop();
    server_thread.join();
    std::error_code ec;
    fs::remove_all(dir, ec);
    return 0;
}
