/**
 * @file
 * Serving-daemon tests:
 *
 *  - protocol payload round trips (Request/Response/Progress), strict
 *    rejection of malformed payloads, and content addressing: the
 *    encoder resolves KernelIsa::Auto and stamps the cost id, so the
 *    id names the concrete computation;
 *  - OSCAR_SERVE_SOCKET resolution (explicit > env > default;
 *    malformed settings throw);
 *  - the serving guarantees, end to end over a real Unix socket:
 *      determinism -- cold (computed) and warm (store) answers are
 *        bit-identical to a fresh in-process Oscar::reconstruct;
 *      dedupe -- N identical concurrent requests cost exactly ONE
 *        pool evaluation, everyone gets the same bits;
 *      progress -- frames are monotonic and end at completed == total;
 *      fetch -- never computes: Miss when cold, Store hit when warm;
 *      isolation -- a malformed client loses its connection, and a
 *        request pinning a kernel ISA the daemon cannot run gets an
 *        Error response; the daemon keeps serving everyone else;
 *      graceful drain -- stop() after admission still answers;
 *  - the metrics exposition, with no setup: engine counters from the
 *    registry, serve and store counters equal to counters(), and no
 *    second counter for a store event.
 */

#include <gtest/gtest.h>

#include <stdlib.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <bit>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/ansatz/qaoa.h"
#include "src/backend/statevector_backend.h"
#include "src/core/oscar.h"
#include "src/graph/generators.h"
#include "src/hamiltonian/maxcut.h"
#include "src/obs/metrics.h"
#include "src/quantum/kernels.h"
#include "src/serve/client.h"
#include "src/serve/protocol.h"
#include "src/serve/server.h"

namespace oscar {
namespace serve {
namespace {

namespace fs = std::filesystem;

struct TempDir
{
    TempDir()
    {
        char tmpl[] = "/tmp/oscar-test-serve-XXXXXX";
        if (!::mkdtemp(tmpl))
            throw std::runtime_error("mkdtemp failed");
        path = tmpl;
    }

    ~TempDir()
    {
        std::error_code ec;
        fs::remove_all(path, ec);
    }

    std::string path;
};

struct ScopedEnv
{
    ScopedEnv(const char* name_in, const char* value) : name(name_in)
    {
        const char* old = ::getenv(name);
        hadOld = old != nullptr;
        if (hadOld)
            oldValue = old;
        if (value)
            ::setenv(name, value, 1);
        else
            ::unsetenv(name);
    }

    ~ScopedEnv()
    {
        if (hadOld)
            ::setenv(name, oldValue.c_str(), 1);
        else
            ::unsetenv(name);
    }

    const char* name;
    bool hadOld = false;
    std::string oldValue;
};

/** The test workload: tiny 6-qubit QAOA, ~12 sampled executions. */
RequestMsg
makeRequest(std::uint64_t seed)
{
    RequestMsg msg;
    msg.kind = RequestKind::Reconstruct;
    Rng rng(3);
    const Graph graph = random3RegularGraph(6, rng);
    msg.cost.circuit = qaoaCircuit(graph, 1);
    msg.cost.hamiltonian = maxcutHamiltonian(graph);
    msg.grid = GridSpec({{-0.785, 0.785, 10}, {-1.571, 1.571, 12}});
    msg.samplingFraction = 0.1;
    msg.sampleSeed = seed;
    return msg;
}

/** A fresh in-process reconstruction of the same request. */
store::StoredLandscape
freshReconstruction(std::uint64_t seed)
{
    RequestMsg req = makeRequest(seed);
    StatevectorCost cost(std::move(req.cost.circuit),
                         std::move(req.cost.hamiltonian));
    OscarOptions opts;
    opts.samplingFraction = req.samplingFraction;
    opts.seed = req.sampleSeed;
    opts.kernel = req.cost.kernel;
    opts.kernel.isa = kernels::kernelTable(opts.kernel.isa).isa;
    const OscarResult result = Oscar::reconstruct(req.grid, cost, opts);
    store::StoredLandscape entry;
    entry.sampleIndices.assign(result.samples.indices.begin(),
                               result.samples.indices.end());
    entry.sampleValues = result.samples.values;
    entry.reconstructed = result.reconstructed.values().flat();
    return entry;
}

void
expectBitIdentical(const std::vector<double>& got,
                   const std::vector<double>& want)
{
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i)
        EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i]),
                  std::bit_cast<std::uint64_t>(want[i]))
            << "value " << i;
}

/** Value of one metric line (`name value`) in a Prometheus text
 * exposition; fails the test when the metric is absent. */
std::uint64_t
promValue(const std::string& text, const std::string& name)
{
    const std::string needle = name + " ";
    std::size_t at = text.find(needle);
    while (at != std::string::npos && at != 0 && text[at - 1] != '\n')
        at = text.find(needle, at + 1);
    EXPECT_NE(at, std::string::npos) << "metric " << name << " missing:\n"
                                     << text;
    if (at == std::string::npos)
        return 0;
    return ::strtoull(text.c_str() + at + needle.size(), nullptr, 10);
}

/** A running daemon on a scratch socket + store, torn down in order. */
struct ServerFixture
{
    explicit ServerFixture(
        bool with_store = true, int job_threads = 2,
        std::size_t store_budget_bytes = ServeOptions{}.storeBudgetBytes)
    {
        ServeOptions options;
        options.socketPath = dir.path + "/serve.sock";
        if (with_store)
            options.storeDir = dir.path + "/store";
        options.storeBudgetBytes = store_budget_bytes;
        options.jobThreads = job_threads;
        options.oscar.numThreads = 0;
        server = std::make_unique<ServeServer>(options);
        thread = std::thread([this] { server->run(); });
    }

    ~ServerFixture()
    {
        server->stop();
        thread.join();
        server.reset();
    }

    const std::string& socket() const { return server->socketPath(); }

    TempDir dir;
    std::unique_ptr<ServeServer> server;
    std::thread thread;
};

// ---------------------------------------------------------------------
// Protocol payloads
// ---------------------------------------------------------------------

TEST(ServeProtocolTest, RequestRoundTripResolvesContentAddress)
{
    RequestMsg msg = makeRequest(42);
    msg.tag = 77;
    msg.wantProgress = true;
    ASSERT_EQ(msg.cost.costId, 0u);

    const std::vector<std::uint8_t> payload = encodeRequest(msg);
    // The encoder stamps the content hash and resolves Auto to the
    // concrete host ISA -- the hash must name the computation.
    EXPECT_NE(msg.cost.costId, 0u);
    EXPECT_NE(msg.cost.kernel.isa, kernels::KernelIsa::Auto);

    const RequestMsg decoded = decodeRequest(payload);
    EXPECT_EQ(decoded.kind, RequestKind::Reconstruct);
    EXPECT_EQ(decoded.tag, 77u);
    EXPECT_TRUE(decoded.wantProgress);
    EXPECT_EQ(decoded.cost.costId, msg.cost.costId);
    EXPECT_EQ(decoded.cost.circuit.gates().size(),
              msg.cost.circuit.gates().size());
    EXPECT_EQ(decoded.grid.numPoints(), msg.grid.numPoints());
    EXPECT_EQ(decoded.samplingFraction, 0.1);
    EXPECT_EQ(decoded.sampleSeed, 42u);

    // The store key is a pure function of the request.
    RequestMsg again = makeRequest(42);
    encodeRequest(again);
    const store::StoreKey a = storeKeyFor(msg);
    const store::StoreKey b = storeKeyFor(again);
    EXPECT_EQ(a.costId, b.costId);
    EXPECT_EQ(a.gridHash, b.gridHash);
    EXPECT_EQ(a.cfgHash, b.cfgHash);

    RequestMsg other_seed = makeRequest(43);
    encodeRequest(other_seed);
    EXPECT_NE(storeKeyFor(other_seed).cfgHash, a.cfgHash);
    EXPECT_EQ(storeKeyFor(other_seed).costId, a.costId);

    // Auto hashes as the ISA it resolves to, so stores filled by builds
    // that resolve to different ISAs never share a key: an Auto request
    // and the same request naming the resolved ISA are one entry, and
    // an explicit Scalar request is another unless Scalar is what Auto
    // resolved to here.
    const kernels::KernelIsa resolved =
        kernels::kernelTable(kernels::KernelIsa::Auto).isa;
    RequestMsg auto_isa = makeRequest(42);
    ASSERT_EQ(auto_isa.cost.kernel.isa, kernels::KernelIsa::Auto);
    encodeRequest(auto_isa);
    RequestMsg explicit_isa = makeRequest(42);
    explicit_isa.cost.kernel.isa = resolved;
    encodeRequest(explicit_isa);
    EXPECT_EQ(storeKeyFor(auto_isa).costId, storeKeyFor(explicit_isa).costId);
    RequestMsg scalar = makeRequest(42);
    scalar.cost.kernel.isa = kernels::KernelIsa::Scalar;
    encodeRequest(scalar);
    EXPECT_EQ(storeKeyFor(scalar).costId == storeKeyFor(auto_isa).costId,
              resolved == kernels::KernelIsa::Scalar);
}

TEST(ServeProtocolTest, MalformedRequestsAreRejected)
{
    RequestMsg msg = makeRequest(42);
    const std::vector<std::uint8_t> payload = encodeRequest(msg);

    for (std::size_t len = 0; len < payload.size(); ++len) {
        EXPECT_THROW(decodeRequest({payload.data(), len}),
                     wire::WireError)
            << "prefix " << len;
    }
    std::vector<std::uint8_t> extra = payload;
    extra.push_back(0);
    EXPECT_THROW(decodeRequest(extra), wire::WireError);

    // Unknown request kind (first payload byte).
    std::vector<std::uint8_t> bad_kind = payload;
    bad_kind[0] = 9;
    EXPECT_THROW(decodeRequest(bad_kind), wire::WireError);

    // Out-of-range sampling fraction.
    for (const double bad : {0.0, -0.5, 1.5}) {
        RequestMsg m = makeRequest(42);
        m.samplingFraction = bad;
        EXPECT_THROW(decodeRequest(encodeRequest(m)), wire::WireError)
            << "fraction " << bad;
    }
}

TEST(ServeProtocolTest, ResponseRoundTrips)
{
    // Ok with a landscape (NaN and -0.0 must survive bit-exactly).
    {
        ResponseMsg msg;
        msg.status = ResponseStatus::Ok;
        msg.tag = 5;
        msg.servedFrom = ServedFrom::Store;
        msg.landscape.grid = GridSpec({{0.0, 1.0, 2}, {0.0, 1.0, 2}});
        msg.landscape.sampleIndices = {0, 3};
        msg.landscape.sampleValues = {1.5, -2.5};
        msg.landscape.reconstructed = {
            std::bit_cast<double>(std::uint64_t{0x7FF8DEADBEEF0001ull}),
            -0.0, 3.5, 4.5};
        msg.landscape.samplingFraction = 0.5;
        msg.landscape.sampleSeed = 9;
        msg.landscape.queriesUsed = 2;
        msg.landscape.querySpeedup = 2.0;

        const ResponseMsg decoded =
            decodeResponse(encodeResponse(msg));
        EXPECT_EQ(decoded.status, ResponseStatus::Ok);
        EXPECT_EQ(decoded.tag, 5u);
        EXPECT_EQ(decoded.servedFrom, ServedFrom::Store);
        EXPECT_EQ(decoded.landscape.sampleIndices,
                  msg.landscape.sampleIndices);
        expectBitIdentical(decoded.landscape.reconstructed,
                           msg.landscape.reconstructed);
        EXPECT_EQ(decoded.landscape.sampleSeed, 9u);
    }
    // Error with a message.
    {
        ResponseMsg msg;
        msg.status = ResponseStatus::Error;
        msg.tag = 6;
        msg.error = "boom";
        const ResponseMsg decoded =
            decodeResponse(encodeResponse(msg));
        EXPECT_EQ(decoded.status, ResponseStatus::Error);
        EXPECT_EQ(decoded.error, "boom");
    }
    // Stats with counters.
    {
        ResponseMsg msg;
        msg.status = ResponseStatus::Stats;
        msg.counters.requests = 10;
        msg.counters.evaluations = 3;
        msg.counters.dedupWaiters = 2;
        msg.counters.store.hits = 4;
        msg.counters.store.containersRemoved = 1;
        const ResponseMsg decoded =
            decodeResponse(encodeResponse(msg));
        EXPECT_EQ(decoded.status, ResponseStatus::Stats);
        EXPECT_EQ(decoded.counters.requests, 10u);
        EXPECT_EQ(decoded.counters.evaluations, 3u);
        EXPECT_EQ(decoded.counters.dedupWaiters, 2u);
        EXPECT_EQ(decoded.counters.store.hits, 4u);
        EXPECT_EQ(decoded.counters.store.containersRemoved, 1u);
    }
}

TEST(ServeProtocolTest, ProgressRoundTripsAndValidates)
{
    ProgressMsg msg;
    msg.tag = 8;
    msg.completed = 3;
    msg.total = 12;
    const ProgressMsg decoded = decodeProgress(encodeProgress(msg));
    EXPECT_EQ(decoded.tag, 8u);
    EXPECT_EQ(decoded.completed, 3u);
    EXPECT_EQ(decoded.total, 12u);

    msg.completed = 13; // beyond total
    EXPECT_THROW(decodeProgress(encodeProgress(msg)), wire::WireError);
}

TEST(ServeProtocolTest, ResolveSocketPath)
{
    {
        ScopedEnv env("OSCAR_SERVE_SOCKET", nullptr);
        EXPECT_EQ(resolveSocketPath(""), "/tmp/oscar-serve.sock");
        EXPECT_EQ(resolveSocketPath("/x/y.sock"), "/x/y.sock");
    }
    {
        ScopedEnv env("OSCAR_SERVE_SOCKET", "/env/serve.sock");
        EXPECT_EQ(resolveSocketPath(""), "/env/serve.sock");
        EXPECT_EQ(resolveSocketPath("/explicit.sock"), "/explicit.sock");
    }
    {
        ScopedEnv env("OSCAR_SERVE_SOCKET", "");
        EXPECT_THROW(resolveSocketPath(""), std::runtime_error);
    }
    {
        const std::string too_long(sizeof(sockaddr_un{}.sun_path), 'x');
        ScopedEnv env("OSCAR_SERVE_SOCKET", too_long.c_str());
        EXPECT_THROW(resolveSocketPath(""), std::runtime_error);
    }
}

// ---------------------------------------------------------------------
// End to end
// ---------------------------------------------------------------------

TEST(ServeServerTest, ColdAndWarmAnswersAreBitIdenticalToFresh)
{
    ServerFixture fixture;
    const store::StoredLandscape fresh = freshReconstruction(42);

    ServeClient client(fixture.socket());

    // Cold: computed on the daemon's pool.
    const ResponseMsg cold = client.call(makeRequest(42));
    ASSERT_EQ(cold.status, ResponseStatus::Ok) << cold.error;
    EXPECT_EQ(cold.servedFrom, ServedFrom::Computed);
    EXPECT_EQ(cold.landscape.sampleIndices, fresh.sampleIndices);
    expectBitIdentical(cold.landscape.sampleValues, fresh.sampleValues);
    expectBitIdentical(cold.landscape.reconstructed,
                       fresh.reconstructed);

    // Warm: the persistent store, same bits, no pool touch.
    const ResponseMsg warm = client.call(makeRequest(42));
    ASSERT_EQ(warm.status, ResponseStatus::Ok) << warm.error;
    EXPECT_EQ(warm.servedFrom, ServedFrom::Store);
    expectBitIdentical(warm.landscape.reconstructed,
                       fresh.reconstructed);

    const ServeCounters counters = fixture.server->counters();
    EXPECT_EQ(counters.requests, 2u);
    EXPECT_EQ(counters.responses, 2u);
    EXPECT_EQ(counters.evaluations, 1u);
    EXPECT_EQ(counters.storeHits, 1u);
    EXPECT_EQ(counters.store.puts, 1u);
}

TEST(ServeServerTest, WithoutStoreEveryRequestComputes)
{
    ServerFixture fixture(/*with_store=*/false);
    ServeClient client(fixture.socket());
    const ResponseMsg first = client.call(makeRequest(42));
    const ResponseMsg second = client.call(makeRequest(42));
    ASSERT_EQ(first.status, ResponseStatus::Ok);
    ASSERT_EQ(second.status, ResponseStatus::Ok);
    EXPECT_EQ(second.servedFrom, ServedFrom::Computed);
    expectBitIdentical(second.landscape.reconstructed,
                       first.landscape.reconstructed);
    EXPECT_EQ(fixture.server->counters().evaluations, 2u);
}

TEST(ServeServerTest, ConcurrentIdenticalRequestsShareOneEvaluation)
{
    constexpr int kClients = 4;
    ServerFixture fixture(/*with_store=*/true, /*job_threads=*/kClients);

    std::vector<ResponseMsg> responses(kClients);
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c) {
        threads.emplace_back([&fixture, &responses, c] {
            ServeClient client(fixture.socket());
            responses[static_cast<std::size_t>(c)] =
                client.call(makeRequest(42));
        });
    }
    for (std::thread& t : threads)
        t.join();

    for (const ResponseMsg& r : responses) {
        ASSERT_EQ(r.status, ResponseStatus::Ok) << r.error;
        expectBitIdentical(r.landscape.reconstructed,
                           responses[0].landscape.reconstructed);
    }

    // The dedupe contract, exactly: one pool evaluation; every other
    // request either attached to it in flight or hit the store after
    // the put-before-unregister window.
    const ServeCounters counters = fixture.server->counters();
    EXPECT_EQ(counters.evaluations, 1u);
    EXPECT_EQ(counters.storeHits + counters.dedupWaiters,
              static_cast<std::uint64_t>(kClients - 1));
    EXPECT_EQ(counters.responses, static_cast<std::uint64_t>(kClients));

    // The live metrics exposition must agree with the authoritative
    // counters -- same daemon, scraped over the wire.
    ServeClient scraper(fixture.socket());
    const std::string text = scraper.metrics();
    EXPECT_NE(text.find("# TYPE oscar_serve_requests_total counter"),
              std::string::npos)
        << text;
    EXPECT_EQ(promValue(text, "oscar_serve_requests_total"),
              counters.requests);
    EXPECT_EQ(promValue(text, "oscar_serve_responses_total"),
              counters.responses);
    EXPECT_EQ(promValue(text, "oscar_serve_evaluations_total"), 1u);
    EXPECT_EQ(promValue(text, "oscar_serve_store_hits_total") +
                  promValue(text, "oscar_serve_dedup_waiters_total"),
              static_cast<std::uint64_t>(kClients - 1));
    EXPECT_EQ(promValue(text, "oscar_serve_errors_total"), 0u);
}

TEST(ServeServerTest, ProgressFramesAreMonotonicAndComplete)
{
    ServerFixture fixture;
    ServeClient client(fixture.socket());
    RequestMsg msg = makeRequest(42);
    msg.wantProgress = true;

    std::vector<ProgressMsg> progress;
    const ResponseMsg response = client.call(
        msg, [&progress](const ProgressMsg& p) {
            progress.push_back(p);
        });
    ASSERT_EQ(response.status, ResponseStatus::Ok) << response.error;
    ASSERT_FALSE(progress.empty());
    for (std::size_t i = 1; i < progress.size(); ++i) {
        EXPECT_LE(progress[i - 1].completed, progress[i].completed);
        EXPECT_EQ(progress[i].total, progress[0].total);
    }
    EXPECT_EQ(progress.back().completed, progress.back().total);
    EXPECT_EQ(progress.back().total,
              response.landscape.sampleValues.size());

    // A request that did not opt in gets no Progress frames.
    bool saw_progress = false;
    client.call(makeRequest(43), [&saw_progress](const ProgressMsg&) {
        saw_progress = true;
    });
    EXPECT_FALSE(saw_progress);
}

TEST(ServeServerTest, FetchNeverComputes)
{
    ServerFixture fixture;
    ServeClient client(fixture.socket());

    RequestMsg fetch = makeRequest(42);
    fetch.kind = RequestKind::Fetch;
    const ResponseMsg miss = client.call(fetch);
    EXPECT_EQ(miss.status, ResponseStatus::Miss);
    EXPECT_EQ(fixture.server->counters().evaluations, 0u);

    ASSERT_EQ(client.call(makeRequest(42)).status, ResponseStatus::Ok);

    RequestMsg again = makeRequest(42);
    again.kind = RequestKind::Fetch;
    const ResponseMsg hit = client.call(again);
    ASSERT_EQ(hit.status, ResponseStatus::Ok) << hit.error;
    EXPECT_EQ(hit.servedFrom, ServedFrom::Store);
    EXPECT_EQ(fixture.server->counters().evaluations, 1u);
}

TEST(ServeServerTest, StatsRequestReturnsCounters)
{
    ServerFixture fixture;
    ServeClient client(fixture.socket());
    ASSERT_EQ(client.call(makeRequest(42)).status, ResponseStatus::Ok);

    RequestMsg stats;
    stats.kind = RequestKind::Stats;
    const ResponseMsg response = client.call(stats);
    ASSERT_EQ(response.status, ResponseStatus::Stats);
    EXPECT_EQ(response.counters.requests, 2u); // reconstruct + stats
    EXPECT_EQ(response.counters.evaluations, 1u);
    EXPECT_EQ(response.counters.store.puts, 1u);
}

TEST(ServeServerTest, MetricsExpositionCountsEachEventOnce)
{
    // Metrics have no switch: with no setup at all, the exposition
    // carries the process-wide engine counters, and this daemon's own
    // serve and store tallies come from counters() alone -- store
    // corruption and GC evictions included. The 1-byte store budget
    // makes every gc() evict each container it finds.
    const std::uint64_t completed_before =
        obs::Registry::global().counter("engine.points.completed").value();
    ServerFixture fixture(true, 2, 1);
    ServeClient client(fixture.socket());
    const ResponseMsg computed = client.call(makeRequest(42));
    ASSERT_EQ(computed.status, ResponseStatus::Ok);
    ASSERT_EQ(computed.servedFrom, ServedFrom::Computed);

    // A damaged container under the request's key loads as a corrupt
    // miss; another one is evicted by an explicit gc().
    store::LandscapeStore& store = *fixture.server->store();
    RequestMsg addressed = makeRequest(42);
    encodeRequest(addressed); // stamps the costId the key needs
    const std::string path = store.containerPath(storeKeyFor(addressed));
    auto damage = [&path] {
        std::FILE* f = std::fopen(path.c_str(), "wb");
        ASSERT_NE(f, nullptr);
        std::fputs("not a container", f);
        std::fclose(f);
    };
    damage();
    RequestMsg fetch = makeRequest(42);
    fetch.kind = RequestKind::Fetch;
    ASSERT_EQ(client.call(fetch).status, ResponseStatus::Miss);
    damage();
    EXPECT_EQ(store.gc(), 1u);

    const std::string text = client.metrics();
    EXPECT_GE(promValue(text, "oscar_engine_points_completed_total"),
              completed_before + computed.landscape.sampleIndices.size());

    const ServeCounters c = fixture.server->counters();
    EXPECT_EQ(promValue(text, "oscar_serve_requests_total"), c.requests);
    EXPECT_EQ(promValue(text, "oscar_serve_responses_total"),
              c.responses);
    EXPECT_EQ(promValue(text, "oscar_serve_evaluations_total"),
              c.evaluations);
    EXPECT_EQ(promValue(text, "oscar_serve_store_hits_total"),
              c.storeHits);
    EXPECT_EQ(promValue(text, "oscar_serve_dedup_waiters_total"),
              c.dedupWaiters);
    EXPECT_EQ(promValue(text, "oscar_serve_errors_total"), c.errors);
    EXPECT_EQ(promValue(text, "oscar_store_container_hits_total"),
              c.store.hits);
    EXPECT_EQ(promValue(text, "oscar_store_container_misses_total"),
              c.store.misses);
    EXPECT_EQ(promValue(text, "oscar_store_container_puts_total"),
              c.store.puts);
    EXPECT_EQ(promValue(text, "oscar_store_container_corrupt_misses_total"),
              c.store.corruptMisses);
    EXPECT_EQ(promValue(text, "oscar_store_container_removed_total"),
              c.store.containersRemoved);
    EXPECT_EQ(c.evaluations, 1u);
    EXPECT_EQ(c.store.puts, 1u);
    EXPECT_EQ(c.store.corruptMisses, 1u);
    // The put's own gc evicted the computed container; gc() the other.
    EXPECT_EQ(c.store.containersRemoved, 2u);

    // A store event has one counter: no registry twin of StoreStats.
    for (const char* twin :
         {"oscar_store_hits", "oscar_store_gets", "oscar_store_puts"})
        EXPECT_EQ(text.find(twin), std::string::npos) << twin;
}

/** A raw connection to the daemon's socket, bypassing ServeClient. */
int
connectRaw(const std::string& path)
{
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        return fd;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
        ::close(fd);
        return -1;
    }
    return fd;
}

TEST(ServeServerTest, MalformedClientLosesOnlyItsConnection)
{
    ServerFixture fixture;

    // A raw connection that speaks garbage: the daemon must close it.
    const int fd = connectRaw(fixture.socket());
    ASSERT_GE(fd, 0);
    const char garbage[] = "this is not an OSCW frame";
    ASSERT_GT(::send(fd, garbage, sizeof(garbage), MSG_NOSIGNAL), 0);
    char buf[16];
    EXPECT_EQ(::recv(fd, buf, sizeof(buf), 0), 0); // orderly EOF
    ::close(fd);

    // Everyone else is still being served.
    ServeClient client(fixture.socket());
    EXPECT_EQ(client.call(makeRequest(42)).status, ResponseStatus::Ok);
}

TEST(ServeServerTest, UnavailableIsaGetsAnErrorResponse)
{
    kernels::KernelIsa missing;
    if (!kernels::avx512Available())
        missing = kernels::KernelIsa::Avx512;
    else if (!kernels::avx2Available())
        missing = kernels::KernelIsa::Avx2;
    else
        GTEST_SKIP() << "every kernel ISA runs on this build and host";

    ServerFixture fixture;

    // encodeRequest resolves the ISA and would refuse it client-side,
    // so the Request payload is written field by field.
    RequestMsg req = makeRequest(42);
    req.tag = 7;
    req.cost.kernel.isa = missing;
    wire::WireWriter w;
    w.u8(static_cast<std::uint8_t>(req.kind));
    w.u64(req.tag);
    const std::vector<std::uint8_t> spec = wire::encodeCostSpec(req.cost);
    w.u64(spec.size());
    for (std::uint8_t b : spec)
        w.u8(b);
    store::encodeGridSpec(w, req.grid);
    w.f64(req.samplingFraction);
    w.u64(req.sampleSeed);
    w.u8(0); // no progress
    const std::vector<std::uint8_t> frame =
        wire::encodeFrame(wire::FrameType::Request, w.take());

    const int fd = connectRaw(fixture.socket());
    ASSERT_GE(fd, 0);
    ASSERT_EQ(::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(frame.size()));
    wire::FrameDecoder decoder;
    std::optional<wire::Frame> reply;
    while (!reply) {
        std::uint8_t buf[4096];
        const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
        ASSERT_GT(n, 0) << "daemon hung up instead of answering";
        decoder.feed(buf, static_cast<std::size_t>(n));
        reply = decoder.next();
    }
    ::close(fd);
    ASSERT_EQ(reply->type, wire::FrameType::Response);
    const ResponseMsg resp = decodeResponse(reply->payload);
    EXPECT_EQ(resp.status, ResponseStatus::Error);
    EXPECT_EQ(resp.tag, 7u);
    EXPECT_NE(resp.error.find("not available"), std::string::npos)
        << resp.error;

    // The daemon is still up and serves the next client.
    ServeClient client(fixture.socket());
    EXPECT_EQ(client.call(makeRequest(42)).status, ResponseStatus::Ok);
    const ServeCounters counters = fixture.server->counters();
    EXPECT_EQ(counters.errors, 1u);
    EXPECT_EQ(counters.evaluations, 1u);
    EXPECT_EQ(counters.responses, 2u);
}

TEST(ServeServerTest, NonFiniteCostIsAnErrorAndNeverStored)
{
    // A NaN coefficient makes every energy NaN: the engine fails the
    // gather, the daemon answers Error, and nothing reaches the store.
    ServerFixture fixture;
    ServeClient client(fixture.socket());
    RequestMsg req = makeRequest(42);
    req.cost.hamiltonian.add(std::nan(""), PauliString(6));
    const ResponseMsg resp = client.call(req);
    EXPECT_EQ(resp.status, ResponseStatus::Error);
    EXPECT_NE(resp.error.find("nan"), std::string::npos) << resp.error;

    RequestMsg fetch = req;
    fetch.kind = RequestKind::Fetch;
    EXPECT_EQ(client.call(fetch).status, ResponseStatus::Miss);
    const ServeCounters counters = fixture.server->counters();
    EXPECT_EQ(counters.errors, 1u);
    EXPECT_EQ(counters.store.puts, 0u);
}

TEST(ServeServerTest, GracefulDrainAnswersAdmittedRequests)
{
    ServerFixture fixture;

    ResponseMsg response;
    std::thread requester([&fixture, &response] {
        ServeClient client(fixture.socket());
        response = client.call(makeRequest(42));
    });

    // Wait until the daemon has admitted the request, then stop: the
    // drain contract says the answer is still delivered.
    while (fixture.server->counters().requests == 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    fixture.server->stop();
    requester.join();

    ASSERT_EQ(response.status, ResponseStatus::Ok) << response.error;
    EXPECT_EQ(fixture.server->counters().responses, 1u);
}

} // namespace
} // namespace serve
} // namespace oscar
