#include "src/serve/server.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "src/backend/statevector_backend.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/quantum/kernels.h"

namespace oscar {
namespace serve {

namespace {

using wire::FrameType;

/** Blocking full-buffer send (MSG_NOSIGNAL: EPIPE, not SIGPIPE). */
bool
writeAll(int fd, const std::uint8_t* data, std::size_t n)
{
    std::size_t off = 0;
    while (off < n) {
        const ssize_t w = ::send(fd, data + off, n - off, MSG_NOSIGNAL);
        if (w < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        off += static_cast<std::size_t>(w);
    }
    return true;
}

std::array<std::uint64_t, 3>
mapKeyOf(const store::StoreKey& key)
{
    return {key.costId, key.gridHash, key.cfgHash};
}

} // namespace

/**
 * One client connection. The run() thread owns the fd's read side;
 * job threads send frames through send(), which serializes writes and
 * never races the close: close() and send() take the same mutex, and
 * a closed connection swallows the frame (the client is gone).
 */
struct ServeServer::Conn
{
    Conn(int fd_in, std::uint64_t id_in) : fd(fd_in), id(id_in) {}

    ~Conn() { close(); }

    bool
    send(FrameType type, std::span<const std::uint8_t> payload)
    {
        const std::vector<std::uint8_t> bytes =
            wire::encodeFrame(type, payload);
        std::lock_guard<std::mutex> lock(sendMutex);
        if (closed)
            return false;
        return writeAll(fd, bytes.data(), bytes.size());
    }

    void
    close()
    {
        std::lock_guard<std::mutex> lock(sendMutex);
        if (!closed) {
            ::close(fd);
            closed = true;
        }
    }

    const int fd;
    const std::uint64_t id;
    std::mutex sendMutex;
    bool closed = false;
    wire::FrameDecoder decoder;
    /** Jobs admitted from this client, FIFO (guarded by server m_). */
    std::deque<std::shared_ptr<Job>> pending;
};

/** A request that needs the store or the pool -- attachable waiters. */
struct ServeServer::Job
{
    /** Waiting requester: where (and under which tag) to answer. */
    struct Waiter
    {
        std::shared_ptr<Conn> conn;
        std::uint64_t tag = 0;
        bool wantProgress = false;
    };

    RequestMsg req; ///< the first requester's request
    store::StoreKey key;
    std::array<std::uint64_t, 3> mapKey{};
    bool fetchOnly = false;
    /** Guarded by the server's m_ until respond() snapshots them. */
    std::vector<Waiter> waiters;
};

ServeServer::ServeServer(ServeOptions options)
    : options_(std::move(options))
{
    if (options_.socketPath.empty())
        throw std::runtime_error("oscar-serve: socket path must be "
                                 "non-empty (see resolveSocketPath)");
    if (options_.jobThreads < 1)
        options_.jobThreads = 1;
    if (!options_.storeDir.empty()) {
        store::StoreOptions store_options;
        store_options.dir = options_.storeDir;
        store_options.budgetBytes = options_.storeBudgetBytes;
        store_ = std::make_unique<store::LandscapeStore>(store_options);
    }

    int wake[2];
    if (::pipe2(wake, O_CLOEXEC | O_NONBLOCK) != 0)
        throw std::runtime_error(std::string("oscar-serve: pipe2: ") +
                                 std::strerror(errno));
    wakeRead_ = wake[0];
    wakeWrite_ = wake[1];

    listenFd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC | SOCK_NONBLOCK,
                         0);
    if (listenFd_ < 0) {
        ::close(wakeRead_);
        ::close(wakeWrite_);
        throw std::runtime_error(std::string("oscar-serve: socket: ") +
                                 std::strerror(errno));
    }
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (options_.socketPath.size() >= sizeof(addr.sun_path)) {
        ::close(listenFd_);
        ::close(wakeRead_);
        ::close(wakeWrite_);
        throw std::runtime_error("oscar-serve: socket path too long: " +
                                 options_.socketPath);
    }
    std::memcpy(addr.sun_path, options_.socketPath.c_str(),
                options_.socketPath.size() + 1);
    // A stale socket file from a dead daemon would make bind fail with
    // EADDRINUSE forever; remove it first. A *live* daemon also loses
    // its socket this way -- running two daemons on one path is a
    // deployment error this layer cannot detect.
    ::unlink(options_.socketPath.c_str());
    if (::bind(listenFd_, reinterpret_cast<const sockaddr*>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(listenFd_, options_.backlog) != 0) {
        const std::string reason = std::strerror(errno);
        ::close(listenFd_);
        ::close(wakeRead_);
        ::close(wakeWrite_);
        throw std::runtime_error("oscar-serve: cannot listen on " +
                                 options_.socketPath + ": " + reason);
    }

    jobThreads_.reserve(static_cast<std::size_t>(options_.jobThreads));
    for (int t = 0; t < options_.jobThreads; ++t)
        jobThreads_.emplace_back([this] { jobLoop(); });
}

ServeServer::~ServeServer()
{
    stop();
    drainAndJoin();
    for (auto& [id, conn] : conns_)
        conn->close();
    conns_.clear();
    ::close(listenFd_);
    ::close(wakeRead_);
    ::close(wakeWrite_);
    ::unlink(options_.socketPath.c_str());
}

void
ServeServer::stop()
{
    // Async-signal-safe on purpose: a SIGTERM handler calls this.
    stop_.store(true);
    const char byte = 1;
    [[maybe_unused]] const ssize_t w = ::write(wakeWrite_, &byte, 1);
}

void
ServeServer::drainAndJoin()
{
    {
        std::lock_guard<std::mutex> lock(m_);
        draining_ = true;
    }
    cv_.notify_all();
    for (std::thread& t : jobThreads_) {
        if (t.joinable())
            t.join();
    }
}

ServeCounters
ServeServer::counters() const
{
    std::lock_guard<std::mutex> lock(m_);
    ServeCounters c = counters_;
    if (store_)
        c.store = store_->stats();
    return c;
}

std::string
ServeServer::metricsText() const
{
    // Process-wide events come from the registry; this daemon's own
    // serve and store tallies live in its per-instance structs (one
    // process may run several daemons and stores), so they are
    // rendered from counters() and the exposition matches it exactly.
    obs::MetricsSnapshot snap = obs::Registry::global().snapshot();
    const ServeCounters c = counters();
    snap.counters["serve.requests"] = c.requests;
    snap.counters["serve.responses"] = c.responses;
    snap.counters["serve.evaluations"] = c.evaluations;
    snap.counters["serve.store.hits"] = c.storeHits;
    snap.counters["serve.dedup.waiters"] = c.dedupWaiters;
    snap.counters["serve.errors"] = c.errors;
    snap.counters["store.container.hits"] = c.store.hits;
    snap.counters["store.container.misses"] = c.store.misses;
    snap.counters["store.container.puts"] = c.store.puts;
    snap.counters["store.container.corrupt_misses"] = c.store.corruptMisses;
    snap.counters["store.container.removed"] = c.store.containersRemoved;
    return obs::renderPrometheus(snap);
}

void
ServeServer::run()
{
    std::vector<pollfd> fds;
    std::vector<std::shared_ptr<Conn>> polled;
    while (!stop_.load()) {
        fds.clear();
        polled.clear();
        fds.push_back({wakeRead_, POLLIN, 0});
        fds.push_back({listenFd_, POLLIN, 0});
        for (const auto& [id, conn] : conns_) {
            fds.push_back({conn->fd, POLLIN, 0});
            polled.push_back(conn);
        }
        if (::poll(fds.data(), fds.size(), -1) < 0) {
            if (errno == EINTR)
                continue;
            break;
        }
        if (stop_.load())
            break;
        if (fds[0].revents & POLLIN) {
            char buf[64];
            while (::read(wakeRead_, buf, sizeof(buf)) > 0) {
            }
        }
        if (fds[1].revents & POLLIN)
            acceptClients();
        for (std::size_t i = 0; i < polled.size(); ++i) {
            if (fds[2 + i].revents & (POLLIN | POLLHUP | POLLERR))
                readClient(polled[i]);
        }
    }
    // Graceful drain: no new connections or requests; admitted jobs
    // finish and answer before we return.
    drainAndJoin();
}

void
ServeServer::acceptClients()
{
    for (;;) {
        const int fd = ::accept4(listenFd_, nullptr, nullptr,
                                 SOCK_CLOEXEC);
        if (fd < 0) {
            if (errno == EINTR)
                continue;
            return; // EAGAIN: queue drained (or transient error)
        }
        auto conn = std::make_shared<Conn>(fd, nextConnId_++);
        conns_.emplace(conn->id, conn);
    }
}

void
ServeServer::readClient(const std::shared_ptr<Conn>& conn)
{
    std::uint8_t buf[65536];
    const ssize_t r = ::recv(conn->fd, buf, sizeof(buf), 0);
    if (r == 0 || (r < 0 && errno != EINTR && errno != EAGAIN)) {
        closeConn(conn);
        return;
    }
    if (r < 0)
        return;
    try {
        conn->decoder.feed(buf, static_cast<std::size_t>(r));
        while (auto frame = conn->decoder.next()) {
            if (frame->type == FrameType::MetricsRequest) {
                // Live exposition: answered inline on the event-loop
                // thread (snapshots never block writers).
                const wire::MetricsRequestMsg req =
                    wire::decodeMetricsRequest(frame->payload);
                wire::MetricsResponseMsg resp;
                resp.tag = req.tag;
                resp.text = metricsText();
                conn->send(FrameType::MetricsResponse,
                           wire::encodeMetricsResponse(resp));
                continue;
            }
            if (frame->type != FrameType::Request)
                throw wire::WireError("client sent a non-Request frame");
            handleRequest(conn, decodeRequest(frame->payload));
        }
    } catch (const wire::WireError& e) {
        // One malformed client loses its connection; the daemon and
        // every other client keep serving.
        std::fprintf(stderr, "oscar-serve: client %llu: %s\n",
                     static_cast<unsigned long long>(conn->id), e.what());
        closeConn(conn);
    }
}

void
ServeServer::closeConn(const std::shared_ptr<Conn>& conn)
{
    conn->close();
    conns_.erase(conn->id);
    // Jobs already admitted from this conn stay queued: they may have
    // waiters from other connections, and a computed result still
    // warms the store. Their sends to this conn become no-ops.
}

void
ServeServer::enqueueLocked(const std::shared_ptr<Conn>& conn,
                           const std::shared_ptr<Job>& job)
{
    const bool was_empty = conn->pending.empty();
    conn->pending.push_back(job);
    if (was_empty)
        admission_.push_back(conn);
}

void
ServeServer::handleRequest(const std::shared_ptr<Conn>& conn,
                           RequestMsg req)
{
    if (req.kind == RequestKind::Stats) {
        ResponseMsg msg;
        msg.status = ResponseStatus::Stats;
        msg.tag = req.tag;
        {
            std::lock_guard<std::mutex> lock(m_);
            counters_.requests++;
            counters_.responses++;
            msg.counters = counters_;
        }
        if (store_)
            msg.counters.store = store_->stats();
        conn->send(FrameType::Response, encodeResponse(msg));
        return;
    }

    // Re-derive the content address locally: the key must name the
    // computation THIS daemon would run, whatever the client claimed.
    // A kernel ISA this build or host lacks fails only this request.
    try {
        req.cost.kernel.isa =
            kernels::kernelTable(req.cost.kernel.isa).isa;
    } catch (const std::runtime_error& e) {
        ResponseMsg msg;
        msg.status = ResponseStatus::Error;
        msg.tag = req.tag;
        msg.error = e.what();
        {
            std::lock_guard<std::mutex> lock(m_);
            counters_.requests++;
            counters_.responses++;
            counters_.errors++;
        }
        conn->send(FrameType::Response, encodeResponse(msg));
        return;
    }
    wire::CostSpec spec = req.cost;
    wire::encodeCostSpec(spec);
    req.cost.costId = spec.costId;
    const store::StoreKey key = storeKeyFor(req);

    std::lock_guard<std::mutex> lock(m_);
    counters_.requests++;
    if (req.kind == RequestKind::Reconstruct) {
        const auto it = inflight_.find(mapKeyOf(key));
        if (it != inflight_.end()) {
            // Identical computation already in flight: attach, don't
            // recompute. All waiters receive the same bits.
            it->second->waiters.push_back(
                {conn, req.tag, req.wantProgress});
            counters_.dedupWaiters++;
            return;
        }
    }
    auto job = std::make_shared<Job>();
    job->key = key;
    job->mapKey = mapKeyOf(key);
    job->fetchOnly = req.kind == RequestKind::Fetch;
    job->waiters.push_back({conn, req.tag, req.wantProgress});
    job->req = std::move(req);
    if (!job->fetchOnly)
        inflight_.emplace(job->mapKey, job);
    enqueueLocked(conn, job);
    cv_.notify_one();
}

std::shared_ptr<ServeServer::Job>
ServeServer::nextJob()
{
    std::unique_lock<std::mutex> lock(m_);
    cv_.wait(lock, [&] { return draining_ || !admission_.empty(); });
    if (admission_.empty())
        return nullptr; // draining, queue empty
    const std::shared_ptr<Conn> conn = admission_.front();
    admission_.pop_front();
    std::shared_ptr<Job> job = conn->pending.front();
    conn->pending.pop_front();
    // Round-robin fairness: a conn with more pending work goes to the
    // BACK of the admission queue, behind every other waiting client.
    if (!conn->pending.empty())
        admission_.push_back(conn);
    return job;
}

void
ServeServer::jobLoop()
{
    while (std::shared_ptr<Job> job = nextJob())
        execute(job);
}

void
ServeServer::broadcastProgress(const std::shared_ptr<Job>& job,
                               std::size_t completed, std::size_t total)
{
    std::vector<Job::Waiter> waiters;
    {
        std::lock_guard<std::mutex> lock(m_);
        waiters = job->waiters; // late attachers get progress too
    }
    ProgressMsg msg;
    msg.completed = completed;
    msg.total = total;
    for (const Job::Waiter& w : waiters) {
        if (!w.wantProgress)
            continue;
        msg.tag = w.tag;
        w.conn->send(FrameType::Progress, encodeProgress(msg));
    }
}

void
ServeServer::respond(const std::shared_ptr<Job>& job, ResponseMsg base,
                     bool unregister)
{
    std::vector<Job::Waiter> waiters;
    {
        std::lock_guard<std::mutex> lock(m_);
        // Order matters: the store was already written (on the Ok
        // path), so a request arriving after this erase misses the
        // dedupe map but hits the store -- never recomputes.
        if (unregister)
            inflight_.erase(job->mapKey);
        waiters = std::move(job->waiters);
        job->waiters.clear();
        counters_.responses += waiters.size();
        if (base.status == ResponseStatus::Error)
            counters_.errors += waiters.size();
    }
    for (const Job::Waiter& w : waiters) {
        base.tag = w.tag;
        w.conn->send(FrameType::Response, encodeResponse(base));
    }
}

void
ServeServer::execute(const std::shared_ptr<Job>& job)
{
    obs::ScopedSpan span(obs::SpanCategory::Serve, "execute",
                         job->key.costId);
    struct LatencyGuard
    {
        std::uint64_t t0 = obs::Tracer::nowNs();
        ~LatencyGuard()
        {
            static obs::Histogram& latency =
                obs::Registry::global().histogram(
                    "serve.request.latency.ns");
            latency.observe(obs::Tracer::nowNs() - t0);
        }
    } latency_guard;

    // 1. The store answers without touching the pool.
    if (store_) {
        if (auto hit = store_->load(job->key)) {
            ResponseMsg msg;
            msg.status = ResponseStatus::Ok;
            msg.servedFrom = ServedFrom::Store;
            msg.landscape = std::move(*hit);
            {
                std::lock_guard<std::mutex> lock(m_);
                counters_.storeHits++;
            }
            respond(job, std::move(msg), !job->fetchOnly);
            return;
        }
    }
    if (job->fetchOnly) {
        ResponseMsg msg;
        msg.status = ResponseStatus::Miss;
        msg.tag = 0;
        respond(job, std::move(msg), false);
        return;
    }

    // 2. Fresh pool evaluation -- exactly one per deduped request
    //    group; the counter is what the serving tests assert on.
    {
        std::lock_guard<std::mutex> lock(m_);
        counters_.evaluations++;
    }
    ResponseMsg msg;
    try {
        StatevectorCost cost(std::move(job->req.cost.circuit),
                             std::move(job->req.cost.hamiltonian));
        OscarOptions opts = options_.oscar;
        opts.samplingFraction = job->req.samplingFraction;
        opts.seed = job->req.sampleSeed;
        opts.kernel = job->req.cost.kernel;
        opts.progress = [this, job](std::size_t done, std::size_t total) {
            // Throttle to ~16 frames per request plus the final one.
            const std::size_t step = std::max<std::size_t>(1, total / 16);
            if (done % step == 0 || done == total)
                broadcastProgress(job, done, total);
        };
        const OscarResult result =
            Oscar::reconstruct(job->req.grid, cost, opts);

        store::StoredLandscape entry;
        entry.grid = job->req.grid;
        entry.sampleIndices.assign(result.samples.indices.begin(),
                                   result.samples.indices.end());
        entry.sampleValues = result.samples.values;
        entry.reconstructed = result.reconstructed.values().flat();
        entry.kernel = result.execution.kernel;
        entry.samplingFraction = job->req.samplingFraction;
        entry.sampleSeed = job->req.sampleSeed;
        entry.queriesUsed = result.queriesUsed;
        entry.querySpeedup = result.querySpeedup;

        // Persist BEFORE unregistering from the dedupe map (see
        // respond()): between put and erase, duplicates attach as
        // waiters; after the erase, they hit the store.
        if (store_) {
            try {
                store_->put(job->key, entry);
            } catch (const store::StoreError& e) {
                // A full or read-only disk must not fail the request:
                // the computed answer is still correct.
                std::fprintf(stderr, "oscar-serve: %s\n", e.what());
            }
        }
        msg.status = ResponseStatus::Ok;
        msg.servedFrom = ServedFrom::Computed;
        msg.landscape = std::move(entry);
    } catch (const std::exception& e) {
        msg.status = ResponseStatus::Error;
        msg.error = e.what();
    }
    respond(job, std::move(msg), true);
}

} // namespace serve
} // namespace oscar
