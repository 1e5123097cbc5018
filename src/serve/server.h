/**
 * @file
 * The oscar-serve daemon: a long-running process that fronts the
 * execution pool behind the OSCW wire protocol on a Unix socket.
 *
 * Topology:
 *
 *   oscar_client ----+
 *   oscar_client ----+--> oscar-serve --> LandscapeStore (disk)
 *   oscar_client ----+         |
 *                              +--> Oscar::reconstruct
 *                                   (in-process ExecutionEngine)
 *
 * One poll(2) event loop owns the listening socket and every client
 * connection; requests are parsed there and handed to a small pool of
 * job threads that probe the store and run reconstructions. Three
 * serving guarantees:
 *
 *  - Determinism: a served value -- from the store, from a shared
 *    in-flight computation, or freshly computed -- is bit-identical
 *    to a fresh Oscar::reconstruct of the same request (per fixed
 *    kernel ISA).
 *  - Dedupe: identical cost specs in flight share ONE pool
 *    evaluation; later identical requests attach as waiters and all
 *    receive the same bits. Store hits never touch the pool.
 *  - Fairness: request admission to the job pool is round-robin over
 *    client connections, so one chatty client cannot starve others.
 *
 * Shutdown is graceful: stop() (async-signal-safe, callable from a
 * SIGTERM handler) stops accepting work; in-flight and admitted jobs
 * finish and their responses are delivered before run() returns.
 */

#ifndef OSCAR_SERVE_SERVER_H
#define OSCAR_SERVE_SERVER_H

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/core/oscar.h"
#include "src/serve/protocol.h"
#include "src/store/landscape_store.h"

namespace oscar {
namespace serve {

struct ServeOptions
{
    /** Unix socket path (see resolveSocketPath). Must be non-empty. */
    std::string socketPath;

    /** Landscape store directory; "" disables persistence. */
    std::string storeDir;

    /** Store LRU byte budget (resolveStoreBudgetBytes). */
    std::size_t storeBudgetBytes = std::size_t{1024} << 20;

    /** Concurrent reconstruction jobs (>= 1). */
    int jobThreads = 2;

    /**
     * Base pipeline options for every computed request. The request
     * overrides samplingFraction, seed, kernel, and progress; thread
     * count, CS solver tuning etc. are the daemon's.
     */
    OscarOptions oscar;

    /** listen(2) backlog. */
    int backlog = 16;
};

/** The serving daemon. Construct (binds + listens), then run(). */
class ServeServer
{
  public:
    /**
     * Opens the store (when configured), binds the Unix socket
     * (removing a stale socket file first), and starts the job
     * threads. @throws std::runtime_error when the socket or store
     * cannot be set up.
     */
    explicit ServeServer(ServeOptions options);

    /** stop()s, drains, closes, and removes the socket file. */
    ~ServeServer();

    ServeServer(const ServeServer&) = delete;
    ServeServer& operator=(const ServeServer&) = delete;

    /**
     * Serve until stop(): accept clients, parse requests, dispatch
     * jobs, deliver responses. Returns after the graceful drain.
     */
    void run();

    /**
     * Request shutdown. Async-signal-safe (an atomic flag plus one
     * write(2) to the wake pipe), so a SIGTERM handler may call it.
     */
    void stop();

    ServeCounters counters() const;

    /**
     * Prometheus text exposition answered to MetricsRequest frames:
     * the process-wide obs::Registry snapshot (engine, wire, request
     * latency) plus this daemon's counters() rendered as
     * `oscar_serve_*` / `oscar_store_container_*` series, so scraped
     * values always match what counters() reports.
     */
    std::string metricsText() const;

    const std::string& socketPath() const { return options_.socketPath; }

    /** The landscape store, or nullptr when persistence is off. */
    store::LandscapeStore* store() { return store_.get(); }

  private:
    struct Conn;
    struct Job;

    void acceptClients();
    void readClient(const std::shared_ptr<Conn>& conn);
    void closeConn(const std::shared_ptr<Conn>& conn);
    void handleRequest(const std::shared_ptr<Conn>& conn, RequestMsg req);
    void enqueueLocked(const std::shared_ptr<Conn>& conn,
                       const std::shared_ptr<Job>& job);
    void jobLoop();
    std::shared_ptr<Job> nextJob();
    void execute(const std::shared_ptr<Job>& job);
    void respond(const std::shared_ptr<Job>& job, ResponseMsg base,
                 bool unregister);
    void broadcastProgress(const std::shared_ptr<Job>& job,
                           std::size_t completed, std::size_t total);
    void drainAndJoin();

    ServeOptions options_;
    std::unique_ptr<store::LandscapeStore> store_;
    int listenFd_ = -1;
    int wakeRead_ = -1;
    int wakeWrite_ = -1;
    std::atomic<bool> stop_{false};

    mutable std::mutex m_;
    std::condition_variable cv_;
    bool draining_ = false;
    std::uint64_t nextConnId_ = 1;
    /** Live connections, by id. Mutated only by the run() thread. */
    std::map<std::uint64_t, std::shared_ptr<Conn>> conns_;
    /** Round-robin admission queue: conns with pending jobs. */
    std::deque<std::shared_ptr<Conn>> admission_;
    /** In-flight deduped computations by store key. */
    std::map<std::array<std::uint64_t, 3>, std::shared_ptr<Job>> inflight_;
    ServeCounters counters_;
    std::vector<std::thread> jobThreads_;
};

} // namespace serve
} // namespace oscar

#endif // OSCAR_SERVE_SERVER_H
