/**
 * @file
 * The oscar-serve executable: always-on landscape serving daemon.
 *
 *   oscar-serve [--socket PATH] [--store DIR] [--budget-mb N]
 *               [--threads T] [--job-threads J]
 *
 * Listens on a Unix socket (default /tmp/oscar-serve.sock, or
 * OSCAR_SERVE_SOCKET), answers reconstruction requests from the
 * persistent landscape store when possible, dedupes identical
 * in-flight requests onto one evaluation, and computes the rest on
 * its in-process execution engine. SIGTERM/SIGINT drain gracefully: admitted
 * requests are answered before exit. See src/serve/server.h.
 */

#include <signal.h>

#include <cstdio>
#include <exception>
#include <string>

#include "src/obs/trace.h"
#include "src/serve/server.h"
#include "tools/serve_common.h"

namespace {

oscar::serve::ServeServer* g_server = nullptr;

extern "C" void
handleSignal(int)
{
    if (g_server)
        g_server->stop(); // async-signal-safe by contract
}

} // namespace

int
main(int argc, char** argv)
{
    using namespace oscar;
    try {
        serve::ServeOptions options;
        std::string socket_arg;
        std::string store_arg;
        long long budget_mb = -1;
        for (int i = 1; i < argc; ++i) {
            const char* val = nullptr;
            if (tools::flagValue(argc, argv, i, "--socket", val))
                socket_arg = val;
            else if (tools::flagValue(argc, argv, i, "--store", val))
                store_arg = val;
            else if (tools::flagValue(argc, argv, i, "--budget-mb", val))
                budget_mb = tools::parseInt("--budget-mb", val, 1, 1048576);
            else if (tools::flagValue(argc, argv, i, "--threads", val))
                options.oscar.numThreads = static_cast<int>(
                    tools::parseInt("--threads", val, 0, 256));
            else if (tools::flagValue(argc, argv, i, "--job-threads", val))
                options.jobThreads = static_cast<int>(
                    tools::parseInt("--job-threads", val, 1, 64));
            else {
                std::fprintf(stderr,
                             "usage: oscar-serve [--socket PATH] "
                             "[--store DIR] [--budget-mb N] "
                             "[--threads T] [--job-threads J]\n");
                return 64;
            }
        }
        options.socketPath = serve::resolveSocketPath(socket_arg);
        options.storeDir = store::resolveStoreDir(store_arg);
        options.storeBudgetBytes = store::resolveStoreBudgetBytes(budget_mb);

        // Metrics always record; OSCAR_TRACE opts tracing in.
        obs::applyEnv();

        serve::ServeServer server(options);
        g_server = &server;
        struct sigaction sa = {};
        sa.sa_handler = handleSignal;
        ::sigaction(SIGTERM, &sa, nullptr);
        ::sigaction(SIGINT, &sa, nullptr);
        // The daemon writes frames to clients that may vanish; EPIPE
        // is handled per send (MSG_NOSIGNAL), never as a signal.
        ::signal(SIGPIPE, SIG_IGN);

        std::printf("oscar-serve: listening on %s%s%s\n",
                    server.socketPath().c_str(),
                    options.storeDir.empty() ? " (store disabled)"
                                             : ", store ",
                    options.storeDir.c_str());
        std::fflush(stdout);
        server.run();

        const serve::ServeCounters c = server.counters();
        std::printf("oscar-serve: drained; requests=%llu responses=%llu "
                    "evaluations=%llu storeHits=%llu dedupWaiters=%llu "
                    "errors=%llu\n",
                    static_cast<unsigned long long>(c.requests),
                    static_cast<unsigned long long>(c.responses),
                    static_cast<unsigned long long>(c.evaluations),
                    static_cast<unsigned long long>(c.storeHits),
                    static_cast<unsigned long long>(c.dedupWaiters),
                    static_cast<unsigned long long>(c.errors));
        g_server = nullptr;
        return 0;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "oscar-serve: %s\n", e.what());
        return 1;
    }
}
