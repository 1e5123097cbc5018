/**
 * @file
 * Synchronous client for the oscar-serve daemon.
 *
 * One ServeClient is one Unix-socket connection. call() sends a
 * Request frame and blocks until the matching Response arrives,
 * invoking the caller's progress callback for every Progress frame
 * tagged with this request on the way. Thread-compatible, not
 * thread-safe: use one client per thread (the daemon is built for
 * many concurrent connections).
 */

#ifndef OSCAR_SERVE_CLIENT_H
#define OSCAR_SERVE_CLIENT_H

#include <cstdint>
#include <functional>
#include <string>

#include "src/serve/wire.h"
#include "src/serve/protocol.h"

namespace oscar {
namespace serve {

class ServeClient
{
  public:
    /**
     * Connect to the daemon's Unix socket.
     * @throws std::runtime_error when the connection fails
     */
    explicit ServeClient(const std::string& socket_path);

    ~ServeClient();

    ServeClient(const ServeClient&) = delete;
    ServeClient& operator=(const ServeClient&) = delete;

    /**
     * Send one request and wait for its Response. A zero msg.tag is
     * replaced by a fresh per-connection tag; Progress frames for the
     * request are forwarded to `on_progress` (when set) as they
     * arrive. @throws std::runtime_error when the daemon hangs up,
     * wire::WireError on protocol corruption.
     */
    ResponseMsg call(
        RequestMsg msg,
        const std::function<void(const ProgressMsg&)>& on_progress = {});

    /**
     * Fetch the daemon's live Prometheus-style metrics exposition
     * (one MetricsRequest / MetricsResponse round-trip). Same error
     * behavior as call().
     */
    std::string metrics();

  private:
    int fd_ = -1;
    std::uint64_t nextTag_ = 1;
    wire::FrameDecoder decoder_;
};

} // namespace serve
} // namespace oscar

#endif // OSCAR_SERVE_CLIENT_H
