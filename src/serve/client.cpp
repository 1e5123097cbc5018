#include "src/serve/client.h"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

namespace oscar {
namespace serve {

namespace {

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

} // namespace

ServeClient::ServeClient(const std::string& socket_path)
{
    fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0)
        throw std::runtime_error(std::string("oscar-client: socket: ") +
                                 std::strerror(errno));
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (socket_path.empty() || socket_path.size() >= sizeof(addr.sun_path)) {
        ::close(fd_);
        throw std::runtime_error("oscar-client: bad socket path: \"" +
                                 socket_path + "\"");
    }
    std::memcpy(addr.sun_path, socket_path.c_str(),
                socket_path.size() + 1);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
        const std::string reason = std::strerror(errno);
        ::close(fd_);
        throw std::runtime_error("oscar-client: cannot connect to " +
                                 socket_path + ": " + reason +
                                 " (is oscar-serve running?)");
    }
}

ServeClient::~ServeClient()
{
    if (fd_ >= 0)
        ::close(fd_);
}

ResponseMsg
ServeClient::call(RequestMsg msg,
                  const std::function<void(const ProgressMsg&)>& on_progress)
{
    if (msg.tag == 0)
        msg.tag = nextTag_++;
    const std::uint64_t tag = msg.tag;
    const std::vector<std::uint8_t> frame =
        wire::encodeFrame(wire::FrameType::Request, encodeRequest(msg));
    if (!writeAll(fd_, frame.data(), frame.size()))
        throw std::runtime_error("oscar-client: send failed "
                                 "(daemon hung up?)");

    for (;;) {
        while (auto got = decoder_.next()) {
            switch (got->type) {
              case wire::FrameType::Response: {
                ResponseMsg response = decodeResponse(got->payload);
                if (response.tag == tag)
                    return response;
                // A response to an abandoned earlier tag: drop it.
                break;
              }
              case wire::FrameType::Progress: {
                const ProgressMsg progress = decodeProgress(got->payload);
                if (progress.tag == tag && on_progress)
                    on_progress(progress);
                break;
              }
              default:
                throw wire::WireError(
                    "unexpected frame type from oscar-serve");
            }
        }
        std::uint8_t buf[65536];
        const ssize_t r = ::recv(fd_, buf, sizeof(buf), 0);
        if (r == 0)
            throw std::runtime_error(
                "oscar-client: daemon closed the connection");
        if (r < 0) {
            if (errno == EINTR)
                continue;
            throw std::runtime_error(std::string("oscar-client: recv: ") +
                                     std::strerror(errno));
        }
        decoder_.feed(buf, static_cast<std::size_t>(r));
    }
}

std::string
ServeClient::metrics()
{
    wire::MetricsRequestMsg req;
    req.tag = nextTag_++;
    const std::vector<std::uint8_t> frame = wire::encodeFrame(
        wire::FrameType::MetricsRequest, wire::encodeMetricsRequest(req));
    if (!writeAll(fd_, frame.data(), frame.size()))
        throw std::runtime_error("oscar-client: send failed "
                                 "(daemon hung up?)");
    for (;;) {
        while (auto got = decoder_.next()) {
            switch (got->type) {
              case wire::FrameType::MetricsResponse: {
                wire::MetricsResponseMsg resp =
                    wire::decodeMetricsResponse(got->payload);
                if (resp.tag == req.tag)
                    return std::move(resp.text);
                break; // stale tag: drop
              }
              case wire::FrameType::Response:
              case wire::FrameType::Progress:
                break; // leftovers of an abandoned call(): drop
              default:
                throw wire::WireError(
                    "unexpected frame type from oscar-serve");
            }
        }
        std::uint8_t buf[65536];
        const ssize_t r = ::recv(fd_, buf, sizeof(buf), 0);
        if (r == 0)
            throw std::runtime_error(
                "oscar-client: daemon closed the connection");
        if (r < 0) {
            if (errno == EINTR)
                continue;
            throw std::runtime_error(std::string("oscar-client: recv: ") +
                                     std::strerror(errno));
        }
        decoder_.feed(buf, static_cast<std::size_t>(r));
    }
}

} // namespace serve
} // namespace oscar
