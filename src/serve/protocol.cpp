#include "src/serve/protocol.h"

#include <sys/un.h>

#include <cstdlib>
#include <stdexcept>

#include "src/quantum/kernels.h"

namespace oscar {
namespace serve {

namespace {

using wire::WireError;
using wire::WireReader;
using wire::WireWriter;

/** Embed a byte blob as one length-prefixed field. */
void
blob(WireWriter& w, const std::vector<std::uint8_t>& bytes)
{
    w.u64(bytes.size());
    for (std::uint8_t b : bytes)
        w.u8(b);
}

std::vector<std::uint8_t>
readBlob(WireReader& r)
{
    const std::uint64_t n = r.u64();
    if (n > r.remaining())
        throw WireError("embedded blob runs past payload end");
    std::vector<std::uint8_t> bytes(n);
    for (std::uint64_t i = 0; i < n; ++i)
        bytes[i] = r.u8();
    return bytes;
}

void
encodeCounters(WireWriter& w, const ServeCounters& c)
{
    w.u64(c.requests);
    w.u64(c.responses);
    w.u64(c.evaluations);
    w.u64(c.storeHits);
    w.u64(c.dedupWaiters);
    w.u64(c.errors);
    w.u64(c.store.hits);
    w.u64(c.store.misses);
    w.u64(c.store.corruptMisses);
    w.u64(c.store.puts);
    w.u64(c.store.containersRemoved);
}

ServeCounters
decodeCounters(WireReader& r)
{
    ServeCounters c;
    c.requests = r.u64();
    c.responses = r.u64();
    c.evaluations = r.u64();
    c.storeHits = r.u64();
    c.dedupWaiters = r.u64();
    c.errors = r.u64();
    c.store.hits = r.u64();
    c.store.misses = r.u64();
    c.store.corruptMisses = r.u64();
    c.store.puts = r.u64();
    c.store.containersRemoved = r.u64();
    return c;
}

} // namespace

std::vector<std::uint8_t>
encodeRequest(RequestMsg& msg)
{
    WireWriter w;
    w.u8(static_cast<std::uint8_t>(msg.kind));
    w.u64(msg.tag);
    if (msg.kind != RequestKind::Stats) {
        // The concrete computation, not "whatever this host picks":
        // Auto resolves before hashing so the content address names
        // the computation the daemon will run (and the store key).
        msg.cost.kernel.isa =
            kernels::kernelTable(msg.cost.kernel.isa).isa;
        blob(w, wire::encodeCostSpec(msg.cost));
        store::encodeGridSpec(w, msg.grid);
        w.f64(msg.samplingFraction);
        w.u64(msg.sampleSeed);
        w.u8(msg.wantProgress ? 1 : 0);
    }
    return w.take();
}

RequestMsg
decodeRequest(std::span<const std::uint8_t> payload)
{
    WireReader r(payload);
    RequestMsg msg;
    const std::uint8_t kind = r.u8();
    if (kind > static_cast<std::uint8_t>(RequestKind::Stats))
        throw WireError("unknown request kind");
    msg.kind = static_cast<RequestKind>(kind);
    msg.tag = r.u64();
    if (msg.kind != RequestKind::Stats) {
        msg.cost = wire::decodeCostSpec(readBlob(r));
        msg.grid = store::decodeGridSpec(r);
        msg.samplingFraction = r.f64();
        msg.sampleSeed = r.u64();
        if (!(msg.samplingFraction > 0.0) || msg.samplingFraction > 1.0)
            throw WireError("sampling fraction out of (0, 1]");
        msg.wantProgress = r.u8() != 0;
    }
    r.expectEnd();
    return msg;
}

std::vector<std::uint8_t>
encodeResponse(const ResponseMsg& msg)
{
    WireWriter w;
    w.u8(static_cast<std::uint8_t>(msg.status));
    w.u64(msg.tag);
    switch (msg.status) {
      case ResponseStatus::Ok:
        w.u8(static_cast<std::uint8_t>(msg.servedFrom));
        store::encodeStoredLandscape(w, msg.landscape);
        break;
      case ResponseStatus::Miss:
        break;
      case ResponseStatus::Error:
        w.str(msg.error);
        break;
      case ResponseStatus::Stats:
        encodeCounters(w, msg.counters);
        break;
    }
    return w.take();
}

ResponseMsg
decodeResponse(std::span<const std::uint8_t> payload)
{
    WireReader r(payload);
    ResponseMsg msg;
    const std::uint8_t status = r.u8();
    if (status > static_cast<std::uint8_t>(ResponseStatus::Stats))
        throw WireError("unknown response status");
    msg.status = static_cast<ResponseStatus>(status);
    msg.tag = r.u64();
    switch (msg.status) {
      case ResponseStatus::Ok: {
        const std::uint8_t from = r.u8();
        if (from > static_cast<std::uint8_t>(ServedFrom::Store))
            throw WireError("unknown served-from marker");
        msg.servedFrom = static_cast<ServedFrom>(from);
        msg.landscape = store::decodeStoredLandscape(r);
        break;
      }
      case ResponseStatus::Miss:
        break;
      case ResponseStatus::Error:
        msg.error = r.str();
        break;
      case ResponseStatus::Stats:
        msg.counters = decodeCounters(r);
        break;
    }
    r.expectEnd();
    return msg;
}

std::vector<std::uint8_t>
encodeProgress(const ProgressMsg& msg)
{
    WireWriter w;
    w.u64(msg.tag);
    w.u64(msg.completed);
    w.u64(msg.total);
    return w.take();
}

ProgressMsg
decodeProgress(std::span<const std::uint8_t> payload)
{
    WireReader r(payload);
    ProgressMsg msg;
    msg.tag = r.u64();
    msg.completed = r.u64();
    msg.total = r.u64();
    r.expectEnd();
    if (msg.completed > msg.total)
        throw WireError("progress exceeds its total");
    return msg;
}

store::StoreKey
storeKeyFor(const RequestMsg& msg)
{
    store::StoreKey key;
    key.costId = msg.cost.costId;
    key.gridHash = store::gridHash(msg.grid);
    key.cfgHash = store::configHash(msg.samplingFraction, msg.sampleSeed);
    return key;
}

std::string
resolveSocketPath(const std::string& configured)
{
    // sun_path is 108 bytes on Linux; keep headroom for the NUL.
    constexpr std::size_t kMaxPath = sizeof(sockaddr_un{}.sun_path) - 1;
    if (!configured.empty()) {
        if (configured.size() > kMaxPath)
            throw std::runtime_error(
                "serve socket: expected a unix socket path of at most " +
                std::to_string(kMaxPath) + " bytes, got \"" + configured +
                "\"");
        return configured;
    }
    const char* env = std::getenv("OSCAR_SERVE_SOCKET");
    if (!env)
        return "/tmp/oscar-serve.sock";
    const std::string path(env);
    if (path.empty() || path.size() > kMaxPath)
        throw std::runtime_error(
            "OSCAR_SERVE_SOCKET: expected a unix socket path of 1.." +
            std::to_string(kMaxPath) + " bytes, got \"" + path + "\"");
    return path;
}

} // namespace serve
} // namespace oscar
