/**
 * @file
 * Payload schemas of the oscar-serve protocol (wire v4).
 *
 * The always-on serving daemon fronts the execution pool behind the
 * OSCW framing (src/serve/wire.h) on a Unix socket. Three
 * frame types extend the protocol:
 *
 *   Request  (client -> serve)  one reconstruction / store query /
 *                               stats poll, tagged by the client
 *   Response (serve -> client)  the terminal answer to one Request,
 *                               echoing its tag
 *   Progress (serve -> client)  sampling progress of a Request that
 *                               asked for it (completed / total)
 *
 * A Reconstruct request carries the full problem: cost spec (circuit +
 * Hamiltonian + kernel options, content-addressed by its FNV-1a body
 * hash), grid spec, sampling fraction and seed.
 * The daemon answers from the persistent landscape store when it can,
 * attaches the request to an identical in-flight computation when one
 * exists, and computes otherwise -- in every case the returned values
 * are bit-identical to a fresh Oscar::reconstruct of the same request
 * (per fixed kernel ISA), by the determinism contract
 * the store and the pool share.
 *
 * Requests are tagged (RequestMsg::tag, echoed by Response/Progress)
 * so one connection can pipeline several requests and match answers.
 */

#ifndef OSCAR_SERVE_PROTOCOL_H
#define OSCAR_SERVE_PROTOCOL_H

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/serve/wire.h"
#include "src/store/landscape_store.h"

namespace oscar {
namespace serve {

/** What a Request asks the daemon to do. */
enum class RequestKind : std::uint8_t
{
    /** Serve from store / in-flight dedupe / fresh computation. */
    Reconstruct = 0,
    /** Serve from store only; a miss answers Miss, never computes. */
    Fetch = 1,
    /** Return the daemon's counters. */
    Stats = 2,
};

/** One client request. */
struct RequestMsg
{
    RequestKind kind = RequestKind::Stats;

    /** Client-chosen id echoed by Response/Progress frames. */
    std::uint64_t tag = 0;

    // Reconstruct / Fetch body:
    wire::CostSpec cost;
    GridSpec grid;
    double samplingFraction = 0.1;
    std::uint64_t sampleSeed = 42;

    /** Reconstruct only: stream Progress frames while sampling. */
    bool wantProgress = false;
};

enum class ResponseStatus : std::uint8_t
{
    Ok = 0,    ///< landscape attached
    Miss = 1,  ///< Fetch found no stored entry
    Error = 2, ///< message attached
    Stats = 3, ///< counters attached
};

/** Where an Ok answer came from. */
enum class ServedFrom : std::uint8_t
{
    Computed = 0, ///< a fresh pool evaluation (possibly shared)
    Store = 1,    ///< the persistent landscape store
};

/** Daemon-lifetime counters (monotonic; Stats responses carry them). */
struct ServeCounters
{
    std::uint64_t requests = 0;     ///< requests decoded
    std::uint64_t responses = 0;    ///< responses sent
    std::uint64_t evaluations = 0;  ///< fresh pool computations started
    std::uint64_t storeHits = 0;    ///< requests answered from the store
    std::uint64_t dedupWaiters = 0; ///< requests attached to an
                                    ///< identical in-flight computation
    std::uint64_t errors = 0;       ///< Error responses sent

    /** The landscape store's own counters (zero when disabled). */
    store::StoreStats store;
};

/** One daemon answer. */
struct ResponseMsg
{
    ResponseStatus status = ResponseStatus::Error;
    std::uint64_t tag = 0;
    ServedFrom servedFrom = ServedFrom::Computed;
    std::string error;                 ///< Error only
    store::StoredLandscape landscape;  ///< Ok only
    ServeCounters counters;            ///< Stats only
};

/** Sampling progress of an in-flight Reconstruct. */
struct ProgressMsg
{
    std::uint64_t tag = 0;
    std::uint64_t completed = 0;
    std::uint64_t total = 0;
};

/**
 * Encode a request, resolving a KernelIsa::Auto cost to this host's
 * concrete ISA and stamping cost.costId (content hash): the hash must
 * name the concrete computation, since it keys the landscape store.
 */
std::vector<std::uint8_t> encodeRequest(RequestMsg& msg);

/** @throws wire::WireError on any malformed payload */
RequestMsg decodeRequest(std::span<const std::uint8_t> payload);

std::vector<std::uint8_t> encodeResponse(const ResponseMsg& msg);
ResponseMsg decodeResponse(std::span<const std::uint8_t> payload);

std::vector<std::uint8_t> encodeProgress(const ProgressMsg& msg);
ProgressMsg decodeProgress(std::span<const std::uint8_t> payload);

/**
 * The store key a request addresses. Requires cost.costId to be
 * stamped (encodeRequest, or an explicit encodeCostSpec).
 */
store::StoreKey storeKeyFor(const RequestMsg& msg);

/**
 * Resolve the daemon's Unix socket path: a non-empty `configured`
 * wins, else the OSCAR_SERVE_SOCKET environment variable, else
 * /tmp/oscar-serve.sock. A set-but-invalid OSCAR_SERVE_SOCKET (empty,
 * or longer than a sockaddr_un::sun_path can hold) throws
 * std::runtime_error listing the valid form -- malformed settings
 * fail loudly, never fall back silently.
 */
std::string resolveSocketPath(const std::string& configured);

} // namespace serve
} // namespace oscar

#endif // OSCAR_SERVE_PROTOCOL_H
