/**
 * @file
 * The OSCW wire format: framing and payload codecs shared by the
 * oscar-serve protocol (src/serve/protocol.h) and the landscape
 * store's on-disk containers (src/store/).
 *
 * Every message between an oscar-serve client and the daemon is one
 * *frame*:
 *
 *   [magic u32 "OSCW"][version u16][type u16][payload length u64]
 *   [payload bytes][crc32 u32 of header + payload]
 *
 * Frames travel over a local Unix socket, so the payload ships
 * uncompressed. The CRC covers the header and the payload: a flipped
 * header field (even one that still parses, like a valid
 * neighbouring frame type) fails the trailer check.
 *
 * All integers are little-endian; doubles travel as their IEEE-754
 * bit pattern, so served values are bitwise the computed ones. A
 * frame is rejected -- WireError -- on bad magic, unknown version or
 * type, an oversized length, a CRC mismatch, or payload decode
 * overrun/trailing bytes; a truncated frame is simply "not complete
 * yet" and never yields a message.
 *
 * The CostSpec codec here is also the content address of a cost: its
 * FNV-1a body hash is the costId that keys the landscape store.
 */

#ifndef OSCAR_SERVE_WIRE_H
#define OSCAR_SERVE_WIRE_H

#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/backend/executor.h"
#include "src/hamiltonian/pauli_sum.h"
#include "src/quantum/circuit.h"

namespace oscar {
namespace wire {

/** Malformed wire data (framing, CRC, or payload decode). */
class WireError : public std::runtime_error
{
  public:
    explicit WireError(const std::string& what)
        : std::runtime_error("wire: " + what)
    {
    }
};

constexpr std::uint32_t kWireMagic = 0x4F534357u; // "OSCW"
// v2: KernelOptions carries the fusion window, KernelStats carries the
// super-kernel/batched-Pauli counters, and the ISA byte admits avx512.
// v4: the serving frames (Request/Response/Progress, payload schemas
// in src/serve/protocol.h).
// v5: compressed framing (stored length + codec byte in the header,
// smallest-of {raw, PackBits, plane PackBits} per frame).
// v6: MetricsRequest/MetricsResponse let a client scrape a live
// oscar-serve daemon's Prometheus text exposition.
// v7: the multi-process fleet frames (codes 1-7 and 11-14) are
// retired; only the serving frames remain.
// v8: frame compression is gone: the header drops the stored length
// and codec byte, and every payload ships as is.
// v9: KernelOptions drops its three replay-plan fields (block window,
// expectation batching, fusion window): a cost replays one fixed plan,
// so the spec, and with it the costId, no longer names one.
// v10: KernelOptions drops the prefix-cache switch and budget (it
// carries only the ISA) and KernelStats drops cacheEvictions: a batch
// resumes each point from the one before it, and nothing evicts.
// v11: KernelStats drops blockedGroupRuns, blockedOpsApplied,
// fusedSuperKernels and fusedOpsCollapsed (the replay plan fixes them
// at compile time), and its ISA byte must name scalar, avx2 or avx512.
constexpr std::uint16_t kWireVersion = 11;

/** Fixed frame header size (magic + version + type + length). */
constexpr std::size_t kFrameHeaderSize = 16;

/** Hard upper bound on one frame's payload (sanity, not a target). */
constexpr std::size_t kMaxFramePayload = std::size_t{1} << 30;

/**
 * Message kinds of the protocol. The codes keep their historical
 * values; the gaps are retired fleet frames, which decode as unknown.
 */
enum class FrameType : std::uint16_t
{
    Request = 8,          ///< client -> serve: reconstruction/query/stats
    Response = 9,         ///< serve -> client: terminal answer to a Request
    Progress = 10,        ///< serve -> client: sampling progress
    MetricsRequest = 15,  ///< client -> serve: scrape live metrics
    MetricsResponse = 16, ///< serve -> client: Prometheus exposition
};

// ---------------------------------------------------------------------
// Primitive encode/decode
// ---------------------------------------------------------------------

/** Little-endian append-only byte buffer. */
class WireWriter
{
  public:
    void u8(std::uint8_t v) { buf_.push_back(v); }
    void u16(std::uint16_t v);
    void u32(std::uint32_t v);
    void u64(std::uint64_t v);
    void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
    void f64(double v);
    void str(const std::string& s);

    const std::vector<std::uint8_t>& bytes() const { return buf_; }
    std::vector<std::uint8_t> take() { return std::move(buf_); }

  private:
    std::vector<std::uint8_t> buf_;
};

/** Bounds-checked little-endian reader; throws WireError on overrun. */
class WireReader
{
  public:
    explicit WireReader(std::span<const std::uint8_t> data)
        : data_(data)
    {
    }

    std::uint8_t u8();
    std::uint16_t u16();
    std::uint32_t u32();
    std::uint64_t u64();
    std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
    double f64();
    std::string str();

    bool atEnd() const { return pos_ == data_.size(); }
    std::size_t remaining() const { return data_.size() - pos_; }

    /** Throw unless the payload was consumed exactly. */
    void expectEnd() const;

  private:
    const std::uint8_t* need(std::size_t n);

    std::span<const std::uint8_t> data_;
    std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------

/** One decoded frame. */
struct Frame
{
    FrameType type = FrameType::Request;
    std::vector<std::uint8_t> payload;
};

/** Serialize a complete frame (header + payload + CRC). */
std::vector<std::uint8_t> encodeFrame(FrameType type,
                                      std::span<const std::uint8_t> payload);

/**
 * Incremental frame decoder over a byte stream. feed() appends raw
 * bytes; next() yields complete, CRC-verified frames in order, or
 * nullopt while the tail frame is still truncated. Corruption throws
 * WireError, after which the stream is unusable (the transport --
 * a client connection -- is torn down, not resynchronized).
 */
class FrameDecoder
{
  public:
    void feed(const std::uint8_t* data, std::size_t n);
    std::optional<Frame> next();

  private:
    std::vector<std::uint8_t> buf_;
    std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------
// Message payloads
// ---------------------------------------------------------------------

/**
 * A cost function the daemon can evaluate: ansatz circuit +
 * Hamiltonian + kernel settings. Content-addressed: `costId` is the
 * FNV-1a hash of the encoded body, so it names the computation (and
 * keys the landscape store) independently of who sent it.
 */
struct CostSpec
{
    std::uint64_t costId = 0;
    Circuit circuit;
    PauliSum hamiltonian{1};
    KernelOptions kernel;
};

/** Client -> oscar-serve metrics scrape. */
struct MetricsRequestMsg
{
    /** Client-chosen id echoed by the MetricsResponse. */
    std::uint64_t tag = 0;
};

/** The daemon's answer -- Prometheus text exposition. */
struct MetricsResponseMsg
{
    std::uint64_t tag = 0;
    std::string text;
};

void encodeCircuit(WireWriter& w, const Circuit& circuit);
Circuit decodeCircuit(WireReader& r);

void encodePauliSum(WireWriter& w, const PauliSum& sum);
PauliSum decodePauliSum(WireReader& r);

void encodeKernelOptions(WireWriter& w, const KernelOptions& options);
KernelOptions decodeKernelOptions(WireReader& r);

void encodeKernelStats(WireWriter& w, const KernelStats& stats);
KernelStats decodeKernelStats(WireReader& r);

/**
 * Encode a cost spec body and stamp costId with the body's FNV-1a
 * hash (ignoring any costId already set).
 */
std::vector<std::uint8_t> encodeCostSpec(CostSpec& spec);
CostSpec decodeCostSpec(std::span<const std::uint8_t> payload);

std::vector<std::uint8_t> encodeMetricsRequest(const MetricsRequestMsg& msg);
MetricsRequestMsg decodeMetricsRequest(std::span<const std::uint8_t> payload);

std::vector<std::uint8_t>
encodeMetricsResponse(const MetricsResponseMsg& msg);
MetricsResponseMsg
decodeMetricsResponse(std::span<const std::uint8_t> payload);

} // namespace wire
} // namespace oscar

#endif // OSCAR_SERVE_WIRE_H
