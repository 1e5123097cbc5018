#include "src/serve/wire.h"

#include <bit>

#include "src/common/crc32.h"
#include "src/common/fnv1a.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace oscar {
namespace wire {

// ------------------------------------------------------------ writer

void
WireWriter::u16(std::uint16_t v)
{
    buf_.push_back(static_cast<std::uint8_t>(v));
    buf_.push_back(static_cast<std::uint8_t>(v >> 8));
}

void
WireWriter::u32(std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void
WireWriter::u64(std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void
WireWriter::f64(double v)
{
    u64(std::bit_cast<std::uint64_t>(v));
}

void
WireWriter::str(const std::string& s)
{
    u32(static_cast<std::uint32_t>(s.size()));
    buf_.insert(buf_.end(), s.begin(), s.end());
}

// ------------------------------------------------------------ reader

const std::uint8_t*
WireReader::need(std::size_t n)
{
    if (data_.size() - pos_ < n)
        throw WireError("payload truncated");
    const std::uint8_t* p = data_.data() + pos_;
    pos_ += n;
    return p;
}

std::uint8_t
WireReader::u8()
{
    return *need(1);
}

std::uint16_t
WireReader::u16()
{
    const std::uint8_t* p = need(2);
    return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
}

std::uint32_t
WireReader::u32()
{
    const std::uint8_t* p = need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
    return v;
}

std::uint64_t
WireReader::u64()
{
    const std::uint8_t* p = need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    return v;
}

double
WireReader::f64()
{
    return std::bit_cast<double>(u64());
}

std::string
WireReader::str()
{
    const std::uint32_t n = u32();
    if (remaining() < n)
        throw WireError("string runs past payload end");
    const std::uint8_t* p = need(n);
    return std::string(reinterpret_cast<const char*>(p), n);
}

void
WireReader::expectEnd() const
{
    if (!atEnd())
        throw WireError("trailing bytes after payload");
}

// ----------------------------------------------------------- framing

namespace {

/** The codes are sparse (retired fleet frames leave gaps). */
bool
isFrameType(std::uint16_t raw)
{
    switch (static_cast<FrameType>(raw)) {
    case FrameType::Request:
    case FrameType::Response:
    case FrameType::Progress:
    case FrameType::MetricsRequest:
    case FrameType::MetricsResponse:
        return true;
    }
    return false;
}

} // namespace

std::vector<std::uint8_t>
encodeFrame(FrameType type, std::span<const std::uint8_t> payload)
{
    if (payload.size() > kMaxFramePayload)
        throw WireError("payload exceeds frame size limit");
    obs::ScopedSpan span(obs::SpanCategory::Wire, "encode",
                         static_cast<std::uint64_t>(type));
    WireWriter w;
    w.u32(kWireMagic);
    w.u16(kWireVersion);
    w.u16(static_cast<std::uint16_t>(type));
    w.u64(payload.size());
    std::vector<std::uint8_t> out = w.take();
    out.reserve(kFrameHeaderSize + payload.size() + 4);
    const std::uint32_t crc = ::oscar::crc32(
        std::span<const std::uint8_t>(out.data(), out.size()), payload);
    out.insert(out.end(), payload.begin(), payload.end());
    for (int i = 0; i < 4; ++i)
        out.push_back(static_cast<std::uint8_t>(crc >> (8 * i)));
    span.setArgs(payload.size(), out.size());
    static obs::Counter& bytes =
        obs::Registry::global().counter("wire.bytes.encoded");
    static obs::Counter& frames =
        obs::Registry::global().counter("wire.frames.encoded");
    bytes.add(out.size());
    frames.add();
    return out;
}

void
FrameDecoder::feed(const std::uint8_t* data, std::size_t n)
{
    // Compact lazily: once consumed bytes dominate, drop them so the
    // buffer tracks the unread tail instead of the whole stream.
    if (pos_ > 4096 && pos_ > buf_.size() / 2) {
        buf_.erase(buf_.begin(),
                   buf_.begin() + static_cast<std::ptrdiff_t>(pos_));
        pos_ = 0;
    }
    buf_.insert(buf_.end(), data, data + n);
}

std::optional<Frame>
FrameDecoder::next()
{
    const std::size_t avail = buf_.size() - pos_;
    if (avail < kFrameHeaderSize)
        return std::nullopt;
    WireReader header(std::span<const std::uint8_t>(buf_.data() + pos_,
                                                    kFrameHeaderSize));
    if (header.u32() != kWireMagic)
        throw WireError("bad frame magic");
    const std::uint16_t version = header.u16();
    if (version != kWireVersion)
        throw WireError("unsupported wire version " +
                        std::to_string(version));
    const std::uint16_t raw_type = header.u16();
    if (!isFrameType(raw_type))
        throw WireError("unknown frame type " + std::to_string(raw_type));
    const std::uint64_t len = header.u64();
    if (len > kMaxFramePayload)
        throw WireError("frame payload too large");
    if (avail < kFrameHeaderSize + len + 4)
        return std::nullopt; // truncated: wait for more bytes
    obs::ScopedSpan span(obs::SpanCategory::Wire, "decode", raw_type, len);
    const std::uint8_t* payload = buf_.data() + pos_ + kFrameHeaderSize;
    std::uint32_t trailer = 0;
    for (int i = 0; i < 4; ++i)
        trailer |= static_cast<std::uint32_t>(payload[len + i]) << (8 * i);
    if (::oscar::crc32(std::span<const std::uint8_t>(buf_.data() + pos_,
                                                     kFrameHeaderSize),
                       {payload, static_cast<std::size_t>(len)}) !=
        trailer)
        throw WireError("frame CRC mismatch");
    Frame frame;
    frame.type = static_cast<FrameType>(raw_type);
    frame.payload.assign(payload, payload + len);
    pos_ += kFrameHeaderSize + len + 4;
    return frame;
}

// ---------------------------------------------------------- messages

void
encodeCircuit(WireWriter& w, const Circuit& circuit)
{
    w.i32(circuit.numQubits());
    w.i32(circuit.numParams());
    w.u32(static_cast<std::uint32_t>(circuit.numGates()));
    for (const Gate& g : circuit.gates()) {
        w.u8(static_cast<std::uint8_t>(g.kind));
        w.i32(g.qubits[0]);
        w.i32(g.qubits[1]);
        w.f64(g.angle);
        w.i32(g.paramIndex);
        w.f64(g.coeff);
    }
}

Circuit
decodeCircuit(WireReader& r)
{
    const std::int32_t num_qubits = r.i32();
    const std::int32_t num_params = r.i32();
    if (num_qubits < 1 || num_qubits > 64 || num_params < 0)
        throw WireError("circuit header out of range");
    Circuit circuit(num_qubits, num_params);
    const std::uint32_t num_gates = r.u32();
    for (std::uint32_t i = 0; i < num_gates; ++i) {
        Gate g;
        const std::uint8_t kind = r.u8();
        if (kind > static_cast<std::uint8_t>(GateKind::RZZ))
            throw WireError("unknown gate kind");
        g.kind = static_cast<GateKind>(kind);
        g.qubits[0] = r.i32();
        g.qubits[1] = r.i32();
        g.angle = r.f64();
        g.paramIndex = r.i32();
        g.coeff = r.f64();
        if (g.paramIndex >= num_params)
            throw WireError("gate parameter index out of range");
        try {
            circuit.append(g); // validates qubit indices
        } catch (const std::exception& e) {
            throw WireError(std::string("invalid gate: ") + e.what());
        }
    }
    return circuit;
}

void
encodePauliSum(WireWriter& w, const PauliSum& sum)
{
    w.i32(sum.numQubits());
    w.u32(static_cast<std::uint32_t>(sum.numTerms()));
    for (const PauliTerm& t : sum.terms()) {
        w.f64(t.coeff);
        w.str(t.pauli.toLabel());
    }
}

PauliSum
decodePauliSum(WireReader& r)
{
    const std::int32_t num_qubits = r.i32();
    if (num_qubits < 1 || num_qubits > 64)
        throw WireError("pauli sum qubit count out of range");
    PauliSum sum(num_qubits);
    const std::uint32_t num_terms = r.u32();
    for (std::uint32_t i = 0; i < num_terms; ++i) {
        const double coeff = r.f64();
        const std::string label = r.str();
        try {
            sum.add(coeff, label);
        } catch (const std::exception& e) {
            throw WireError(std::string("invalid pauli term: ") + e.what());
        }
    }
    return sum;
}

void
encodeKernelOptions(WireWriter& w, const KernelOptions& options)
{
    w.u8(static_cast<std::uint8_t>(options.isa));
}

KernelOptions
decodeKernelOptions(WireReader& r)
{
    KernelOptions options;
    const std::uint8_t isa = r.u8();
    if (isa > static_cast<std::uint8_t>(kernels::KernelIsa::Avx512) &&
        isa != static_cast<std::uint8_t>(kernels::KernelIsa::Auto))
        throw WireError("unknown kernel ISA");
    options.isa = static_cast<kernels::KernelIsa>(isa);
    return options;
}

void
encodeKernelStats(WireWriter& w, const KernelStats& stats)
{
    w.u64(stats.cacheHits);
    w.u64(stats.cacheLookups);
    w.u8(static_cast<std::uint8_t>(stats.isa));
    w.u64(stats.batchedDiagonalPoints);
    w.u64(stats.batchedPauliPoints);
}

KernelStats
decodeKernelStats(WireReader& r)
{
    KernelStats stats;
    stats.cacheHits = r.u64();
    stats.cacheLookups = r.u64();
    // The ISA that executed: never Auto, which is only a request.
    const std::uint8_t isa = r.u8();
    if (isa > static_cast<std::uint8_t>(kernels::KernelIsa::Avx512))
        throw WireError("unknown kernel ISA in kernel stats");
    stats.isa = static_cast<kernels::KernelIsa>(isa);
    stats.batchedDiagonalPoints = r.u64();
    stats.batchedPauliPoints = r.u64();
    return stats;
}

std::vector<std::uint8_t>
encodeCostSpec(CostSpec& spec)
{
    WireWriter w;
    encodeCircuit(w, spec.circuit);
    encodePauliSum(w, spec.hamiltonian);
    encodeKernelOptions(w, spec.kernel);
    const std::vector<std::uint8_t>& body = w.bytes();
    spec.costId = fnv1a(body);
    WireWriter framed;
    framed.u64(spec.costId);
    std::vector<std::uint8_t> out = framed.take();
    out.insert(out.end(), body.begin(), body.end());
    return out;
}

CostSpec
decodeCostSpec(std::span<const std::uint8_t> payload)
{
    WireReader r(payload);
    CostSpec spec;
    spec.costId = r.u64();
    spec.circuit = decodeCircuit(r);
    spec.hamiltonian = decodePauliSum(r);
    spec.kernel = decodeKernelOptions(r);
    r.expectEnd();
    if (fnv1a(payload.subspan(8)) != spec.costId)
        throw WireError("cost spec id does not match body hash");
    return spec;
}

std::vector<std::uint8_t>
encodeMetricsRequest(const MetricsRequestMsg& msg)
{
    WireWriter w;
    w.u64(msg.tag);
    return w.take();
}

MetricsRequestMsg
decodeMetricsRequest(std::span<const std::uint8_t> payload)
{
    WireReader r(payload);
    MetricsRequestMsg msg;
    msg.tag = r.u64();
    r.expectEnd();
    return msg;
}

std::vector<std::uint8_t>
encodeMetricsResponse(const MetricsResponseMsg& msg)
{
    WireWriter w;
    w.u64(msg.tag);
    w.str(msg.text);
    return w.take();
}

MetricsResponseMsg
decodeMetricsResponse(std::span<const std::uint8_t> payload)
{
    WireReader r(payload);
    MetricsResponseMsg msg;
    msg.tag = r.u64();
    msg.text = r.str();
    r.expectEnd();
    return msg;
}

} // namespace wire
} // namespace oscar
