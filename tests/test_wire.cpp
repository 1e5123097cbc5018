/**
 * @file
 * Tests of the OSCW wire format (src/serve/wire.h):
 *
 *  - round-trip property tests over randomized cost specs (circuits
 *    with every gate kind, random Pauli sums, random kernel options)
 *    and kernel stats, and golden pins of the canonical encoding: a
 *    fixed spec's costId and the store's configHash, so containers
 *    stored by earlier builds keep their addresses;
 *  - framing robustness: every truncation of a valid frame yields "no
 *    frame yet" (never a bogus message), and corruption -- flipped
 *    payload bytes, bad magic, prior or unknown version, retired or
 *    unknown frame type, oversized length, CRC damage, trailing
 *    payload bytes -- is rejected with WireError (a flipped header
 *    byte never yields a frame);
 *  - streamed decode: frames split at arbitrary byte boundaries
 *    reassemble exactly;
 *  - seeded mutation fuzzing (tests/mutation_fuzz.h) of every
 *    surviving frame type and of the payload decoders: a mutant either
 *    throws WireError or decodes to a message that was encoded.
 */

#include <gtest/gtest.h>

#include <string>

#include "src/ansatz/qaoa.h"
#include "src/common/crc32.h"
#include "src/common/rng.h"
#include "src/graph/generators.h"
#include "src/hamiltonian/maxcut.h"
#include "src/serve/protocol.h"
#include "src/serve/wire.h"
#include "src/store/landscape_store.h"
#include "tests/mutation_fuzz.h"

namespace oscar {
namespace wire {
namespace {

Circuit
randomCircuit(Rng& rng, int num_qubits, int num_params)
{
    Circuit circuit(num_qubits, num_params);
    const int num_gates = 5 + static_cast<int>(rng.uniformInt(40));
    for (int i = 0; i < num_gates; ++i) {
        const int kind_index = static_cast<int>(rng.uniformInt(
            static_cast<std::uint64_t>(GateKind::RZZ) + 1));
        const auto kind = static_cast<GateKind>(kind_index);
        const int q0 = static_cast<int>(
            rng.uniformInt(static_cast<std::uint64_t>(num_qubits)));
        int q1 = q0;
        while (q1 == q0)
            q1 = static_cast<int>(rng.uniformInt(
                static_cast<std::uint64_t>(num_qubits)));
        Gate g;
        g.kind = kind;
        g.qubits[0] = q0;
        g.qubits[1] = gateArity(kind) == 2 ? q1 : -1;
        if (gateIsParameterized(kind)) {
            g.angle = rng.uniform(-3.0, 3.0);
            if (num_params > 0 && rng.uniform() < 0.7) {
                g.paramIndex = static_cast<int>(rng.uniformInt(
                    static_cast<std::uint64_t>(num_params)));
                g.coeff = rng.uniform(-2.0, 2.0);
            }
        }
        circuit.append(g);
    }
    return circuit;
}

PauliSum
randomPauliSum(Rng& rng, int num_qubits)
{
    PauliSum sum(num_qubits);
    const int num_terms = 1 + static_cast<int>(rng.uniformInt(10));
    for (int t = 0; t < num_terms; ++t) {
        PauliString pauli(num_qubits);
        for (int q = 0; q < num_qubits; ++q)
            pauli.setOp(q,
                        static_cast<PauliOp>(rng.uniformInt(4)));
        sum.add(rng.uniform(-2.0, 2.0), pauli);
    }
    return sum;
}

KernelOptions
randomKernelOptions(Rng& rng)
{
    KernelOptions options;
    const kernels::KernelIsa isas[] = {kernels::KernelIsa::Scalar,
                                       kernels::KernelIsa::Avx2,
                                       kernels::KernelIsa::Avx512};
    options.isa = isas[rng.uniformInt(3)];
    return options;
}

KernelStats
randomKernelStats(Rng& rng)
{
    KernelStats stats;
    stats.cacheHits = rng.uniformInt(1000);
    stats.cacheLookups = stats.cacheHits + rng.uniformInt(1000);
    const kernels::KernelIsa isas[] = {kernels::KernelIsa::Scalar,
                                       kernels::KernelIsa::Avx2,
                                       kernels::KernelIsa::Avx512};
    stats.isa = isas[rng.uniformInt(3)];
    stats.batchedDiagonalPoints = rng.uniformInt(500);
    stats.batchedPauliPoints = rng.uniformInt(500);
    return stats;
}

void
expectCircuitsEqual(const Circuit& a, const Circuit& b)
{
    ASSERT_EQ(a.numQubits(), b.numQubits());
    ASSERT_EQ(a.numParams(), b.numParams());
    ASSERT_EQ(a.numGates(), b.numGates());
    for (std::size_t i = 0; i < a.numGates(); ++i) {
        const Gate& ga = a.gates()[i];
        const Gate& gb = b.gates()[i];
        EXPECT_EQ(ga.kind, gb.kind);
        EXPECT_EQ(ga.qubits, gb.qubits);
        EXPECT_EQ(ga.angle, gb.angle); // bitwise: wire is bit-exact
        EXPECT_EQ(ga.paramIndex, gb.paramIndex);
        EXPECT_EQ(ga.coeff, gb.coeff);
    }
}

void
expectPauliSumsEqual(const PauliSum& a, const PauliSum& b)
{
    ASSERT_EQ(a.numQubits(), b.numQubits());
    ASSERT_EQ(a.numTerms(), b.numTerms());
    for (std::size_t t = 0; t < a.numTerms(); ++t) {
        EXPECT_EQ(a.terms()[t].coeff, b.terms()[t].coeff);
        EXPECT_EQ(a.terms()[t].pauli, b.terms()[t].pauli);
    }
}

TEST(WireTest, CostSpecRoundTripRandomized)
{
    Rng rng(123);
    for (int rep = 0; rep < 50; ++rep) {
        const int num_qubits = 2 + static_cast<int>(rng.uniformInt(10));
        const int num_params = static_cast<int>(rng.uniformInt(6));
        CostSpec spec;
        spec.circuit = randomCircuit(rng, num_qubits, num_params);
        spec.hamiltonian = randomPauliSum(rng, num_qubits);
        spec.kernel = randomKernelOptions(rng);

        const std::vector<std::uint8_t> payload = encodeCostSpec(spec);
        EXPECT_NE(spec.costId, 0u);
        const CostSpec back = decodeCostSpec(payload);

        EXPECT_EQ(back.costId, spec.costId);
        expectCircuitsEqual(back.circuit, spec.circuit);
        expectPauliSumsEqual(back.hamiltonian, spec.hamiltonian);
        EXPECT_EQ(back.kernel.isa, spec.kernel.isa);
    }
}

TEST(WireTest, CostSpecIdIsContentAddressed)
{
    Rng rng(7);
    CostSpec a;
    a.circuit = randomCircuit(rng, 4, 2);
    a.hamiltonian = randomPauliSum(rng, 4);
    CostSpec b = a;
    const std::vector<std::uint8_t> pa = encodeCostSpec(a);
    const std::vector<std::uint8_t> pb = encodeCostSpec(b);
    EXPECT_EQ(a.costId, b.costId);
    EXPECT_EQ(pa, pb);

    // Any semantic change moves the id.
    b.kernel.isa = kernels::KernelIsa::Scalar;
    encodeCostSpec(b);
    EXPECT_NE(a.costId, b.costId);
}

TEST(WireTest, GoldenCostIdAndConfigHash)
{
    // Pinned from the pre-v7 encoder: the canonical CostSpec body and
    // the sampling-config hash are store keys, so changing either
    // orphans every container already on disk. The config hash was
    // re-pinned when kCsSolverRevision joined it: containers solved
    // with the old FISTA defaults must miss, and again when
    // kStatevectorPlanRevision joined it: landscapes sampled by the RZZ
    // gate replay must miss, when that revision went to 3: SK and
    // UCCSD landscapes replayed through dense matvec units must miss,
    // and when it went to 4: MaxCut QAOA landscapes replayed on the
    // full state must miss.
    // The costId was re-pinned at wire v9, when
    // KernelOptions dropped its replay-plan fields: landscapes computed
    // under a per-request plan must miss; and again at v10, when it
    // dropped the prefix-cache switch and budget.
    const Graph graph = meshGraph(2, 3);
    CostSpec spec;
    spec.circuit = qaoaCircuit(graph, 1);
    spec.hamiltonian = maxcutHamiltonian(graph);
    spec.kernel.isa = kernels::KernelIsa::Scalar;
    const std::vector<std::uint8_t> payload = encodeCostSpec(spec);
    EXPECT_EQ(spec.costId, 0x411319b36be04e64ull);
    EXPECT_EQ(payload.size(), 724u);
    EXPECT_EQ(store::configHash(0.05, 1), 0xe16361656cf60ff1ull);
    EXPECT_EQ(store::gridHash(GridSpec::qaoaP1(20, 40)),
              0xc5d2700ab1021b8bull);
}

TEST(WireTest, KernelStatsRoundTripRandomized)
{
    Rng rng(321);
    for (int rep = 0; rep < 50; ++rep) {
        const KernelStats stats = randomKernelStats(rng);
        WireWriter w;
        encodeKernelStats(w, stats);
        const std::vector<std::uint8_t> bytes = w.take();
        WireReader r(bytes);
        const KernelStats back = decodeKernelStats(r);
        r.expectEnd();
        EXPECT_EQ(back.cacheHits, stats.cacheHits);
        EXPECT_EQ(back.cacheLookups, stats.cacheLookups);
        EXPECT_EQ(back.isa, stats.isa);
        EXPECT_EQ(back.batchedDiagonalPoints, stats.batchedDiagonalPoints);
        EXPECT_EQ(back.batchedPauliPoints, stats.batchedPauliPoints);
    }
}

TEST(WireTest, KernelStatsRejectUnknownIsa)
{
    // The ISA that executed is scalar, avx2 or avx512; Auto (255) is
    // only a request, and any other byte names no tier.
    WireWriter w;
    encodeKernelStats(w, KernelStats{});
    const std::vector<std::uint8_t> bytes = w.take();
    constexpr std::size_t kIsaOffset = 16; // after cacheHits, cacheLookups
    for (const std::uint8_t isa : {3, 255}) {
        std::vector<std::uint8_t> body = bytes;
        body[kIsaOffset] = isa;
        WireReader r(body);
        EXPECT_THROW(decodeKernelStats(r), WireError) << int(isa);
    }
}

/** Set a frame's header field (LE, `width` bytes at `offset`). */
void
setHeaderField(std::vector<std::uint8_t>& frame, std::size_t offset,
               std::size_t width, std::uint64_t value)
{
    for (std::size_t b = 0; b < width; ++b)
        frame[offset + b] = static_cast<std::uint8_t>(value >> (8 * b));
}

/**
 * Re-stamp the CRC trailer after a header edit, so the decoder's
 * structural checks -- not the CRC -- must catch the edit.
 */
void
restampCrc(std::vector<std::uint8_t>& frame,
           const std::vector<std::uint8_t>& payload)
{
    const std::uint32_t crc = ::oscar::crc32(
        std::span<const std::uint8_t>(frame.data(), kFrameHeaderSize),
        payload);
    setHeaderField(frame, frame.size() - 4, 4, crc);
}

/** The WireError message decoding `bytes` throws ("" if none). */
std::string
decodeError(const std::vector<std::uint8_t>& bytes)
{
    FrameDecoder decoder;
    decoder.feed(bytes.data(), bytes.size());
    try {
        decoder.next();
    } catch (const WireError& e) {
        return e.what();
    }
    return "";
}

TEST(WireTest, PriorVersionFramesAreRejected)
{
    // Frame-level version negotiation is all-or-nothing: a prior
    // version's header (offset 4 holds the little-endian version) is
    // torn down, not parsed leniently -- both ends come from the same
    // build. v6 is the last version that carried the fleet frames, v7
    // the last with compressed framing.
    const std::vector<std::uint8_t> payload = {1, 2, 3};
    for (const std::uint16_t version : {2, 6, 7}) {
        std::vector<std::uint8_t> bytes =
            encodeFrame(FrameType::Request, payload);
        setHeaderField(bytes, 4, 2, version);
        restampCrc(bytes, payload);
        EXPECT_NE(decodeError(bytes).find("unsupported wire version"),
                  std::string::npos)
            << "version " << version;
    }
}

TEST(WireTest, RetiredAndUnknownFrameTypesAreRejected)
{
    // The fleet frames (Hello .. Shutdown = 1-7, Challenge .. Telemetry
    // = 11-14) are retired: with a valid CRC over the edited header,
    // the type check alone must reject them, as it does 0, the code
    // past MetricsResponse, and the top of the range.
    const std::vector<std::uint8_t> payload = {4, 5, 6, 7};
    std::vector<std::uint16_t> codes = {0, 17, 0xFFFF};
    for (std::uint16_t code = 1; code <= 7; ++code)
        codes.push_back(code);
    for (std::uint16_t code = 11; code <= 14; ++code)
        codes.push_back(code);
    for (const std::uint16_t code : codes) {
        std::vector<std::uint8_t> bytes =
            encodeFrame(FrameType::Request, payload);
        setHeaderField(bytes, 6, 2, code);
        restampCrc(bytes, payload);
        EXPECT_NE(decodeError(bytes).find("unknown frame type"),
                  std::string::npos)
            << "type " << code;
    }
}

TEST(WireTest, ServeFrameTypesRoundTrip)
{
    const std::vector<std::uint8_t> payload = {1, 2, 3, 4};
    for (const FrameType type :
         {FrameType::Request, FrameType::Response, FrameType::Progress,
          FrameType::MetricsRequest, FrameType::MetricsResponse}) {
        const std::vector<std::uint8_t> bytes =
            encodeFrame(type, payload);
        EXPECT_EQ(bytes.size(), kFrameHeaderSize + payload.size() + 4);
        FrameDecoder decoder;
        decoder.feed(bytes.data(), bytes.size());
        const std::optional<Frame> frame = decoder.next();
        ASSERT_TRUE(frame.has_value());
        EXPECT_EQ(frame->type, type);
        EXPECT_EQ(frame->payload, payload);
    }
}

// ------------------------------------------------------------ framing

std::vector<std::uint8_t>
sampleFrame()
{
    MetricsResponseMsg msg;
    msg.tag = 7;
    msg.text = "payload with some body to checksum";
    return encodeFrame(FrameType::MetricsResponse,
                       encodeMetricsResponse(msg));
}

TEST(WireTest, FrameRoundTripAndStreamedReassembly)
{
    const std::vector<std::uint8_t> bytes = sampleFrame();

    // Whole frame at once.
    {
        FrameDecoder decoder;
        decoder.feed(bytes.data(), bytes.size());
        const auto frame = decoder.next();
        ASSERT_TRUE(frame.has_value());
        EXPECT_EQ(frame->type, FrameType::MetricsResponse);
        EXPECT_EQ(decodeMetricsResponse(frame->payload).text,
                  "payload with some body to checksum");
        EXPECT_FALSE(decoder.next().has_value());
    }

    // Byte-by-byte: exactly one frame, only after the last byte.
    {
        FrameDecoder decoder;
        for (std::size_t i = 0; i + 1 < bytes.size(); ++i) {
            decoder.feed(&bytes[i], 1);
            EXPECT_FALSE(decoder.next().has_value());
        }
        decoder.feed(&bytes.back(), 1);
        ASSERT_TRUE(decoder.next().has_value());
    }

    // Two concatenated frames split at an arbitrary boundary.
    {
        std::vector<std::uint8_t> two = bytes;
        two.insert(two.end(), bytes.begin(), bytes.end());
        FrameDecoder decoder;
        decoder.feed(two.data(), bytes.size() + 5);
        ASSERT_TRUE(decoder.next().has_value());
        EXPECT_FALSE(decoder.next().has_value());
        decoder.feed(two.data() + bytes.size() + 5,
                     two.size() - bytes.size() - 5);
        ASSERT_TRUE(decoder.next().has_value());
        EXPECT_FALSE(decoder.next().has_value());
    }
}

TEST(WireTest, TruncatedFramesNeverYieldAMessage)
{
    const std::vector<std::uint8_t> bytes = sampleFrame();
    for (std::size_t len = 0; len < bytes.size(); ++len) {
        FrameDecoder decoder;
        decoder.feed(bytes.data(), len);
        std::optional<Frame> frame;
        EXPECT_NO_THROW(frame = decoder.next()) << "prefix " << len;
        EXPECT_FALSE(frame.has_value()) << "prefix " << len;
    }
}

TEST(WireTest, CorruptFramesAreRejected)
{
    const std::vector<std::uint8_t> bytes = sampleFrame();

    // Bad magic.
    {
        std::vector<std::uint8_t> bad = bytes;
        bad[0] ^= 0xFF;
        FrameDecoder decoder;
        decoder.feed(bad.data(), bad.size());
        EXPECT_THROW(decoder.next(), WireError);
    }
    // Unsupported version.
    {
        std::vector<std::uint8_t> bad = bytes;
        bad[4] = 0xEE;
        FrameDecoder decoder;
        decoder.feed(bad.data(), bad.size());
        EXPECT_THROW(decoder.next(), WireError);
    }
    // Unknown frame type.
    {
        std::vector<std::uint8_t> bad = bytes;
        bad[6] = 0x7F;
        FrameDecoder decoder;
        decoder.feed(bad.data(), bad.size());
        EXPECT_THROW(decoder.next(), WireError);
    }
    // Absurd payload length.
    {
        std::vector<std::uint8_t> bad = bytes;
        bad[12] = 0xFF; // a high byte of the u64 payload length
        FrameDecoder decoder;
        decoder.feed(bad.data(), bad.size());
        EXPECT_THROW(decoder.next(), WireError);
    }
    // A flipped header byte never yields a frame: it is rejected, or
    // (a longer length) waits for bytes that never arrive.
    for (std::size_t i = 0; i < kFrameHeaderSize; ++i) {
        std::vector<std::uint8_t> bad = bytes;
        bad[i] ^= 0x01;
        FrameDecoder decoder;
        decoder.feed(bad.data(), bad.size());
        bool yielded = false;
        try {
            yielded = decoder.next().has_value();
        } catch (const WireError&) {
        }
        EXPECT_FALSE(yielded) << "header byte " << i;
    }
    // Every single flipped payload byte must trip the CRC.
    for (std::size_t i = kFrameHeaderSize; i + 4 < bytes.size(); ++i) {
        std::vector<std::uint8_t> bad = bytes;
        bad[i] ^= 0x01;
        FrameDecoder decoder;
        decoder.feed(bad.data(), bad.size());
        EXPECT_THROW(decoder.next(), WireError) << "byte " << i;
    }
    // Damaged CRC trailer.
    {
        std::vector<std::uint8_t> bad = bytes;
        bad.back() ^= 0x10;
        FrameDecoder decoder;
        decoder.feed(bad.data(), bad.size());
        EXPECT_THROW(decoder.next(), WireError);
    }
}

TEST(WireTest, PayloadDecodersRejectTruncationAndTrailingBytes)
{
    MetricsResponseMsg msg;
    msg.tag = 3;
    msg.text = "oscar_serve_requests_total 12\n";
    const std::vector<std::uint8_t> payload = encodeMetricsResponse(msg);

    for (std::size_t len = 0; len < payload.size(); ++len) {
        EXPECT_THROW(decodeMetricsResponse({payload.data(), len}),
                     WireError)
            << "prefix " << len;
    }
    std::vector<std::uint8_t> extra = payload;
    extra.push_back(0);
    EXPECT_THROW(decodeMetricsResponse(extra), WireError);

    // Cost spec: a flipped body byte must break the content address.
    Rng rng(5);
    CostSpec spec;
    spec.circuit = randomCircuit(rng, 3, 2);
    spec.hamiltonian = randomPauliSum(rng, 3);
    std::vector<std::uint8_t> cost_payload = encodeCostSpec(spec);
    cost_payload[cost_payload.size() / 2] ^= 0x01;
    EXPECT_THROW(decodeCostSpec(cost_payload), WireError);
}

TEST(WireTest, Crc32KnownVector)
{
    // CRC-32("123456789") is the classic check value 0xCBF43926; the
    // framing and the landscape store's containers share this
    // implementation.
    const char* s = "123456789";
    EXPECT_EQ(::oscar::crc32({reinterpret_cast<const std::uint8_t*>(s), 9}),
              0xCBF43926u);
}

TEST(WireTest, MetricsRequestAndResponseRoundTrip)
{
    MetricsRequestMsg req;
    req.tag = 0xDEADBEEFCAFEF00Dull;
    EXPECT_EQ(decodeMetricsRequest(encodeMetricsRequest(req)).tag,
              req.tag);

    MetricsResponseMsg resp;
    resp.tag = 99;
    resp.text = "# TYPE oscar_serve_requests_total counter\n"
                "oscar_serve_requests_total 12\n";
    const MetricsResponseMsg back =
        decodeMetricsResponse(encodeMetricsResponse(resp));
    EXPECT_EQ(back.tag, 99u);
    EXPECT_EQ(back.text, resp.text);

    std::vector<std::uint8_t> extra = encodeMetricsRequest(req);
    extra.push_back(0);
    EXPECT_THROW(decodeMetricsRequest(extra), WireError);
}

// ------------------------------------------------ mutation fuzzing

/** An Ok response whose landscape is one repeated value. */
serve::ResponseMsg
flatLandscapeResponse()
{
    serve::ResponseMsg msg;
    msg.status = serve::ResponseStatus::Ok;
    msg.tag = 11;
    msg.landscape.grid = GridSpec({{0.0, 1.0, 8}, {0.0, 1.0, 8}});
    msg.landscape.sampleIndices = {0, 9, 18};
    msg.landscape.sampleValues = {0.5, 0.5, 0.5};
    msg.landscape.reconstructed.assign(64, 0.25);
    msg.landscape.samplingFraction = 0.05;
    msg.landscape.sampleSeed = 1;
    msg.landscape.queriesUsed = 3;
    msg.landscape.querySpeedup = 21.0;
    return msg;
}

/** One encoded message of a surviving frame type. */
struct Encoded
{
    FrameType type;
    std::vector<std::uint8_t> payload;
};

/**
 * Decode a payload as its frame type's message and encode it again:
 * equal bytes mean the decoded message equals the encoded one.
 */
std::vector<std::uint8_t>
reencode(FrameType type, std::span<const std::uint8_t> payload)
{
    switch (type) {
      case FrameType::Request: {
        serve::RequestMsg msg = serve::decodeRequest(payload);
        return serve::encodeRequest(msg);
      }
      case FrameType::Response:
        return serve::encodeResponse(serve::decodeResponse(payload));
      case FrameType::Progress:
        return serve::encodeProgress(serve::decodeProgress(payload));
      case FrameType::MetricsRequest:
        return encodeMetricsRequest(decodeMetricsRequest(payload));
      case FrameType::MetricsResponse:
        return encodeMetricsResponse(decodeMetricsResponse(payload));
    }
    throw WireError("unreachable frame type");
}

/** One message of every surviving frame type (and every status). */
std::vector<Encoded>
encodedMessages()
{
    std::vector<Encoded> out;
    {
        serve::RequestMsg msg;
        msg.kind = serve::RequestKind::Reconstruct;
        msg.tag = 21;
        const Graph graph = meshGraph(2, 2);
        msg.cost.circuit = qaoaCircuit(graph, 1);
        msg.cost.hamiltonian = maxcutHamiltonian(graph);
        msg.grid = GridSpec({{-0.785, 0.785, 6}, {-1.571, 1.571, 8}});
        msg.samplingFraction = 0.25;
        msg.sampleSeed = 5;
        msg.wantProgress = true;
        out.push_back({FrameType::Request, serve::encodeRequest(msg)});
        serve::RequestMsg stats;
        stats.tag = 22;
        out.push_back({FrameType::Request, serve::encodeRequest(stats)});
    }
    out.push_back(
        {FrameType::Response, serve::encodeResponse(flatLandscapeResponse())});
    {
        serve::ResponseMsg msg;
        msg.status = serve::ResponseStatus::Error;
        msg.tag = 23;
        msg.error = "sampling fraction out of range";
        out.push_back({FrameType::Response, serve::encodeResponse(msg)});
        msg.status = serve::ResponseStatus::Stats;
        msg.error.clear();
        msg.counters.requests = 40;
        msg.counters.evaluations = 3;
        msg.counters.store.hits = 12;
        out.push_back({FrameType::Response, serve::encodeResponse(msg)});
    }
    out.push_back({FrameType::Progress,
                   serve::encodeProgress({24, 17, 48})});
    out.push_back({FrameType::MetricsRequest, encodeMetricsRequest({25})});
    out.push_back({FrameType::MetricsResponse,
                   encodeMetricsResponse(
                       {26, "# TYPE oscar_serve_requests_total counter\n"
                            "oscar_serve_requests_total 40\n"})});
    return out;
}

TEST(WireFuzzTest, FrameMutantsAreRejectedOrDecodeToAnEncodedMessage)
{
    constexpr int kMutantsPerFrame = 96;
    const std::vector<Encoded> messages = encodedMessages();
    std::vector<std::vector<std::uint8_t>> frames;
    std::vector<std::uint8_t> donor;
    for (const Encoded& m : messages) {
        // The equality check below relies on encode(decode(p)) == p.
        ASSERT_EQ(reencode(m.type, m.payload), m.payload);
        frames.push_back(encodeFrame(m.type, m.payload));
        donor.insert(donor.end(), frames.back().begin(),
                     frames.back().end());
    }
    const fuzz::LengthField header_lengths[] = {{8, 8}};

    std::size_t rejected = 0;
    std::size_t intact = 0;
    for (const std::uint64_t seed : fuzz::kSeeds) {
        Rng rng(seed);
        for (std::size_t f = 0; f < frames.size(); ++f) {
            for (int it = 0; it < kMutantsPerFrame; ++it) {
                // Half the mutants carry the next frame behind them,
                // so a damaged header can swallow or split a stream.
                std::vector<std::uint8_t> input = frames[f];
                if (rng.uniformInt(2)) {
                    const auto& next = frames[(f + 1) % frames.size()];
                    input.insert(input.end(), next.begin(), next.end());
                }
                const std::vector<std::uint8_t> mutant =
                    fuzz::mutate(rng, input, donor, header_lengths);
                FrameDecoder decoder;
                decoder.feed(mutant.data(), mutant.size());
                try {
                    while (const std::optional<Frame> frame =
                               decoder.next()) {
                        bool encoded = false;
                        for (const Encoded& m : messages)
                            encoded = encoded ||
                                      (m.type == frame->type &&
                                       m.payload == frame->payload);
                        ASSERT_TRUE(encoded)
                            << "seed " << seed << " frame " << f
                            << " mutant " << it;
                        EXPECT_EQ(reencode(frame->type, frame->payload),
                                  frame->payload);
                        ++intact;
                    }
                } catch (const WireError&) {
                    ++rejected;
                }
            }
        }
    }
    // Both outcomes occur: the loop is not vacuous either way.
    EXPECT_GT(rejected, 0u);
    EXPECT_GT(intact, 0u);
}

TEST(WireFuzzTest, PayloadDecodersThrowOnlyWireError)
{
    // Behind the framing the CRC hides most payload damage, so mutate
    // the payloads themselves: each decoder must return or throw
    // WireError on every mutant -- any other exception fails the
    // test, and an out-of-bounds read fails the sanitizer leg.
    constexpr int kMutantsPerPayload = 256;
    const std::vector<Encoded> messages = encodedMessages();
    std::vector<std::uint8_t> donor;
    for (const Encoded& m : messages)
        donor.insert(donor.end(), m.payload.begin(), m.payload.end());

    std::size_t rejected = 0;
    for (const std::uint64_t seed : fuzz::kSeeds) {
        Rng rng(seed);
        for (const Encoded& m : messages) {
            for (int it = 0; it < kMutantsPerPayload; ++it) {
                const std::vector<std::uint8_t> mutant =
                    fuzz::mutate(rng, m.payload, donor);
                try {
                    switch (m.type) {
                      case FrameType::Request:
                        serve::decodeRequest(mutant);
                        break;
                      case FrameType::Response:
                        serve::decodeResponse(mutant);
                        break;
                      case FrameType::Progress:
                        serve::decodeProgress(mutant);
                        break;
                      case FrameType::MetricsRequest:
                        decodeMetricsRequest(mutant);
                        break;
                      case FrameType::MetricsResponse:
                        decodeMetricsResponse(mutant);
                        break;
                    }
                } catch (const WireError&) {
                    ++rejected;
                }
            }
        }
    }
    EXPECT_GT(rejected, 0u);
}

} // namespace
} // namespace wire
} // namespace oscar
