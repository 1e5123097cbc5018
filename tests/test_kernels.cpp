/**
 * @file
 * Tests for the ISA-dispatched, cache-blocked kernel layer:
 *
 *  - scalar vs AVX2 vs AVX-512 parity on randomized states and
 *    circuits (tolerance-based: different ISAs round differently),
 *  - bit-identical replay within a fixed ISA — straight runs,
 *    segmented checkpoint replays, and blocked vs unblocked plans all
 *    produce the same bits,
 *  - edge cases: dim smaller than the vector width, target qubit at
 *    the highest bit, block windows that split ops across the
 *    boundary (diagonal high-qubit resolution, high-control CX),
 *  - the batched diagonal expectation is bit-identical to per-point
 *    evaluation for every ISA, in the statevector backend and the
 *    analytic QAOA closed form,
 *  - the super-kernel primitives (rotX/rotY, diagonal table) and the
 *    batched Pauli contraction agree across tables,
 *    with the batched Pauli kernel bit-identical to the single-state
 *    kernel per state,
 *  - requesting an unavailable ISA throws, naming the available ones,
 *    and Auto picks the widest tier the CPU runs unless
 *    OSCAR_KERNEL_ISA pins one,
 *  - kernel ISA / blocked-pass / fusion counters surface through
 *    CostFunction::kernelStats and BatchHandle::stats,
 *  - amplitude and fused-payload storage is cache-line aligned,
 *  - the QAOA phase plan: chosen exactly for RZZ layers that match a
 *    ZZ-only Hamiltonian of at most 256 levels, within 1e-12 of the
 *    gate replay, bit-identical across batching, clones and engine
 *    threads, and never resuming a point at p=1.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <vector>

#include "src/ansatz/qaoa.h"
#include "src/ansatz/two_local.h"
#include "src/backend/analytic_qaoa.h"
#include "src/backend/engine.h"
#include "src/backend/statevector_backend.h"
#include "src/common/rng.h"
#include "src/graph/generators.h"
#include "src/hamiltonian/maxcut.h"
#include "src/hamiltonian/sk_model.h"
#include "src/landscape/grid.h"
#include "src/quantum/compiled_circuit.h"
#include "src/quantum/kernels.h"
#include "src/quantum/statevector.h"

namespace oscar {
namespace {

using kernels::KernelIsa;
using kernels::KernelTable;

/** Normalized random amplitude vector (reproducible). */
AlignedVector<cplx>
randomAmps(std::size_t dim, Rng& rng)
{
    AlignedVector<cplx> amps(dim);
    double norm2 = 0.0;
    for (std::size_t i = 0; i < dim; ++i) {
        amps[i] = cplx(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0));
        norm2 += std::norm(amps[i]);
    }
    const double inv = 1.0 / std::sqrt(norm2);
    for (cplx& a : amps)
        a *= inv;
    return amps;
}

void
expectAmpsNear(const AlignedVector<cplx>& a, const AlignedVector<cplx>& b,
               double tol)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_NEAR(a[i].real(), b[i].real(), tol) << "amp " << i;
        EXPECT_NEAR(a[i].imag(), b[i].imag(), tol) << "amp " << i;
    }
}

void
expectAmpsIdentical(const AlignedVector<cplx>& a,
                    const AlignedVector<cplx>& b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a[i], b[i]) << "amp " << i;
}

/** Tables to exercise: scalar always, wide ISAs when this host has them. */
std::vector<const KernelTable*>
availableTables()
{
    std::vector<const KernelTable*> tables = {
        &kernels::scalarKernelTable()};
    if (kernels::avx2Available())
        tables.push_back(&kernels::kernelTable(KernelIsa::Avx2));
    if (kernels::avx512Available())
        tables.push_back(&kernels::kernelTable(KernelIsa::Avx512));
    return tables;
}

TEST(Kernels, ScalarAvx2ParityRandomized)
{
    if (!kernels::avx2Available())
        GTEST_SKIP() << "no AVX2 on this host/build";
    const KernelTable& scalar = kernels::scalarKernelTable();
    const KernelTable& avx2 = kernels::kernelTable(KernelIsa::Avx2);
    ASSERT_EQ(avx2.isa, KernelIsa::Avx2);

    Rng rng(41);
    const std::array<cplx, 4> m = {cplx(0.6, 0.1), cplx(-0.2, 0.77),
                                   cplx(0.77, 0.2), cplx(0.3, -0.6)};
    const cplx p0 = std::exp(cplx(0.0, -0.37));
    const cplx p1 = std::exp(cplx(0.0, 0.37));

    // Every qubit position including the highest bit, for dims from
    // below the vector width (n = 1: one pair) upward.
    for (int n = 1; n <= 7; ++n) {
        const std::size_t dim = std::size_t{1} << n;
        for (int q = 0; q < n; ++q) {
            AlignedVector<cplx> a = randomAmps(dim, rng);
            AlignedVector<cplx> b = a;
            scalar.matrix1q(a.data(), dim, q, m);
            avx2.matrix1q(b.data(), dim, q, m);
            expectAmpsNear(a, b, 1e-14);

            a = randomAmps(dim, rng);
            b = a;
            scalar.diag1q(a.data(), dim, q, p0, p1);
            avx2.diag1q(b.data(), dim, q, p0, p1);
            expectAmpsNear(a, b, 1e-14);
        }
        for (int qa = 0; qa < n; ++qa) {
            for (int qb = qa + 1; qb < n; ++qb) {
                AlignedVector<cplx> a = randomAmps(dim, rng);
                AlignedVector<cplx> b = a;
                scalar.phaseZZ(a.data(), dim, qa, qb, p0, p1);
                avx2.phaseZZ(b.data(), dim, qa, qb, p0, p1);
                expectAmpsNear(a, b, 1e-14);
            }
        }
        {
            AlignedVector<cplx> a = randomAmps(dim, rng);
            AlignedVector<cplx> b = a;
            scalar.scale(a.data(), dim, p1);
            avx2.scale(b.data(), dim, p1);
            expectAmpsNear(a, b, 1e-14);
        }
        {
            const AlignedVector<cplx> amps = randomAmps(dim, rng);
            std::vector<double> diag(dim);
            for (std::size_t i = 0; i < dim; ++i)
                diag[i] = rng.uniform(-2.0, 2.0);
            const double es = scalar.expectationDiagonal(
                amps.data(), diag.data(), dim);
            const double ev = avx2.expectationDiagonal(
                amps.data(), diag.data(), dim);
            EXPECT_NEAR(es, ev, 1e-13);
        }
    }
}

TEST(Kernels, ParityOnRandomizedCircuits)
{
    if (!kernels::avx2Available())
        GTEST_SKIP() << "no AVX2 on this host/build";
    Rng rng(7);
    const Graph g = random3RegularGraph(8, rng);
    const Circuit circuit = qaoaCircuit(g, 2);
    const CompiledCircuit compiled(circuit);
    std::vector<double> params(circuit.numParams());
    for (double& p : params)
        p = rng.uniform(-2.0, 2.0);

    AlignedVector<cplx> scalar_amps(std::size_t{1} << 8, cplx(0, 0));
    scalar_amps[0] = 1.0;
    AlignedVector<cplx> avx2_amps = scalar_amps;
    compiled.runRange(scalar_amps.data(), scalar_amps.size(), 0,
                      compiled.numOps(), params.data(),
                      kernels::scalarKernelTable());
    compiled.runRange(avx2_amps.data(), avx2_amps.size(), 0,
                      compiled.numOps(), params.data(),
                      kernels::kernelTable(KernelIsa::Avx2));
    expectAmpsNear(scalar_amps, avx2_amps, 1e-12);
}

TEST(Kernels, BitIdenticalSegmentedReplayPerIsa)
{
    // The prefix-resume invariant under blocking and ISA dispatch:
    // for every available table, running [0, L) then [L, end) — which
    // can split a blocked run — reproduces the straight run bit for
    // bit.
    Rng rng(9);
    const Graph g = random3RegularGraph(6, rng);
    const Circuit circuit = qaoaCircuit(g, 2);
    CompiledCircuit compiled(circuit);
    ASSERT_GT(compiled.numBlockedGroups(), 0u);
    std::vector<double> params(circuit.numParams());
    for (double& p : params)
        p = rng.uniform(-2.0, 2.0);
    const std::size_t dim = std::size_t{1} << 6;

    for (const KernelTable* table : availableTables()) {
        AlignedVector<cplx> straight(dim, cplx(0, 0));
        straight[0] = 1.0;
        compiled.runRange(straight.data(), dim, 0, compiled.numOps(),
                          params.data(), *table);
        for (std::size_t level : compiled.frontierLevels()) {
            AlignedVector<cplx> resumed(dim, cplx(0, 0));
            resumed[0] = 1.0;
            compiled.runRange(resumed.data(), dim, 0, level,
                              params.data(), *table);
            compiled.runRange(resumed.data(), dim, level,
                              compiled.numOps(), params.data(), *table);
            expectAmpsIdentical(straight, resumed);
        }
    }
}

TEST(Kernels, BlockedVsUnblockedBitIdentical)
{
    // A circuit that exercises every boundary case of the blocking
    // pass under a tiny window (k = 2): diagonal ops entirely above
    // the window, diagonal ops straddling it, CX with a high control
    // and low target (blockable) and the reverse (not blockable),
    // plus in-window matrix and swap ops. Blocked and unblocked plans
    // must agree bit for bit on every available table.
    const int n = 6;
    Circuit circuit(n, 2);
    for (int q = 0; q < n; ++q)
        circuit.append(Gate::h(q));
    circuit.append(Gate::rzz(0, 1, 0.3));  // in-window diagonal
    circuit.append(Gate::rzz(1, 5, -0.8)); // straddles the window
    circuit.append(Gate::rzz(4, 5, 1.1));  // fully above the window
    circuit.append(Gate::cz(0, 4));        // partial CZ
    circuit.append(Gate::cz(4, 5));        // high CZ
    circuit.append(Gate::s(5));            // diagonal above the window
    circuit.append(Gate::rzParam(3, 0));   // parameterized high diag
    circuit.append(Gate::cx(5, 1));        // high control, low target
    circuit.append(Gate::cx(1, 5));        // low control, high target:
                                           // breaks the blocked run
    circuit.append(Gate::swap(0, 1));      // in-window swap
    circuit.append(Gate::rx(1, 0.9));
    circuit.append(Gate::ryParam(0, 1, -1.5));
    circuit.append(Gate::rzz(2, 3, 0.25)); // odd boundary: q = k..k+1
    const std::vector<double> params = {0.77, -0.41};

    CompiledCircuit blocked(circuit, CompileOptions{.blockWindow = 2});
    CompiledCircuit plain(circuit, CompileOptions{.blockWindow = 0});
    ASSERT_GT(blocked.numBlockedGroups(), 0u);
    ASSERT_EQ(plain.numBlockedGroups(), 0u);

    const std::size_t dim = std::size_t{1} << n;
    for (const KernelTable* table : availableTables()) {
        AlignedVector<cplx> a(dim, cplx(0, 0)), b(dim, cplx(0, 0));
        a[0] = b[0] = 1.0;
        blocked.runRange(a.data(), dim, 0, blocked.numOps(),
                         params.data(), *table);
        plain.runRange(b.data(), dim, 0, plain.numOps(), params.data(),
                       *table);
        expectAmpsIdentical(a, b);
    }
    // Neither plan replays onto an array of another size.
    for (const CompiledCircuit* plan : {&blocked, &plain}) {
        AlignedVector<cplx> half(dim / 2);
        EXPECT_THROW(plan->runRange(half.data(), dim / 2, 0,
                                    plan->numOps(), params.data()),
                     std::invalid_argument);
    }
}

TEST(Kernels, DimSmallerThanVectorWidth)
{
    // A 1-qubit system holds one amplitude pair — half an AVX2
    // register. Every table must handle it.
    const std::array<cplx, 4> h = {cplx(M_SQRT1_2, 0), cplx(M_SQRT1_2, 0),
                                   cplx(M_SQRT1_2, 0),
                                   cplx(-M_SQRT1_2, 0)};
    const std::vector<double> diag = {1.0, -1.0};
    for (const KernelTable* table : availableTables()) {
        AlignedVector<cplx> amps = {cplx(1, 0), cplx(0, 0)};
        table->matrix1q(amps.data(), 2, 0, h);
        EXPECT_NEAR(amps[0].real(), M_SQRT1_2, 1e-15);
        EXPECT_NEAR(amps[1].real(), M_SQRT1_2, 1e-15);
        table->diag1q(amps.data(), 2, 0, cplx(1, 0), cplx(0, 1));
        EXPECT_NEAR(amps[1].imag(), M_SQRT1_2, 1e-15);
        // <Z> of an equal superposition with a relative phase: 0.
        EXPECT_NEAR(table->expectationDiagonal(amps.data(), diag.data(),
                                               2),
                    0.0, 1e-15);
    }
}

TEST(Kernels, BatchedExpectationBitIdenticalPerIsa)
{
    Rng rng(13);
    const std::size_t dim = std::size_t{1} << 9;
    std::vector<double> diag(dim);
    for (double& d : diag)
        d = rng.uniform(-3.0, 3.0);
    std::vector<AlignedVector<cplx>> states;
    std::vector<const cplx*> ptrs;
    for (int s = 0; s < 7; ++s) {
        states.push_back(randomAmps(dim, rng));
        ptrs.push_back(states.back().data());
    }
    for (const KernelTable* table : availableTables()) {
        std::vector<double> batched(states.size());
        table->expectationDiagonalBatch(ptrs.data(), ptrs.size(),
                                        diag.data(), dim,
                                        batched.data());
        for (std::size_t s = 0; s < states.size(); ++s) {
            const double single = table->expectationDiagonal(
                ptrs[s], diag.data(), dim);
            EXPECT_EQ(single, batched[s])
                << kernels::isaName(table->isa) << " state " << s;
        }
    }
}

/** Axis-major points of a p=2 QAOA sweep (beta2 fastest). */
std::vector<std::vector<double>>
axisMajorPoints(const StatevectorCost& probe)
{
    const GridSpec grid = GridSpec::qaoaP2(3, 4);
    std::vector<std::size_t> indices(grid.numPoints());
    for (std::size_t i = 0; i < indices.size(); ++i)
        indices[i] = i;
    const auto perm = grid.prefixFriendlyPermutation(
        indices, probe.batchOrderHint());
    std::vector<std::vector<double>> points;
    points.reserve(perm.size());
    for (std::size_t p : perm)
        points.push_back(grid.pointAt(p));
    return points;
}

/**
 * Energies of `points`, each replayed from |0...0> through `compiled`
 * on one kernel table with the per-point diagonal expectation: the
 * unresumed, unbatched reference for a cost compiled with the same
 * options. The state has compiled.stateDim() amplitudes, so a
 * half-state schedule reads only the first half of a full `diag`.
 */
std::vector<double>
replayEnergies(const CompiledCircuit& compiled,
               const std::vector<double>& diag,
               const std::vector<std::vector<double>>& points,
               const KernelTable& table)
{
    const std::size_t dim = compiled.stateDim();
    EXPECT_GE(diag.size(), dim);
    AlignedVector<cplx> amps(dim);
    std::vector<double> energies;
    for (const auto& p : points) {
        std::fill(amps.begin(), amps.end(), cplx(0.0, 0.0));
        amps[0] = 1.0;
        compiled.runRange(amps.data(), dim, 0, compiled.numOps(),
                          p.data(), table);
        energies.push_back(
            table.expectationDiagonal(amps.data(), diag.data(), dim));
    }
    return energies;
}

/**
 * For every ISA: one-by-one evaluation of `circuit` against `ham`, the
 * grouped batched path (fused expectation, resumed points) and a
 * per-point replay of the cost's own compiled schedule agree bit for
 * bit; every value is within 1e-12 of the StatevectorCost::kPlan gate
 * replay and of the unfused replay; and the unfused plan replays bit
 * for bit with blocking on and off.
 */
void
expectReplayPathsAgree(const Circuit& circuit, const PauliSum& ham)
{
    const std::vector<double> diag = ham.diagonalTable();
    const CompiledCircuit plan(circuit, StatevectorCost::kPlan);
    const CompiledCircuit unfused(circuit, CompileOptions{});
    const CompiledCircuit unblocked(circuit,
                                    CompileOptions{.blockWindow = 0});
    ASSERT_EQ(unfused.numFusedUnits(), 0u);
    ASSERT_GT(unfused.numBlockedGroups(), 0u);
    ASSERT_EQ(unblocked.numBlockedGroups(), 0u);
    {
        const StatevectorCost cost(circuit, ham);
        const CompiledCircuit& own = cost.compiled();
        EXPECT_GT(own.numBlockedGroups(), 0u);
        EXPECT_GT(own.numFusedUnits(), 0u);
        EXPECT_GT(own.fusedOpCount(), own.numFusedUnits());
    }

    for (const KernelTable* table : availableTables()) {
        const KernelIsa isa = table->isa;
        const char* name = kernels::isaName(isa);
        KernelOptions options;
        options.isa = isa;

        StatevectorCost one_by_one(circuit, ham);
        one_by_one.configureKernel(options);
        const auto points = axisMajorPoints(one_by_one);
        std::vector<double> reference;
        for (const auto& p : points)
            reference.push_back(one_by_one.evaluate(p));

        StatevectorCost batched(circuit, ham);
        batched.configureKernel(options);
        const auto grouped = batched.evaluateBatch(points);
        const KernelStats stats = batched.kernelStats();
        EXPECT_EQ(stats.isa, isa);
        EXPECT_GT(stats.batchedDiagonalPoints, 0u) << name;

        const auto per_point =
            replayEnergies(one_by_one.compiled(), diag, points, *table);
        const auto plan_values = replayEnergies(plan, diag, points, *table);
        const auto unfused_values =
            replayEnergies(unfused, diag, points, *table);
        const auto unblocked_values =
            replayEnergies(unblocked, diag, points, *table);

        for (std::size_t i = 0; i < points.size(); ++i) {
            EXPECT_EQ(reference[i], grouped[i]) << name << " point " << i;
            EXPECT_EQ(reference[i], per_point[i])
                << name << " point " << i;
            EXPECT_NEAR(reference[i], plan_values[i], 1e-12)
                << name << " point " << i;
            EXPECT_NEAR(reference[i], unfused_values[i], 1e-12)
                << name << " point " << i;
            EXPECT_EQ(unfused_values[i], unblocked_values[i])
                << name << " point " << i;
        }
    }
}

TEST(Kernels, StatevectorCostBatchedPathsBitIdentical)
{
    // 6 qubits: the whole state is one cache block.
    Rng rng(21);
    const Graph g = random3RegularGraph(6, rng);
    expectReplayPathsAgree(qaoaCircuit(g, 2), maxcutHamiltonian(g));
}

TEST(Kernels, ScalarVsAvx2CostValuesAgreeWithinTolerance)
{
    if (!kernels::avx2Available())
        GTEST_SKIP() << "no AVX2 on this host/build";
    Rng rng(23);
    const Graph g = random3RegularGraph(8, rng);
    const Circuit circuit = qaoaCircuit(g, 1);
    const PauliSum ham = maxcutHamiltonian(g);

    StatevectorCost scalar(circuit, ham);
    KernelOptions scalar_opts;
    scalar_opts.isa = KernelIsa::Scalar;
    scalar.configureKernel(scalar_opts);

    StatevectorCost avx2(circuit, ham);
    KernelOptions avx2_opts;
    avx2_opts.isa = KernelIsa::Avx2;
    avx2.configureKernel(avx2_opts);

    for (int trial = 0; trial < 20; ++trial) {
        const std::vector<double> p = {rng.uniform(-1.0, 1.0),
                                       rng.uniform(-2.0, 2.0)};
        EXPECT_NEAR(scalar.evaluate(p), avx2.evaluate(p), 1e-11);
    }
}

TEST(Kernels, AnalyticBatchedSameGammaBitIdentical)
{
    Rng rng(31);
    const Graph g = random3RegularGraph(10, rng);
    AnalyticQaoaCost one_by_one(g);
    AnalyticQaoaCost batched(g);

    // Axis-major: gamma constant over runs of betas.
    std::vector<std::vector<double>> points;
    for (double gamma : {0.3, 0.9, 1.4}) {
        for (int b = 0; b < 5; ++b)
            points.push_back({-1.0 + 0.37 * b, gamma});
    }
    std::vector<double> reference;
    for (const auto& p : points)
        reference.push_back(one_by_one.evaluate(p));
    const auto values = batched.evaluateBatch(points);
    for (std::size_t i = 0; i < points.size(); ++i)
        EXPECT_EQ(reference[i], values[i]) << "point " << i;
    EXPECT_EQ(batched.kernelStats().batchedDiagonalPoints,
              points.size());
}

TEST(Kernels, StatsSurfaceThroughBatchHandle)
{
    Rng rng(17);
    const Graph g = random3RegularGraph(6, rng);
    StatevectorCost cost(qaoaCircuit(g, 2), maxcutHamiltonian(g));
    const auto points = axisMajorPoints(cost);

    ExecutionEngine engine(2);
    BatchHandle handle = engine.submit(cost, points);
    handle.get();
    const BatchStats stats = handle.stats();
    EXPECT_EQ(stats.kernel.isa, cost.kernelTable().isa);
    EXPECT_GT(stats.kernel.cacheLookups, 0u);
    EXPECT_GT(stats.kernel.batchedDiagonalPoints, 0u);
}

TEST(Kernels, ForcedScalarIgnoresHostIsa)
{
    Rng rng(19);
    const Graph g = random3RegularGraph(6, rng);
    StatevectorCost cost(qaoaCircuit(g, 1), maxcutHamiltonian(g));
    KernelOptions options;
    options.isa = KernelIsa::Scalar;
    cost.configureKernel(options);
    EXPECT_EQ(cost.kernelTable().isa, KernelIsa::Scalar);
    EXPECT_EQ(cost.kernelStats().isa, KernelIsa::Scalar);
}

/** Reference <psi|P|psi> straight from the matrix-element definition. */
double
referencePauliExpectation(const AlignedVector<cplx>& amps,
                          const PauliString& pauli)
{
    const int n = pauli.numQubits();
    std::uint64_t flip = 0;
    for (int q = 0; q < n; ++q) {
        const PauliOp op = pauli.op(q);
        if (op == PauliOp::X || op == PauliOp::Y)
            flip |= std::uint64_t{1} << q;
    }
    cplx acc(0.0, 0.0);
    const cplx im(0.0, 1.0);
    for (std::size_t i = 0; i < amps.size(); ++i) {
        const std::size_t j = i ^ flip;
        cplx elem(1.0, 0.0);
        for (int q = 0; q < n; ++q) {
            const bool bit_j = (j >> q) & 1ULL;
            switch (pauli.op(q)) {
              case PauliOp::I:
              case PauliOp::X:
                break;
              case PauliOp::Y:
                elem *= bit_j ? -im : im;
                break;
              case PauliOp::Z:
                if (bit_j)
                    elem = -elem;
                break;
            }
        }
        acc += std::conj(amps[i]) * elem * amps[j];
    }
    return acc.real();
}

PauliString
randomPauli(int num_qubits, Rng& rng, bool force_nondiagonal)
{
    for (;;) {
        PauliString pauli(num_qubits);
        for (int q = 0; q < num_qubits; ++q)
            pauli.setOp(q, static_cast<PauliOp>(rng.uniformInt(4)));
        if (!force_nondiagonal || !pauli.isDiagonal())
            return pauli;
    }
}

TEST(Kernels, PauliExpectationMatchesReferenceOnEveryTable)
{
    Rng rng(1234);
    for (const int n : {1, 2, 3, 6, 9}) {
        const std::size_t dim = std::size_t{1} << n;
        for (int rep = 0; rep < 20; ++rep) {
            const AlignedVector<cplx> amps = randomAmps(dim, rng);
            const PauliString pauli = randomPauli(n, rng, false);
            const PauliMasks m = pauli.masks();
            const double want = referencePauliExpectation(amps, pauli);
            static const cplx kPhases[4] = {
                {1.0, 0.0}, {0.0, 1.0}, {-1.0, 0.0}, {0.0, -1.0}};
            const cplx phase = kPhases[m.numY & 3];
            for (const KernelTable* table : availableTables()) {
                const double got = table->expectationPauli(
                    amps.data(), dim, m.flip, m.sign, phase);
                EXPECT_NEAR(got, want, 1e-12)
                    << kernels::isaName(table->isa) << " n=" << n
                    << " pauli=" << pauli.toLabel();
            }
        }
    }
}

TEST(Kernels, PauliExpectationScalarAvx2Parity)
{
    if (!kernels::avx2Available())
        GTEST_SKIP() << "no AVX2 on this host/build";
    const KernelTable& scalar = kernels::scalarKernelTable();
    const KernelTable& avx2 = kernels::kernelTable(KernelIsa::Avx2);
    Rng rng(77);
    for (const int n : {2, 4, 7, 10}) {
        const std::size_t dim = std::size_t{1} << n;
        for (int rep = 0; rep < 25; ++rep) {
            const AlignedVector<cplx> amps = randomAmps(dim, rng);
            const PauliString pauli = randomPauli(n, rng, true);
            const PauliMasks m = pauli.masks();
            static const cplx kPhases[4] = {
                {1.0, 0.0}, {0.0, 1.0}, {-1.0, 0.0}, {0.0, -1.0}};
            const cplx phase = kPhases[m.numY & 3];
            const double s = scalar.expectationPauli(
                amps.data(), dim, m.flip, m.sign, phase);
            const double v = avx2.expectationPauli(
                amps.data(), dim, m.flip, m.sign, phase);
            EXPECT_NEAR(s, v, 1e-12) << pauli.toLabel();
        }
    }
}

TEST(Kernels, NonDiagonalPauliSumRoutesThroughPinnedTable)
{
    // A transverse-field mixer term makes the sum non-diagonal; the
    // cost must agree across ISAs within rounding and stay
    // deterministic per ISA.
    Rng rng(5);
    const Graph g = random3RegularGraph(8, rng);
    PauliSum mixed = maxcutHamiltonian(g);
    for (int q = 0; q < 8; ++q)
        mixed.add(0.35, PauliString::single(8, q, PauliOp::X));
    ASSERT_FALSE(mixed.isDiagonal());

    const Circuit circuit = qaoaCircuit(g, 1);
    std::vector<std::vector<double>> points;
    Rng prng(6);
    for (int i = 0; i < 6; ++i)
        points.push_back({prng.uniform(0.0, 3.0), prng.uniform(0.0, 3.0)});

    StatevectorCost scalar_cost(circuit, mixed);
    KernelOptions scalar_opts;
    scalar_opts.isa = KernelIsa::Scalar;
    scalar_cost.configureKernel(scalar_opts);
    const std::vector<double> scalar_vals =
        scalar_cost.evaluateBatch(points);

    StatevectorCost scalar_again(circuit, mixed);
    scalar_again.configureKernel(scalar_opts);
    const std::vector<double> scalar_rerun =
        scalar_again.evaluateBatch(points);
    for (std::size_t i = 0; i < points.size(); ++i)
        EXPECT_EQ(scalar_vals[i], scalar_rerun[i]); // bitwise per ISA

    if (kernels::avx2Available()) {
        StatevectorCost avx2_cost(circuit, mixed);
        KernelOptions avx2_opts;
        avx2_opts.isa = KernelIsa::Avx2;
        avx2_cost.configureKernel(avx2_opts);
        const std::vector<double> avx2_vals =
            avx2_cost.evaluateBatch(points);
        for (std::size_t i = 0; i < points.size(); ++i)
            EXPECT_NEAR(scalar_vals[i], avx2_vals[i], 1e-9);
    }
}

TEST(Kernels, DiagonalPauliStringExpectationIsBitExactAcrossIsas)
{
    // flip == 0 strings move no amplitudes and multiply by exact +-1
    // signs, so even the AVX2 kernel must reproduce the scalar bits.
    Rng rng(42);
    for (const int n : {3, 8}) {
        const std::size_t dim = std::size_t{1} << n;
        const AlignedVector<cplx> amps = randomAmps(dim, rng);
        for (int rep = 0; rep < 10; ++rep) {
            PauliString pauli(n);
            for (int q = 0; q < n; ++q)
                pauli.setOp(q, rng.uniform() < 0.5 ? PauliOp::I
                                                   : PauliOp::Z);
            const PauliMasks m = pauli.masks();
            double want = 0.0, got_scalar = 0.0;
            want = referencePauliExpectation(amps, pauli);
            got_scalar = kernels::scalarKernelTable().expectationPauli(
                amps.data(), dim, m.flip, m.sign, cplx(1.0, 0.0));
            EXPECT_NEAR(got_scalar, want, 1e-12);
            // And the historical per-eigenvalue loop, bit for bit.
            double legacy = 0.0;
            for (std::size_t i = 0; i < dim; ++i)
                legacy += std::norm(amps[i]) *
                          pauli.diagonalEigenvalue(i);
            EXPECT_EQ(got_scalar, legacy);
        }
    }
}

TEST(Kernels, SuperKernelPrimitivesAgreeAcrossTables)
{
    // rotX/rotY and the fused diagonal table match the scalar
    // reference on every table, including dims at and below the
    // AVX-512 vector width (2 and 4 amplitudes — the masked-tail
    // paths).
    const KernelTable& scalar = kernels::scalarKernelTable();
    Rng rng(57);
    const double c = std::cos(0.41), sn = std::sin(0.41);
    for (const KernelTable* table : availableTables()) {
        for (int n = 1; n <= 6; ++n) {
            const std::size_t dim = std::size_t{1} << n;
            for (int q = 0; q < n; ++q) {
                AlignedVector<cplx> a = randomAmps(dim, rng);
                AlignedVector<cplx> b = a;
                scalar.rotX(a.data(), dim, q, c, sn);
                table->rotX(b.data(), dim, q, c, sn);
                expectAmpsNear(a, b, 1e-14);

                a = randomAmps(dim, rng);
                b = a;
                scalar.rotY(a.data(), dim, q, c, sn);
                table->rotY(b.data(), dim, q, c, sn);
                expectAmpsNear(a, b, 1e-14);
            }
            {
                AlignedVector<cplx> diag(dim);
                for (cplx& d : diag)
                    d = std::exp(cplx(0.0, rng.uniform(-3.0, 3.0)));
                AlignedVector<cplx> a = randomAmps(dim, rng);
                AlignedVector<cplx> b = a;
                scalar.applyDiagTable(a.data(), dim, diag.data());
                table->applyDiagTable(b.data(), dim, diag.data());
                expectAmpsNear(a, b, 1e-14);
            }
        }
    }
}

TEST(Kernels, PairedRotationsBitIdenticalToSingles)
{
    // rotX2/rotY2 promise bit-identity (not mere closeness) to the two
    // single-rotation calls on the same table: the replay paths pair
    // adjacent rotations opportunistically, so chunk and checkpoint
    // boundaries may split a pair and the result must not move by one
    // bit. Exercise every (qa, qb) pair in both orders, including the
    // low qubits that take the in-vector fallback paths, and dims at
    // and below the vector widths.
    Rng rng(91);
    const double ca = std::cos(0.37), sa = std::sin(0.37);
    const double cb = std::cos(-1.21), sb = std::sin(-1.21);
    for (const KernelTable* table : availableTables()) {
        for (int n = 1; n <= 7; ++n) {
            const std::size_t dim = std::size_t{1} << n;
            for (int qa = 0; qa < n; ++qa) {
                for (int qb = 0; qb < n; ++qb) {
                    if (qa == qb)
                        continue;
                    AlignedVector<cplx> a = randomAmps(dim, rng);
                    AlignedVector<cplx> b = a;
                    table->rotX(a.data(), dim, qa, ca, sa);
                    table->rotX(a.data(), dim, qb, cb, sb);
                    table->rotX2(b.data(), dim, qa, qb, ca, sa, cb, sb);
                    expectAmpsIdentical(a, b);

                    a = randomAmps(dim, rng);
                    b = a;
                    table->rotY(a.data(), dim, qa, ca, sa);
                    table->rotY(a.data(), dim, qb, cb, sb);
                    table->rotY2(b.data(), dim, qa, qb, ca, sa, cb, sb);
                    expectAmpsIdentical(a, b);
                }
            }
        }
    }
}

TEST(Kernels, BatchedPauliBitIdenticalToSinglePerTable)
{
    // The batched Pauli kernel runs the identical per-state operation
    // sequence as the single-state kernel, so each lane reproduces the
    // single-state bits exactly — including tail dims 2 and 4.
    Rng rng(61);
    static const cplx kPhases[4] = {
        {1.0, 0.0}, {0.0, 1.0}, {-1.0, 0.0}, {0.0, -1.0}};
    for (const int n : {1, 2, 3, 6, 9}) {
        const std::size_t dim = std::size_t{1} << n;
        std::vector<AlignedVector<cplx>> states;
        std::vector<const cplx*> ptrs;
        for (int st = 0; st < 6; ++st) {
            states.push_back(randomAmps(dim, rng));
            ptrs.push_back(states.back().data());
        }
        for (int rep = 0; rep < 10; ++rep) {
            const PauliString pauli = randomPauli(n, rng, false);
            const PauliMasks m = pauli.masks();
            const cplx phase = kPhases[m.numY & 3];
            for (const KernelTable* table : availableTables()) {
                std::vector<double> batched(ptrs.size());
                table->expectationPauliBatch(ptrs.data(), ptrs.size(),
                                             dim, m.flip, m.sign, phase,
                                             batched.data());
                for (std::size_t st = 0; st < ptrs.size(); ++st) {
                    const double single = table->expectationPauli(
                        ptrs[st], dim, m.flip, m.sign, phase);
                    EXPECT_EQ(single, batched[st])
                        << kernels::isaName(table->isa) << " n=" << n
                        << " pauli=" << pauli.toLabel() << " state "
                        << st;
                }
            }
        }
    }
}

TEST(Kernels, NonDiagonalBatchedExpectationBitIdentical)
{
    // The batched-expectation path of a non-diagonal Hamiltonian
    // (expectationPauliBatch per term) is bit-identical to per-point
    // evaluation and shows up in the batchedPauliPoints counter.
    Rng rng(67);
    const Graph g = random3RegularGraph(6, rng);
    PauliSum mixed = maxcutHamiltonian(g);
    for (int q = 0; q < 6; ++q)
        mixed.add(0.35, PauliString::single(6, q, PauliOp::X));
    ASSERT_FALSE(mixed.isDiagonal());
    const Circuit circuit = qaoaCircuit(g, 2);

    for (const KernelTable* table : availableTables()) {
        const KernelIsa isa = table->isa;
        KernelOptions base;
        base.isa = isa;
        StatevectorCost one_by_one(circuit, mixed);
        one_by_one.configureKernel(base);
        const auto points = axisMajorPoints(one_by_one);
        std::vector<double> reference;
        for (const auto& p : points)
            reference.push_back(one_by_one.evaluate(p));

        StatevectorCost batched(circuit, mixed);
        batched.configureKernel(base);
        const auto values = batched.evaluateBatch(points);
        EXPECT_GT(batched.kernelStats().batchedPauliPoints, 0u)
            << kernels::isaName(isa);
        for (std::size_t i = 0; i < points.size(); ++i)
            EXPECT_EQ(reference[i], values[i])
                << kernels::isaName(isa) << " point " << i;
    }
}

TEST(Kernels, FusedReplayPathsBitIdenticalPerIsa)
{
    // The one replay plan is fused: a default-constructed 12-qubit p=2
    // cost runs super-kernels and reproduces a replay of its compiled
    // schedule bit for bit. With 12 qubits the block window (10)
    // splits the state into blocks. A Z term keeps the second cost on
    // the gate path, whose schedule is StatevectorCost::kPlan itself.
    Rng rng(71);
    const Graph g = random3RegularGraph(12, rng);
    const Circuit circuit = qaoaCircuit(g, 2);
    const PauliSum ham = maxcutHamiltonian(g);
    PauliSum gate_ham = ham;
    gate_ham.add(0.25, PauliString::zString(12, {3}));

    StatevectorCost defaults(circuit, ham);
    ASSERT_GT(defaults.compiled().numPhaseOps(), 0u);
    const auto points = axisMajorPoints(defaults);
    const auto values = defaults.evaluateBatch(points);
    EXPECT_GT(defaults.compiled().numFusedUnits(), 0u);
    const auto reference =
        replayEnergies(defaults.compiled(), ham.diagonalTable(), points,
                       kernels::defaultKernelTable());
    for (std::size_t i = 0; i < points.size(); ++i)
        EXPECT_EQ(reference[i], values[i]) << "point " << i;

    StatevectorCost gates(circuit, gate_ham);
    ASSERT_EQ(gates.compiled().numPhaseOps(), 0u);
    const auto gate_values = gates.evaluateBatch(points);
    EXPECT_GT(gates.compiled().numFusedUnits(), 0u);
    const auto gate_reference =
        replayEnergies(CompiledCircuit(circuit, StatevectorCost::kPlan),
                       gate_ham.diagonalTable(), points,
                       kernels::defaultKernelTable());
    for (std::size_t i = 0; i < points.size(); ++i)
        EXPECT_EQ(gate_reference[i], gate_values[i]) << "point " << i;

    expectReplayPathsAgree(circuit, ham);
    expectReplayPathsAgree(circuit, gate_ham);
}

/** True when a StatevectorCost of (circuit, ham) compiles phase ops. */
bool
phasePlan(const Circuit& circuit, const PauliSum& ham)
{
    return StatevectorCost(circuit, ham).compiled().numPhaseOps() > 0;
}

TEST(Kernels, PhasePlanChosenOnlyForMatchingQaoaCosts)
{
    Rng rng(73);
    const Graph g = random3RegularGraph(8, rng);
    const PauliSum ham = maxcutHamiltonian(g);

    // p=1: H layer + cost layer become one fill; no checkpoint level.
    const StatevectorCost p1(qaoaCircuit(g, 1), ham);
    EXPECT_TRUE(p1.compiled().startsWithFill());
    EXPECT_EQ(p1.compiled().numPhaseOps(), 1u);
    EXPECT_TRUE(p1.compiled().frontierLevels().empty());
    EXPECT_EQ(p1.compiled().numOps(), 1u + 8u);

    // p=2: a fill and a table; the deeper levels stay checkpoints.
    const StatevectorCost p2(qaoaCircuit(g, 2), ham);
    EXPECT_EQ(p2.compiled().numPhaseOps(), 2u);
    EXPECT_EQ(p2.compiled().frontierLevels().size(), 2u);

    // No RZZ layer at all.
    EXPECT_FALSE(phasePlan(twoLocalCircuit(8, 2), ham));

    // RZZ layers that do not match the Hamiltonian's ZZ terms.
    Rng other_rng(74);
    const Graph other = random3RegularGraph(8, other_rng);
    EXPECT_FALSE(phasePlan(qaoaCircuit(g, 1), maxcutHamiltonian(other)));

    // A non-ZZ term, diagonal or not.
    PauliSum extra_z = ham;
    extra_z.add(0.5, PauliString::zString(8, {2}));
    EXPECT_FALSE(phasePlan(qaoaCircuit(g, 1), extra_z));
    PauliSum extra_x = ham;
    extra_x.add(0.5, "XIIIIIII");
    EXPECT_FALSE(phasePlan(qaoaCircuit(g, 1), extra_x));

    // Integer weights 1..28 on K8: 407 > 256 levels.
    Graph weighted(8);
    double w = 1.0;
    for (int u = 0; u < 8; ++u) {
        for (int v = u + 1; v < 8; ++v)
            weighted.addEdge(u, v, w++);
    }
    EXPECT_FALSE(
        phasePlan(qaoaCircuit(weighted, 1), maxcutHamiltonian(weighted)));
    // The same graph with weights 1 and 2 has 3 * 14 + 1 = 43 levels.
    Graph light(8);
    int e = 0;
    for (int u = 0; u < 8; ++u) {
        for (int v = u + 1; v < 8; ++v)
            light.addEdge(u, v, (e++ % 2) ? 2.0 : 1.0);
    }
    EXPECT_TRUE(phasePlan(qaoaCircuit(light, 1), maxcutHamiltonian(light)));

    // Only the statevector cost opts in: plain compiles keep the gates.
    EXPECT_EQ(CompiledCircuit(qaoaCircuit(g, 1), StatevectorCost::kPlan)
                  .numPhaseOps(),
              0u);
}

/** `count` grid points of `depth`-layer QAOA, spread over (-1.5, 1.5). */
std::vector<std::vector<double>>
randomQaoaPoints(int depth, std::size_t count, Rng& rng)
{
    std::vector<std::vector<double>> points(count);
    for (auto& p : points) {
        for (int j = 0; j < 2 * depth; ++j)
            p.push_back(rng.uniform(-1.5, 1.5));
    }
    return points;
}

TEST(Kernels, HalfStateChosenOnlyForSpinFlipSymmetricSchedules)
{
    Rng rng(87);
    const Graph g = random3RegularGraph(8, rng);
    const PauliSum ham = maxcutHamiltonian(g);
    for (int depth = 1; depth <= 3; ++depth) {
        const StatevectorCost cost(qaoaCircuit(g, depth), ham);
        EXPECT_TRUE(cost.compiled().halfState()) << "p=" << depth;
        EXPECT_EQ(cost.compiled().stateDim(), std::size_t{1} << 7);
        EXPECT_EQ(cost.diagonal()->size(), std::size_t{1} << 7);
    }

    auto half = [](const Circuit& circuit, const PauliSum& h) {
        return StatevectorCost(circuit, h).compiled().halfState();
    };
    // No phase ops: RY/CZ layers, a Z field, SK's Gaussian couplings,
    // and every plain compile.
    EXPECT_FALSE(half(twoLocalCircuit(8, 2), ham));
    PauliSum field = ham;
    field.add(0.5, PauliString::zString(8, {2}));
    EXPECT_FALSE(half(qaoaCircuit(g, 1), field));
    const Graph sk = skInstance(8, rng);
    const StatevectorCost sk_cost(qaoaCircuit(sk, 1), skHamiltonian(sk));
    EXPECT_FALSE(sk_cost.compiled().halfState());
    EXPECT_EQ(sk_cost.diagonal()->size(), std::size_t{1} << 8);
    EXPECT_FALSE(
        CompiledCircuit(qaoaCircuit(g, 1), StatevectorCost::kPlan)
            .halfState());

    // Phase ops, but a later op that does not commute with X^n.
    for (const Gate& extra : {Gate::z(3), Gate::h(1), Gate::ry(2, 0.3)}) {
        Circuit circuit = qaoaCircuit(g, 1);
        circuit.append(extra);
        const StatevectorCost cost(circuit, ham);
        EXPECT_GT(cost.compiled().numPhaseOps(), 0u);
        EXPECT_FALSE(cost.compiled().halfState());
        EXPECT_EQ(cost.diagonal()->size(), std::size_t{1} << 8);
    }
}

TEST(Kernels, HalfStateMatchesFullReplayOnSmallGraphs)
{
    // Graphs at or below the block window, where the top-qubit pass
    // must still run outside every block, and a 12q schedule with
    // constant X-symmetric gates and ZZ phases on the top qubit
    // appended. Its constant RZZ sits alone between two top-qubit
    // passes, so it replays outside every block too.
    Graph edge(2);
    edge.addEdge(0, 1);
    Graph triangle(3);
    triangle.addEdge(0, 1);
    triangle.addEdge(1, 2);
    triangle.addEdge(0, 2);
    Rng rng(89);
    Graph six = random3RegularGraph(6, rng);
    Graph twelve = random3RegularGraph(12, rng);
    Circuit extras = qaoaCircuit(twelve, 2);
    extras.append(Gate::rx(11, 0.37));
    extras.append(Gate::rzz(0, 11, 0.41));
    extras.append(Gate::rx(11, -0.2));
    extras.append(Gate::x(2));
    extras.append(Gate::x(11));
    extras.append(Gate::rzzParam(1, 11, 1, 0.5));

    struct Case
    {
        const Graph* graph;
        Circuit circuit;
    };
    std::vector<Case> cases;
    for (const Graph* graph : {&edge, &triangle, &six}) {
        for (int depth = 1; depth <= 2; ++depth)
            cases.push_back({graph, qaoaCircuit(*graph, depth)});
    }
    cases.push_back({&six, qaoaCircuit(six, 3)});
    cases.push_back({&twelve, extras});

    for (const Case& c : cases) {
        const int n = c.graph->numVertices();
        const PauliSum ham = maxcutHamiltonian(*c.graph);
        StatevectorCost cost(c.circuit, ham);
        ASSERT_TRUE(cost.compiled().halfState()) << n << "q";
        ASSERT_EQ(cost.compiled().stateDim(), std::size_t{1} << (n - 1));
        const auto points =
            randomQaoaPoints(c.circuit.numParams() / 2, 8, rng);
        const auto batch = cost.evaluateBatch(points);
        const auto full =
            replayEnergies(CompiledCircuit(c.circuit, StatevectorCost::kPlan),
                           ham.diagonalTable(), points, cost.kernelTable());
        for (std::size_t i = 0; i < points.size(); ++i) {
            EXPECT_EQ(cost.evaluate(points[i]), batch[i])
                << n << "q point " << i;
            EXPECT_NEAR(batch[i], full[i], 1e-12) << n << "q point " << i;
        }
    }
}

TEST(Kernels, PairMaskIsATopQubitGateAndInvertsAtMinusTheta)
{
    // A random half state h and its spin-flip-symmetric 9-qubit state.
    constexpr int n = 9;
    const std::size_t dim = std::size_t{1} << n;
    const std::size_t half = dim / 2;
    Rng rng(93);
    AlignedVector<cplx> h(half);
    for (cplx& a : h)
        a = cplx(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0));
    auto symmetric = [&] {
        AlignedVector<cplx> full(dim);
        for (std::size_t z = 0; z < dim; ++z)
            full[z] = h[z < half ? z : z ^ (dim - 1)];
        return full;
    };
    AlignedVector<cplx> full = symmetric();

    const double theta = 0.73;
    const double c = std::cos(theta / 2);
    const double s = std::sin(theta / 2);
    AlignedVector<cplx> moved = h;
    kernels::pairMask(moved.data(), half, cplx(c, 0.0), cplx(0.0, -s));
    kernels::rotX(full.data(), dim, n - 1, c, s);
    for (std::size_t x = 0; x < half; ++x) {
        EXPECT_LE(std::abs(moved[x] - full[x]), 1e-15) << x;
        EXPECT_LE(std::abs(full[x ^ (dim - 1)] - full[x]), 1e-15) << x;
    }

    kernels::pairMask(moved.data(), half, cplx(c, 0.0), cplx(0.0, s));
    for (std::size_t x = 0; x < half; ++x)
        EXPECT_LE(std::abs(moved[x] - h[x]), 1e-15) << x;

    // The general loop: any [[m00, m01], [m01, m00]] on the top qubit.
    const cplx m00(0.6, 0.3);
    const cplx m01(-0.2, 0.7);
    moved = h;
    full = symmetric();
    kernels::pairMask(moved.data(), half, m00, m01);
    kernels::matrix1q(full.data(), dim, n - 1, {m00, m01, m01, m00});
    for (std::size_t x = 0; x < half; ++x)
        EXPECT_LE(std::abs(moved[x] - full[x]), 1e-15) << x;
}

TEST(Kernels, PhasePlanMatchesGateReplay)
{
    struct Case
    {
        int qubits;
        int depth;
        std::size_t points;
    };
    for (const Case c : {Case{12, 2, 12}, Case{20, 1, 3}}) {
        Rng rng(75 + c.qubits);
        const Graph g = random3RegularGraph(c.qubits, rng);
        const Circuit circuit = qaoaCircuit(g, c.depth);
        const PauliSum ham = maxcutHamiltonian(g);
        StatevectorCost cost(circuit, ham);
        ASSERT_GT(cost.compiled().numPhaseOps(), 0u) << c.qubits << "q";
        const auto points = randomQaoaPoints(c.depth, c.points, rng);
        const auto values = cost.evaluateBatch(points);
        const auto gates =
            replayEnergies(CompiledCircuit(circuit, StatevectorCost::kPlan),
                           ham.diagonalTable(), points, cost.kernelTable());
        for (std::size_t i = 0; i < points.size(); ++i)
            EXPECT_NEAR(values[i], gates[i], 1e-12)
                << c.qubits << "q point " << i;
    }
}

TEST(Kernels, PhaseOpsReplayBitIdenticalBlockedAndSegmented)
{
    // 12 qubits, an 11-qubit half state: the block window (10) splits
    // it, so the fill and the table run per block in the plan and over
    // the whole state unblocked. Both, and every cut of the schedule,
    // agree bitwise.
    Rng rng(79);
    const Graph g = random3RegularGraph(12, rng);
    const Circuit circuit = qaoaCircuit(g, 2);
    const StatevectorCost cost(circuit, maxcutHamiltonian(g));
    const CompiledCircuit& plan = cost.compiled();
    ASSERT_EQ(plan.numPhaseOps(), 2u);
    ASSERT_GT(plan.numBlockedGroups(), 0u);
    // No gate super-kernel for a cut to split.
    ASSERT_EQ(plan.numFusedUnits(), plan.numPhaseOps());
    const CompiledCircuit unblocked(
        circuit, CompileOptions{.blockWindow = 0, .fuse = true},
        plan.phaseLevels());
    ASSERT_EQ(unblocked.numPhaseOps(), 2u);
    ASSERT_EQ(unblocked.numBlockedGroups(), 0u);
    ASSERT_TRUE(plan.halfState());
    ASSERT_TRUE(unblocked.halfState());
    const std::vector<double> params = {0.31, -0.77, 1.13, -0.42};
    const std::size_t dim = plan.stateDim();
    ASSERT_EQ(dim, std::size_t{1} << 11);

    for (const KernelTable* table : availableTables()) {
        // Garbage in the buffer: a fill-first replay overwrites it.
        AlignedVector<cplx> straight(dim, cplx(3.0, -1.0));
        plan.runRange(straight.data(), dim, 0, plan.numOps(),
                      params.data(), *table);
        AlignedVector<cplx> flat(dim);
        unblocked.runRange(flat.data(), dim, 0, unblocked.numOps(),
                           params.data(), *table);
        expectAmpsIdentical(straight, flat);
        for (std::size_t cut = 1; cut < plan.numOps(); ++cut) {
            AlignedVector<cplx> split(dim);
            plan.runRange(split.data(), dim, 0, cut, params.data(),
                          *table);
            plan.runRange(split.data(), dim, cut, plan.numOps(),
                          params.data(), *table);
            expectAmpsIdentical(straight, split);
        }
    }
    // The levels cover the half, so a full state is refused.
    AlignedVector<cplx> full(2 * dim);
    EXPECT_THROW(plan.runRange(full.data(), 2 * dim, 0, plan.numOps(),
                               params.data()),
                 std::invalid_argument);
}

TEST(Kernels, PhasePlanBitIdenticalAcrossBatchingClonesAndThreads)
{
    for (const int depth : {1, 2}) {
        Rng rng(80 + depth);
        const Graph g = random3RegularGraph(12, rng);
        const Circuit circuit = qaoaCircuit(g, depth);
        const PauliSum ham = maxcutHamiltonian(g);
        const auto points = randomQaoaPoints(depth, 24, rng);

        StatevectorCost one_by_one(circuit, ham);
        ASSERT_GT(one_by_one.compiled().numPhaseOps(), 0u);
        ASSERT_TRUE(one_by_one.compiled().halfState());
        std::vector<double> reference;
        for (const auto& p : points)
            reference.push_back(one_by_one.evaluate(p));

        StatevectorCost batched(circuit, ham);
        const auto batch_values = batched.evaluateBatch(points);
        const std::unique_ptr<CostFunction> clone = batched.clone();
        const auto clone_values = clone->evaluateBatch(points);
        EXPECT_EQ(std::memcmp(batch_values.data(), reference.data(),
                              reference.size() * sizeof(double)),
                  0)
            << "p=" << depth;
        EXPECT_EQ(std::memcmp(clone_values.data(), reference.data(),
                              reference.size() * sizeof(double)),
                  0)
            << "p=" << depth;

        // A fresh cost per engine, so its replicas race to build the
        // shared level index.
        for (int threads = 1; threads <= 4; ++threads) {
            ExecutionEngine engine(threads);
            StatevectorCost cost(circuit, ham);
            const auto values = engine.evaluate(cost, points);
            EXPECT_EQ(std::memcmp(values.data(), reference.data(),
                                  reference.size() * sizeof(double)),
                      0)
                << "p=" << depth << ", " << threads << " thread(s)";
        }
    }
}

TEST(Kernels, PhasePlanP1NeverResumes)
{
    Rng rng(83);
    const Graph g = random3RegularGraph(10, rng);
    const PauliSum ham = maxcutHamiltonian(g);

    StatevectorCost p1(qaoaCircuit(g, 1), ham);
    const auto p1_points = randomQaoaPoints(1, 16, rng);
    p1.evaluateBatch(p1_points);
    for (const auto& p : p1_points)
        p1.evaluate(p);
    const KernelStats p1_stats = p1.kernelStats();
    EXPECT_EQ(p1_stats.cacheLookups, 0u);
    EXPECT_EQ(p1_stats.cacheHits, 0u);
    // One fill, folding the H layer and the cost layer.
    EXPECT_EQ(p1.compiled().numFusedUnits(), 1u);
    EXPECT_EQ(p1.compiled().fusedOpCount(), 10 + g.edges().size());

    StatevectorCost p2(qaoaCircuit(g, 2), ham);
    p2.evaluateBatch(axisMajorPoints(p2));
    EXPECT_GT(p2.kernelStats().cacheHits, 0u);
}

TEST(Kernels, ParseIsaNameAcceptsOnlyKnownNames)
{
    EXPECT_EQ(kernels::parseIsaName("scalar"), KernelIsa::Scalar);
    EXPECT_EQ(kernels::parseIsaName("avx2"), KernelIsa::Avx2);
    EXPECT_EQ(kernels::parseIsaName("avx512"), KernelIsa::Avx512);
    EXPECT_EQ(kernels::parseIsaName("auto"), KernelIsa::Auto);
    EXPECT_THROW(kernels::parseIsaName("AVX2"), std::invalid_argument);
    EXPECT_THROW(kernels::parseIsaName("sse"), std::invalid_argument);
    EXPECT_THROW(kernels::parseIsaName(""), std::invalid_argument);
    EXPECT_THROW(kernels::parseIsaName(nullptr), std::invalid_argument);
    try {
        kernels::parseIsaName("avx1024");
        FAIL() << "expected invalid_argument";
    } catch (const std::invalid_argument& e) {
        // The error must teach the valid vocabulary.
        const std::string what = e.what();
        EXPECT_NE(what.find("scalar"), std::string::npos);
        EXPECT_NE(what.find("avx2"), std::string::npos);
        EXPECT_NE(what.find("avx512"), std::string::npos);
    }
}

TEST(Kernels, UnavailableIsaRequestThrows)
{
    // kernelTable() is strict: a concrete ISA the host (or build)
    // lacks throws instead of silently downgrading, and the message
    // lists what is available. Auto never selects an unsupported tier.
    EXPECT_EQ(kernels::kernelTable(KernelIsa::Scalar).isa,
              KernelIsa::Scalar);
    const KernelIsa resolved = kernels::defaultKernelTable().isa;
    EXPECT_EQ(&kernels::kernelTable(resolved),
              &kernels::defaultKernelTable());
    for (const KernelIsa isa : {KernelIsa::Avx2, KernelIsa::Avx512}) {
        const bool available = isa == KernelIsa::Avx2
                                   ? kernels::avx2Available()
                                   : kernels::avx512Available();
        if (available) {
            EXPECT_EQ(kernels::kernelTable(isa).isa, isa);
            continue;
        }
        try {
            kernels::kernelTable(isa);
            FAIL() << "expected runtime_error for "
                   << kernels::isaName(isa);
        } catch (const std::runtime_error& e) {
            const std::string what = e.what();
            EXPECT_NE(what.find("not available"), std::string::npos);
            EXPECT_NE(what.find("scalar"), std::string::npos);
        }
    }
}

TEST(Kernels, AutoPicksTheWidestTierUnlessPinned)
{
    // Every x86-64 build compiles every tier, so the CPU alone decides
    // which tables are available.
#if defined(__x86_64__) && defined(__GNUC__)
    EXPECT_EQ(kernels::avx2Available(),
              __builtin_cpu_supports("avx2") &&
                  __builtin_cpu_supports("fma"));
    EXPECT_EQ(kernels::avx512Available(),
              __builtin_cpu_supports("avx512f") &&
                  __builtin_cpu_supports("avx512dq"));
#endif
    // With no pin (or "auto") the default is the widest available
    // tier; with a pin it is the pinned tier. The suite runs under
    // both, so this reads the process's own setting.
    const char* env = std::getenv("OSCAR_KERNEL_ISA");
    KernelIsa expected = env ? kernels::parseIsaName(env) : KernelIsa::Auto;
    if (expected == KernelIsa::Auto)
        expected = kernels::avx512Available() ? KernelIsa::Avx512
                   : kernels::avx2Available() ? KernelIsa::Avx2
                                              : KernelIsa::Scalar;
    EXPECT_EQ(kernels::defaultKernelTable().isa, expected);
    EXPECT_EQ(kernels::kernelTable(KernelIsa::Auto).isa, expected);
}

TEST(Kernels, AmplitudeStorageIsCacheLineAligned)
{
    for (int n : {1, 3, 8}) {
        Statevector sv(n);
        EXPECT_EQ(reinterpret_cast<std::uintptr_t>(sv.amps().data()) % 64,
                  0u)
            << n << " qubits";
    }
    AlignedVector<double> v(17);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(v.data()) % 64, 0u);
}

} // namespace
} // namespace oscar
