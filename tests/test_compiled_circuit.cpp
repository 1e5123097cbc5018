/**
 * @file
 * Tests for the compiled-circuit kernel layer:
 *
 *  - lowering equivalence: the compiled schedule reproduces the
 *    per-gate reference execution for every ansatz family,
 *  - 1q fusion merges constant runs without changing the state,
 *  - diagonal fast paths match the generic kernels,
 *  - the recorded parameter frontier (first-use positions, frontier
 *    levels, shared prefix lengths) is correct,
 *  - segmented replay through checkpoints is bit-identical to a
 *    straight run (the prefix-resume determinism argument),
 *  - super-kernel fusion: fused replay agrees with unfused replay
 *    within rounding (MaxCut and SK QAOA, two-local, UCCSD), is
 *    bit-identical to itself across frontier-aligned segmentation
 *    (units never straddle frontier levels), and degrades
 *    deterministically on mid-unit cuts,
 *  - the density-matrix bound path matches the legacy bind() path.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <utility>

#include "src/ansatz/qaoa.h"
#include "src/ansatz/two_local.h"
#include "src/ansatz/uccsd.h"
#include "src/graph/generators.h"
#include "src/quantum/compiled_circuit.h"
#include "src/quantum/density_matrix.h"
#include "src/quantum/kernels.h"
#include "src/quantum/statevector.h"

namespace oscar {
namespace {

/** Reference execution: per-gate resolve-and-apply (the seed's loop). */
Statevector
referenceRun(const Circuit& circuit, const std::vector<double>& params)
{
    Statevector state(circuit.numQubits());
    for (const Gate& g : circuit.gates()) {
        Gate resolved = g;
        resolved.angle = g.resolvedAngle(params);
        resolved.paramIndex = -1;
        state.applyGate(resolved);
    }
    return state;
}

void
expectStatesNear(const Statevector& a, const Statevector& b, double tol)
{
    ASSERT_EQ(a.dim(), b.dim());
    for (std::size_t i = 0; i < a.dim(); ++i) {
        EXPECT_NEAR(a.amp(i).real(), b.amp(i).real(), tol) << "amp " << i;
        EXPECT_NEAR(a.amp(i).imag(), b.amp(i).imag(), tol) << "amp " << i;
    }
}

std::vector<double>
rampParams(int n)
{
    std::vector<double> p(n);
    for (int j = 0; j < n; ++j)
        p[j] = 0.3 + 0.17 * j;
    return p;
}

TEST(CompiledCircuit, QaoaLoweringMatchesReference)
{
    Rng rng(3);
    const Graph g = random3RegularGraph(6, rng);
    const Circuit circuit = qaoaCircuit(g, 2);
    const auto params = rampParams(circuit.numParams());

    Statevector compiled_state(circuit.numQubits());
    CompiledCircuit compiled(circuit);
    compiled.run(compiled_state, params);

    expectStatesNear(compiled_state, referenceRun(circuit, params), 1e-12);
}

TEST(CompiledCircuit, TwoLocalLoweringMatchesReference)
{
    const Circuit circuit = twoLocalCircuit(4, 2);
    const auto params = rampParams(circuit.numParams());

    Statevector state(circuit.numQubits());
    CompiledCircuit(circuit).run(state, params);
    expectStatesNear(state, referenceRun(circuit, params), 1e-12);
}

TEST(CompiledCircuit, MixedGateZooMatchesReference)
{
    // Every gate kind, including fusable constant runs and diagonal
    // fast paths.
    Circuit circuit(3, 2);
    circuit.append(Gate::h(0));
    circuit.append(Gate::s(0));   // fuses into H
    circuit.append(Gate::z(1));
    circuit.append(Gate::sdg(1)); // diagonal fusion product
    circuit.append(Gate::x(2));
    circuit.append(Gate::y(2));
    circuit.append(Gate::rz(2, 0.4));
    circuit.append(Gate::cx(0, 1));
    circuit.append(Gate::rx(0, -0.7));
    circuit.append(Gate::cz(1, 2));
    circuit.append(Gate::swap(0, 2));
    circuit.append(Gate::rzz(0, 1, 0.9));
    circuit.append(Gate::ryParam(1, 0));
    circuit.append(Gate::h(1));
    circuit.append(Gate::rzParam(2, 1, -2.0));
    const std::vector<double> params = {0.55, -1.2};

    Statevector state(3);
    CompiledCircuit(circuit).run(state, params);
    expectStatesNear(state, referenceRun(circuit, params), 1e-12);
}

TEST(CompiledCircuit, FusionMergesConstantRuns)
{
    Circuit circuit(2, 1);
    circuit.append(Gate::h(0));
    circuit.append(Gate::s(0));
    circuit.append(Gate::h(0));   // 3-run on qubit 0 -> 1 op
    circuit.append(Gate::h(1));
    circuit.append(Gate::cx(0, 1));
    circuit.append(Gate::x(1));
    circuit.append(Gate::y(1));   // 2-run after the CX window break
    circuit.append(Gate::rxParam(0, 0));

    const CompiledCircuit fused(circuit);
    EXPECT_EQ(fused.fusedGateCount(), 3u);
    EXPECT_EQ(fused.numOps(), circuit.numGates() - 3);

    const CompiledCircuit unfused(circuit, CompileOptions{.fuse1q = false});
    EXPECT_EQ(unfused.fusedGateCount(), 0u);
    EXPECT_EQ(unfused.numOps(), circuit.numGates());

    const std::vector<double> params = {0.81};
    Statevector a(2), b(2);
    fused.run(a, params);
    unfused.run(b, params);
    expectStatesNear(a, b, 1e-12);
}

TEST(CompiledCircuit, ParameterFrontierRecordsFirstUse)
{
    Rng rng(5);
    const Graph g = random3RegularGraph(6, rng);
    const int n = g.numVertices();
    const std::size_t edges = g.numEdges();
    const Circuit circuit = qaoaCircuit(g, 2);
    const CompiledCircuit compiled(circuit);

    // Layout: H^n | RZZ(g0)^E RX(b0)^n | RZZ(g1)^E RX(b1)^n, with
    // params [b0, b1, g0, g1]. The H layer is the constant prefix.
    const std::size_t nu = static_cast<std::size_t>(n);
    ASSERT_EQ(compiled.numOps(), circuit.numGates());
    EXPECT_EQ(compiled.constantPrefixLength(), nu);
    EXPECT_EQ(compiled.paramFirstUse(2), nu);              // gamma_0
    EXPECT_EQ(compiled.paramFirstUse(0), nu + edges);      // beta_0
    EXPECT_EQ(compiled.paramFirstUse(3), 2 * nu + edges);  // gamma_1
    EXPECT_EQ(compiled.paramFirstUse(1), 2 * nu + 2 * edges); // beta_1

    const std::vector<std::size_t> expected_levels = {
        nu, nu + edges, 2 * nu + edges, 2 * nu + 2 * edges};
    EXPECT_EQ(compiled.frontierLevels(), expected_levels);

    // Batch order: circuit-first-use order gamma0, beta0, gamma1, beta1.
    EXPECT_EQ(compiled.parameterOrder(), (std::vector<int>{2, 0, 3, 1}));

    // Shared prefix between two bindings.
    const std::vector<double> p1 = {0.1, 0.2, 0.3, 0.4};
    std::vector<double> p2 = p1;
    EXPECT_EQ(compiled.sharedPrefixLength(p1, p2), compiled.numOps());
    p2[1] = 0.9; // beta_1 differs -> share everything before its use
    EXPECT_EQ(compiled.sharedPrefixLength(p1, p2), 2 * nu + 2 * edges);
    p2[2] = 0.8; // gamma_0 differs too -> only the H layer shared
    EXPECT_EQ(compiled.sharedPrefixLength(p1, p2), nu);
}

TEST(CompiledCircuit, SegmentedReplayIsBitIdentical)
{
    // The prefix-resume core invariant: running [0, L) then [L, end)
    // from a copied checkpoint reproduces the straight run bit for
    // bit, for every frontier level L.
    Rng rng(9);
    const Graph g = random3RegularGraph(6, rng);
    const Circuit circuit = qaoaCircuit(g, 2);
    const CompiledCircuit compiled(circuit);
    const auto params = rampParams(circuit.numParams());

    Statevector straight(circuit.numQubits());
    compiled.run(straight, params);

    for (std::size_t level : compiled.frontierLevels()) {
        Statevector prefix(circuit.numQubits());
        compiled.runRange(prefix.amps().data(), prefix.dim(), 0, level,
                          params.data());
        Statevector resumed(circuit.numQubits());
        resumed.amps() = prefix.amps(); // checkpoint copy
        compiled.runRange(resumed.amps().data(), resumed.dim(), level,
                          compiled.numOps(), params.data());
        for (std::size_t i = 0; i < straight.dim(); ++i)
            EXPECT_EQ(straight.amp(i), resumed.amp(i))
                << "level " << level << " amp " << i;
    }
}

TEST(CompiledCircuit, FusedReplayMatchesUnfusedWithinTolerance)
{
    // Fusion folds diagonal runs into per-block tables and replays
    // parameterized RX/RY through the rotation kernels; both change
    // the arithmetic, so fused and unfused replays agree to rounding,
    // not bitwise. UCCSD has no diagonal run to fold.
    Rng rng(13);
    const Graph g = random3RegularGraph(8, rng);
    const Graph sk = skInstance(8, rng);
    const std::pair<Circuit, bool> cases[] = {
        {qaoaCircuit(g, 2), true},
        {qaoaCircuit(sk, 2), true},
        {twoLocalCircuit(6, 3), true},
        {uccsdCircuit(4), false},
    };
    for (const auto& [circuit, folds] : cases) {
        const auto params = rampParams(circuit.numParams());
        CompiledCircuit plain(circuit,
                              CompileOptions{.blockWindow = 5});
        CompiledCircuit fused(
            circuit, CompileOptions{.blockWindow = 5, .fuse = true});
        EXPECT_EQ(fused.numFusedUnits() > 0, folds);
        ASSERT_GE(fused.fusedOpCount(), 2 * fused.numFusedUnits());
        EXPECT_EQ(plain.numFusedUnits(), 0u);

        Statevector a(circuit.numQubits()), b(circuit.numQubits());
        plain.run(a, params);
        fused.run(b, params);
        expectStatesNear(a, b, 1e-12);
    }
}

TEST(CompiledCircuit, FusedSegmentedReplayIsBitIdentical)
{
    // The fusion determinism contract: units never straddle frontier
    // levels, so cutting the replay at any frontier level (checkpoint
    // resume, batched suffix replay) executes the identical unit
    // sequence and reproduces the straight fused run bit for bit.
    Rng rng(17);
    const Graph g = random3RegularGraph(8, rng);
    const Circuit circuit = qaoaCircuit(g, 2);
    CompiledCircuit fused(
        circuit, CompileOptions{.blockWindow = 4, .fuse = true});
    ASSERT_GT(fused.numFusedUnits(), 0u);
    const auto params = rampParams(circuit.numParams());

    Statevector straight(circuit.numQubits());
    fused.run(straight, params);

    for (std::size_t level : fused.frontierLevels()) {
        Statevector resumed(circuit.numQubits());
        fused.runRange(resumed.amps().data(), resumed.dim(), 0, level,
                       params.data());
        fused.runRange(resumed.amps().data(), resumed.dim(), level,
                       fused.numOps(), params.data());
        for (std::size_t i = 0; i < straight.dim(); ++i)
            EXPECT_EQ(straight.amp(i), resumed.amp(i))
                << "level " << level << " amp " << i;
    }
}

TEST(CompiledCircuit, MidUnitCutFallsBackDeterministically)
{
    // A cut through the middle of a fused unit (never produced by the
    // backends, which cut at frontier levels) makes that unit fall
    // back to per-op replay for the clipped calls: the result is
    // still correct to rounding and deterministic — the same cut
    // twice is bitwise-identical.
    const int n = 6;
    Circuit circuit(n, 1);
    for (int q = 0; q < n; ++q)
        circuit.append(Gate::h(q));
    // One constant diagonal-table unit: three RZZ fold into the table,
    // the two touching qubits above the window stay per-block context.
    for (int q = 0; q + 1 < n; ++q)
        circuit.append(Gate::rzz(q, q + 1, 0.3 + 0.1 * q));
    circuit.append(Gate::rxParam(0, 0));
    const std::vector<double> params = {0.77};

    CompiledCircuit fused(
        circuit, CompileOptions{.blockWindow = 4, .fuse = true});
    ASSERT_EQ(fused.numFusedUnits(), 1u);
    ASSERT_EQ(fused.fusedOpCount(), 3u);

    Statevector straight(n);
    fused.run(straight, params);

    for (std::size_t cut = 1; cut + 1 < fused.numOps(); ++cut) {
        Statevector first(n), second(n);
        for (Statevector* sv : {&first, &second}) {
            fused.runRange(sv->amps().data(), sv->dim(), 0, cut,
                           params.data());
            fused.runRange(sv->amps().data(), sv->dim(), cut,
                           fused.numOps(), params.data());
        }
        for (std::size_t i = 0; i < straight.dim(); ++i) {
            EXPECT_EQ(first.amp(i), second.amp(i))
                << "cut " << cut << " amp " << i;
            EXPECT_NEAR(straight.amp(i).real(), first.amp(i).real(),
                        1e-12)
                << "cut " << cut << " amp " << i;
            EXPECT_NEAR(straight.amp(i).imag(), first.amp(i).imag(),
                        1e-12)
                << "cut " << cut << " amp " << i;
        }
    }
}

TEST(CompiledCircuit, FuseWindowUnitCounts)
{
    // Fusion bookkeeping: fusion on builds the RZZ run's diagonal-table
    // unit with its collapsed op count, fusion off builds none.
    const int n = 6;
    Circuit circuit(n, 0);
    for (int q = 0; q < n; ++q)
        circuit.append(Gate::h(q));
    for (int q = 0; q + 1 < n; ++q)
        circuit.append(Gate::rzz(q, q + 1, 0.4));

    const CompiledCircuit unfused(circuit,
                                  CompileOptions{.blockWindow = 4});
    EXPECT_EQ(unfused.numFusedUnits(), 0u);
    EXPECT_EQ(unfused.fusedOpCount(), 0u);

    const CompiledCircuit compiled(
        circuit, CompileOptions{.blockWindow = 4, .fuse = true});
    EXPECT_EQ(compiled.numFusedUnits(), 1u);
    EXPECT_EQ(compiled.fusedOpCount(), 3u);
}

TEST(CompiledCircuit, StatevectorBoundRunUsesCompiledSchedule)
{
    // Statevector::run(circuit, params) == explicit compile-and-run,
    // bit for bit (both lower through the same schedule).
    const Circuit circuit = twoLocalCircuit(5, 2);
    const auto params = rampParams(circuit.numParams());

    Statevector via_run(5);
    via_run.run(circuit, params);

    Statevector via_compiled(5);
    CompiledCircuit(circuit).run(via_compiled, params);

    for (std::size_t i = 0; i < via_run.dim(); ++i)
        EXPECT_EQ(via_run.amp(i), via_compiled.amp(i));
}

TEST(CompiledCircuit, DensityMatrixBoundRunMatchesBindPath)
{
    Rng rng(11);
    const Graph g = random3RegularGraph(4, rng);
    const Circuit circuit = qaoaCircuit(g, 1);
    const auto params = rampParams(circuit.numParams());
    NoiseModel noise;
    noise.p1 = 0.002;
    noise.p2 = 0.01;

    DensityMatrix bound(circuit.numQubits());
    bound.run(circuit.bind(params), noise);

    DensityMatrix compiled(circuit.numQubits());
    compiled.run(circuit, params, noise);

    const auto pb = bound.probabilities();
    const auto pc = compiled.probabilities();
    ASSERT_EQ(pb.size(), pc.size());
    for (std::size_t i = 0; i < pb.size(); ++i)
        EXPECT_NEAR(pb[i], pc[i], 1e-12);
    EXPECT_NEAR(bound.purity(), compiled.purity(), 1e-12);
}

TEST(CompiledCircuit, DensityMatrixRejectsFusedSchedules)
{
    Circuit circuit(2, 0);
    circuit.append(Gate::h(0));
    circuit.append(Gate::s(0)); // fuses
    const CompiledCircuit fused(circuit);
    ASSERT_GT(fused.fusedGateCount(), 0u);

    DensityMatrix rho(2);
    EXPECT_THROW(rho.run(fused, {}, NoiseModel{}), std::invalid_argument);
}

TEST(CompiledCircuit, UccsdLoweringMatchesReference)
{
    // The deepest ansatz in the library (plenty of fusable constant
    // basis-change gates around the CX ladders).
    const Circuit circuit = uccsdCircuit(4);
    const auto params = rampParams(circuit.numParams());

    Statevector state(circuit.numQubits());
    CompiledCircuit(circuit).run(state, params);
    expectStatesNear(state, referenceRun(circuit, params), 1e-11);
}

} // namespace
} // namespace oscar
