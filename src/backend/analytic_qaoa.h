/**
 * @file
 * Closed-form depth-1 QAOA-MaxCut cost evaluation.
 *
 * For p=1 QAOA on an Ising cost function the edge expectations have a
 * classical closed form (Wang et al., PRA 97, 022304 (2018); Ozaeta et
 * al. (2020) for the weighted case). With our conventions
 * (see ansatz/qaoa.h: U_C = exp(-i gamma C), C = sum w (1 - ZZ) / 2,
 * U_B = exp(-i beta sum X)):
 *
 *   <Z_u Z_v> = -(sin 4b sin(g w_uv) / 2) (P_u + P_v)
 *               -(sin^2 2b / 2) (P_plus - P_minus)
 *   P_u     = prod_{k != u,v} cos(g w_uk)
 *   P_plus  = prod_{k != u,v} cos(g (w_uk + w_vk))
 *   P_minus = prod_{k != u,v} cos(g (w_uk - w_vk))
 *
 * where w_xk = 0 for non-edges. The evaluator returns the energy
 * <H_C> = sum (w/2)(<ZZ> - 1), i.e. minus the expected cut.
 *
 * Depolarizing noise is modeled with the standard Pauli-twirl
 * light-cone damping: each edge expectation is multiplied by
 * (1-p1)^{g1} (1-p2)^{g2} with g1/g2 the 1q/2q gate counts in the
 * observable's backward causal cone. This is what lets the library
 * reproduce the paper's 16-30 qubit noisy sweeps (Fig. 4) without a
 * 2^30 state vector; accuracy vs. the exact density-matrix simulation
 * is established in tests/test_analytic_qaoa.cpp.
 */

#ifndef OSCAR_BACKEND_ANALYTIC_QAOA_H
#define OSCAR_BACKEND_ANALYTIC_QAOA_H

#include "src/backend/executor.h"
#include "src/graph/graph.h"
#include "src/quantum/noise_model.h"

namespace oscar {

/** Closed-form depth-1 QAOA MaxCut cost (params = [beta, gamma]). */
class AnalyticQaoaCost : public CostFunction
{
  public:
    /** Ideal evaluator. */
    explicit AnalyticQaoaCost(const Graph& graph);

    /** Evaluator with light-cone depolarizing damping. */
    AnalyticQaoaCost(const Graph& graph, const NoiseModel& noise);

    int numParams() const override { return 2; }

    /** <Z_u Z_v> for edge index e at (beta, gamma), noise included. */
    double edgeExpectation(std::size_t edge_index, double beta,
                           double gamma) const;

    /** Replicable: evaluation is a pure closed-form function. */
    std::unique_ptr<CostFunction> clone() const override;

    /**
     * The per-edge neighborhood products depend only on gamma, so
     * batches should hold gamma fixed as long as possible: gamma
     * (param 1) slowest, beta (param 0) fastest.
     */
    std::vector<int> batchOrderHint() const override { return {1, 0}; }

    /**
     * Gamma-memo hits out of evaluations, reported as prefix reuse
     * (the memo is the closed form's analogue of resuming from the
     * previous point), plus the number of points folded into batched
     * same-gamma energy passes.
     */
    KernelStats
    kernelStats() const override
    {
        KernelStats stats;
        stats.cacheHits = memoHits_;
        stats.cacheLookups = memoLookups_;
        stats.batchedDiagonalPoints = batchedDiagonalPoints_;
        return stats;
    }

  protected:
    double evaluateImpl(const std::vector<double>& params,
                        std::uint64_t ordinal) override;

    void evaluateBatchImpl(std::span<const std::vector<double>> points,
                           std::uint64_t base_ordinal,
                           double* out) override;

  private:
    /**
     * Gamma-only factors of one edge expectation: the neighborhood
     * cosine products and sin(gamma w) of the closed form above.
     */
    struct EdgeGammaFactors
    {
        double sumUV;  ///< P_u + P_v
        double diff;   ///< P_plus - P_minus
        double sinGW;  ///< sin(gamma w_uv)
    };

    void computeDamping(const NoiseModel& noise);

    /** Gamma-only factors of one edge. */
    EdgeGammaFactors edgeGammaFactors(std::size_t edge_index,
                                      double gamma) const;

    /** Fill `out` with every edge's gamma-only factors. */
    void computeGammaFactors(double gamma,
                             std::vector<EdgeGammaFactors>& out) const;

    /** Energy at (beta, gamma) given that gamma's factor table. */
    double energyFromFactors(double beta,
                             const std::vector<EdgeGammaFactors>& factors)
        const;

    /**
     * Batched analogue of energyFromFactors: one pass over the edge
     * factor table evaluating every beta of a same-gamma run,
     * out[b] = energyFromFactors(betas[b], factors) bit for bit (the
     * per-beta accumulation order over edges is unchanged; batching
     * only shares the factor-table traffic — the closed form's
     * equivalent of kernels::expectationDiagonalBatch).
     */
    void energiesFromFactorsBatch(
        const double* betas, std::size_t count,
        const std::vector<EdgeGammaFactors>& factors, double* out) const;

    /**
     * Factor table for `gamma`, memoized on the last distinct gamma
     * (the shared-prefix analogue for the closed form: an axis-major
     * sweep recomputes the table once per gamma row). Value-neutral:
     * the table holds exactly what a fresh computation produces.
     */
    const std::vector<EdgeGammaFactors>& factorsFor(double gamma);

    Graph graph_;
    /** Per-edge noise damping factor for <Z_u Z_v>. */
    std::vector<double> damping_;

    bool memoValid_ = false;
    double memoGamma_ = 0.0;
    std::vector<EdgeGammaFactors> memo_;
    std::size_t memoHits_ = 0;
    std::size_t memoLookups_ = 0;
    std::size_t batchedDiagonalPoints_ = 0;
};

} // namespace oscar

#endif // OSCAR_BACKEND_ANALYTIC_QAOA_H
