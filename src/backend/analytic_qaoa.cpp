#include "src/backend/analytic_qaoa.h"

#include <bit>
#include <cmath>
#include <set>

namespace oscar {

AnalyticQaoaCost::AnalyticQaoaCost(const Graph& graph)
    : AnalyticQaoaCost(graph, NoiseModel::idealModel())
{
}

AnalyticQaoaCost::AnalyticQaoaCost(const Graph& graph,
                                   const NoiseModel& noise)
    : graph_(graph)
{
    computeDamping(noise);
}

void
AnalyticQaoaCost::computeDamping(const NoiseModel& noise)
{
    damping_.assign(graph_.numEdges(), 1.0);
    if (noise.ideal())
        return;
    for (std::size_t e = 0; e < graph_.numEdges(); ++e) {
        const Edge& edge = graph_.edges()[e];
        // Backward light cone of observable Z_u Z_v for the p=1
        // circuit H^n -> RZZ(edges) -> RX(all):
        //  - RX on u and v (2 one-qubit gates),
        //  - RZZ on every edge incident to u or v,
        //  - H on u, v, and every neighbor of u or v.
        std::set<int> cone_vertices = {edge.u, edge.v};
        int rzz_count = 0;
        for (const Edge& other : graph_.edges()) {
            if (other.u == edge.u || other.u == edge.v ||
                other.v == edge.u || other.v == edge.v) {
                ++rzz_count;
                cone_vertices.insert(other.u);
                cone_vertices.insert(other.v);
            }
        }
        const int h_count = static_cast<int>(cone_vertices.size());
        const int rx_count = 2;
        damping_[e] = std::pow(1.0 - noise.p1, h_count + rx_count) *
                      std::pow(1.0 - noise.p2, rzz_count);
    }
}

AnalyticQaoaCost::EdgeGammaFactors
AnalyticQaoaCost::edgeGammaFactors(std::size_t edge_index,
                                   double gamma) const
{
    const Edge& edge = graph_.edges()[edge_index];
    const int u = edge.u;
    const int v = edge.v;

    auto weight_to = [&](int from, int k) {
        for (const Edge& e : graph_.edges()) {
            if ((e.u == from && e.v == k) || (e.v == from && e.u == k))
                return e.weight;
        }
        return 0.0;
    };

    double prod_u = 1.0, prod_v = 1.0, prod_plus = 1.0, prod_minus = 1.0;
    for (int k = 0; k < graph_.numVertices(); ++k) {
        if (k == u || k == v)
            continue;
        // Vertices not adjacent to either endpoint contribute 1.
        const bool near_u = graph_.hasEdge(u, k);
        const bool near_v = graph_.hasEdge(v, k);
        if (!near_u && !near_v)
            continue;
        const double wu = near_u ? weight_to(u, k) : 0.0;
        const double wv = near_v ? weight_to(v, k) : 0.0;
        prod_u *= std::cos(gamma * wu);
        prod_v *= std::cos(gamma * wv);
        prod_plus *= std::cos(gamma * (wu + wv));
        prod_minus *= std::cos(gamma * (wu - wv));
    }

    EdgeGammaFactors f;
    f.sumUV = prod_u + prod_v;
    f.diff = prod_plus - prod_minus;
    f.sinGW = std::sin(gamma * edge.weight);
    return f;
}

void
AnalyticQaoaCost::computeGammaFactors(
    double gamma, std::vector<EdgeGammaFactors>& out) const
{
    out.resize(graph_.numEdges());
    for (std::size_t e = 0; e < graph_.numEdges(); ++e)
        out[e] = edgeGammaFactors(e, gamma);
}

void
AnalyticQaoaCost::energiesFromFactorsBatch(
    const double* betas, std::size_t count,
    const std::vector<EdgeGammaFactors>& factors, double* out) const
{
    constexpr std::size_t kStack = 16;
    double s4b_stack[kStack], s2b_stack[kStack], acc_stack[kStack];
    std::vector<double> heap;
    double* s4b = s4b_stack;
    double* s2b = s2b_stack;
    double* acc = acc_stack;
    if (count > kStack) {
        heap.assign(3 * count, 0.0);
        s4b = heap.data();
        s2b = heap.data() + count;
        acc = heap.data() + 2 * count;
    }
    for (std::size_t b = 0; b < count; ++b) {
        s4b[b] = std::sin(4.0 * betas[b]);
        s2b[b] = std::sin(2.0 * betas[b]);
        acc[b] = 0.0;
    }
    for (std::size_t e = 0; e < graph_.numEdges(); ++e) {
        const double w = graph_.edges()[e].weight;
        for (std::size_t b = 0; b < count; ++b) {
            const double zz = -(s4b[b] * factors[e].sinGW / 2.0) *
                                  factors[e].sumUV -
                              (s2b[b] * s2b[b] / 2.0) * factors[e].diff;
            acc[b] += (w / 2.0) * (damping_[e] * zz - 1.0);
        }
    }
    for (std::size_t b = 0; b < count; ++b)
        out[b] = acc[b];
}

double
AnalyticQaoaCost::energyFromFactors(
    double beta, const std::vector<EdgeGammaFactors>& factors) const
{
    const double s4b = std::sin(4.0 * beta);
    const double s2b = std::sin(2.0 * beta);
    double energy = 0.0;
    for (std::size_t e = 0; e < graph_.numEdges(); ++e) {
        const double w = graph_.edges()[e].weight;
        const double zz = -(s4b * factors[e].sinGW / 2.0) *
                              factors[e].sumUV -
                          (s2b * s2b / 2.0) * factors[e].diff;
        energy += (w / 2.0) * (damping_[e] * zz - 1.0);
    }
    return energy;
}

const std::vector<AnalyticQaoaCost::EdgeGammaFactors>&
AnalyticQaoaCost::factorsFor(double gamma)
{
    ++memoLookups_;
    if (!memoValid_ || std::bit_cast<std::uint64_t>(memoGamma_) !=
                           std::bit_cast<std::uint64_t>(gamma)) {
        computeGammaFactors(gamma, memo_);
        memoGamma_ = gamma;
        memoValid_ = true;
    } else {
        ++memoHits_;
    }
    return memo_;
}

double
AnalyticQaoaCost::edgeExpectation(std::size_t edge_index, double beta,
                                  double gamma) const
{
    const EdgeGammaFactors f = edgeGammaFactors(edge_index, gamma);
    const double s4b = std::sin(4.0 * beta);
    const double s2b = std::sin(2.0 * beta);
    const double zz = -(s4b * f.sinGW / 2.0) * f.sumUV -
                      (s2b * s2b / 2.0) * f.diff;
    return damping_[edge_index] * zz;
}

std::unique_ptr<CostFunction>
AnalyticQaoaCost::clone() const
{
    return std::make_unique<AnalyticQaoaCost>(*this);
}

double
AnalyticQaoaCost::evaluateImpl(const std::vector<double>& params,
                               std::uint64_t /*ordinal*/)
{
    return energyFromFactors(params[0], factorsFor(params[1]));
}

void
AnalyticQaoaCost::evaluateBatchImpl(
    std::span<const std::vector<double>> points,
    std::uint64_t /*base_ordinal*/, double* out)
{
    // Deterministic closed form; the gamma factor table is the only
    // shared work. Axis-major batches (gamma slowest) recompute it
    // once per gamma run — including across batch boundaries, since
    // the memo lives on the instance. Runs of bitwise-equal gammas
    // additionally fold their betas into one pass over the factor
    // table (bit-identical to point-by-point evaluation).
    constexpr std::size_t kMaxRun = 64;
    double betas[kMaxRun];
    std::size_t i = 0;
    while (i < points.size()) {
        const double gamma = points[i][1];
        std::size_t j = i;
        while (j < points.size() && j - i < kMaxRun &&
               std::bit_cast<std::uint64_t>(points[j][1]) ==
                   std::bit_cast<std::uint64_t>(gamma)) {
            betas[j - i] = points[j][0];
            ++j;
        }
        if (j - i < 2) {
            out[i] = energyFromFactors(points[i][0], factorsFor(gamma));
            i = i + 1;
            continue;
        }
        energiesFromFactorsBatch(betas, j - i, factorsFor(gamma),
                                 out + i);
        batchedDiagonalPoints_ += j - i;
        i = j;
    }
}

} // namespace oscar
