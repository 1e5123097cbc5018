#include "src/cs/fista.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace oscar {

double
softThreshold(double x, double threshold)
{
    if (x > threshold)
        return x - threshold;
    if (x < -threshold)
        return x + threshold;
    return 0.0;
}

FistaResult
fistaSolve(const Dct2d& dct, const std::vector<std::size_t>& sample_index,
           const std::vector<double>& sample_value,
           const FistaOptions& options, const NdArray* warm_start,
           double warm_lambda_fraction)
{
    if (sample_index.size() != sample_value.size())
        throw std::invalid_argument("fistaSolve: index/value size mismatch");
    if (sample_index.empty())
        throw std::invalid_argument("fistaSolve: no samples");

    const std::size_t nr = dct.rows();
    const std::size_t nc = dct.cols();
    const std::size_t n = nr * nc;
    for (std::size_t idx : sample_index) {
        if (idx >= n)
            throw std::out_of_range("fistaSolve: sample index out of grid");
    }
    for (double v : sample_value) {
        if (!std::isfinite(v))
            throw std::invalid_argument("fistaSolve: non-finite sample value");
    }
    SampledDct2d op(dct, sample_index);
    const std::size_t m = sample_value.size();

    NdArray aty({nr, nc});
    op.adjoint(sample_value, aty);
    double max_aty = 0.0;
    for (std::size_t i = 0; i < n; ++i)
        max_aty = std::max(max_aty, std::abs(aty[i]));
    if (max_aty == 0.0)
        return {NdArray({nr, nc}), 0, 0.0};

    const double lambda_final = options.lambdaFinalFraction * max_aty;
    // Cold starts anneal lambda from lambdaInitFraction (continuation
    // speeds up the early shrinkage). A warm start resumes the
    // caller's annealing state instead of re-shrinking the iterate:
    // at the handed-over lambda fraction when given, else directly at
    // the final objective (the iterate is assumed near-converged).
    double init_fraction = options.lambdaInitFraction;
    if (warm_start) {
        init_fraction = warm_lambda_fraction >= 0.0
                            ? warm_lambda_fraction
                            : options.lambdaFinalFraction;
    }
    double lambda = std::max(init_fraction * max_aty, lambda_final);

    NdArray s({nr, nc});       // current iterate
    if (warm_start) {
        if (warm_start->shape() != std::vector<std::size_t>{nr, nc})
            throw std::invalid_argument(
                "fistaSolve: warm start shape mismatch");
        s = *warm_start;
    }
    NdArray s_prev({nr, nc});  // previous iterate
    NdArray z = s;             // momentum point
    NdArray grad({nr, nc});
    std::vector<double> residual(m);
    double t = 1.0;

    FistaResult result;
    for (std::size_t iter = 0; iter < options.maxIters; ++iter) {
        // Gradient of 1/2||A z - y||^2 at z: A^T (A z - y).
        op.apply(z, residual);
        double res_norm2 = 0.0;
        for (std::size_t k = 0; k < m; ++k) {
            const double r = residual[k] - sample_value[k];
            residual[k] = r;
            res_norm2 += r * r;
        }
        op.adjoint(residual, grad);

        // Proximal step (unit step size, ||A|| <= 1).
        std::swap(s, s_prev);
        for (std::size_t i = 0; i < n; ++i)
            s[i] = softThreshold(z[i] - grad[i], lambda);

        // Nesterov momentum.
        const double t_next = 0.5 * (1.0 + std::sqrt(1.0 + 4.0 * t * t));
        const double momentum = (t - 1.0) / t_next;
        double change2 = 0.0, norm2 = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
            const double d = s[i] - s_prev[i];
            change2 += d * d;
            norm2 += s[i] * s[i];
            z[i] = s[i] + momentum * d;
        }
        t = t_next;
        result.iterations = iter + 1;
        result.residualNorm = std::sqrt(res_norm2);

        // Lambda continuation toward the basis-pursuit limit.
        if ((iter + 1) % options.continuationEvery == 0 &&
            lambda > lambda_final) {
            lambda = std::max(lambda * 0.7, lambda_final);
            t = 1.0; // restart momentum after changing the objective
            continue;
        }

        if (lambda <= lambda_final && norm2 > 0.0 &&
            std::sqrt(change2 / norm2) < options.tolerance) {
            break;
        }
    }

    result.lambdaFraction = lambda / max_aty;
    result.coefficients = std::move(s);
    return result;
}

} // namespace oscar
