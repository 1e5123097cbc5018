#include "src/cs/fista.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "src/backend/engine.h"

namespace oscar {

namespace {

/** Run fn(b) for every b < blocks: on the engine when one is given,
 * else inline in ascending order. */
template <class Fn>
void
forBlocks(ExecutionEngine* engine, std::size_t blocks, const Fn& fn)
{
    if (!engine) {
        for (std::size_t b = 0; b < blocks; ++b)
            fn(b);
        return;
    }
    engine->map(blocks, [&fn](std::size_t b) {
        fn(b);
        return 0.0;
    });
}

/** Block b of [0, total) cut into `blocks` near-equal ranges. */
std::pair<std::size_t, std::size_t>
blockRange(std::size_t b, std::size_t blocks, std::size_t total)
{
    return {b * total / blocks, (b + 1) * total / blocks};
}

} // namespace

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
           const FistaOptions& options, ExecutionEngine* engine)
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

    // Continuation anneals lambda from lambdaInitFraction (it speeds
    // up the early shrinkage) down to the final objective.
    const double lambda_final = options.lambdaFinalFraction * max_aty;
    double lambda =
        std::max(options.lambdaInitFraction * max_aty, lambda_final);

    // Row blocks and blocks of FFT lane pairs (even lane boundaries
    // keep the FFT's two-lane vectors full). The engine cuts a map
    // into one chunk per thread only when each chunk gets at least
    // kMinPointsPerThread blocks, hence that many per thread. Inline,
    // each region is one block: on the small grids that run inline,
    // 16 lane blocks cost 1.5-3x one full-width FFT pass.
    if (engine && (engine->numThreads() < 2 || n < kFistaParallelPoints))
        engine = nullptr;
    const std::size_t lanes = op.lanes();
    const std::size_t pairs = (lanes + 1) / 2;
    const std::size_t want =
        engine ? kMinPointsPerThread *
                     static_cast<std::size_t>(engine->numThreads())
               : 1;
    const std::size_t row_blocks = std::min(want, nr);
    const std::size_t lane_blocks = std::min(want, pairs);
    std::vector<std::vector<double>> fft_work(lane_blocks);

    NdArray s({nr, nc});      // current iterate
    NdArray s_prev({nr, nc}); // previous iterate
    NdArray z({nr, nc});      // momentum point
    NdArray grad({nr, nc});
    std::vector<double> residual(m);
    std::vector<double> window;  // stop-test snapshot of s
    std::size_t final_iters = 0; // iterations run at lambda_final
    double t = 1.0;
    op.columnRows(z.data(), 0, nr);

    FistaResult result;
    for (std::size_t iter = 0; iter < options.maxIters; ++iter) {
        // Gradient of 1/2||A z - y||^2 at z: A^T (A z - y), from z's
        // column pass (already in the operator).
        forBlocks(engine, row_blocks, [&](std::size_t b) {
            const auto [r0, r1] = blockRange(b, row_blocks, nr);
            op.gatherRows(r0, r1, sample_value.data(), residual);
            op.scatterRows(residual, r0, r1);
        });
        forBlocks(engine, lane_blocks, [&](std::size_t b) {
            const auto [p0, p1] = blockRange(b, lane_blocks, pairs);
            op.forwardLanes(2 * p0, std::min(2 * p1, lanes), grad,
                            fft_work[b]);
        });

        // Proximal step (unit step size, ||A|| <= 1), Nesterov
        // momentum, and the new z's column pass for the next gather.
        std::swap(s, s_prev);
        const double t_next = 0.5 * (1.0 + std::sqrt(1.0 + 4.0 * t * t));
        const double momentum = (t - 1.0) / t_next;
        double* sp = s.data();
        double* zp = z.data();
        const double* prev = s_prev.data();
        const double* g = grad.data();
        forBlocks(engine, row_blocks, [&](std::size_t b) {
            const auto [r0, r1] = blockRange(b, row_blocks, nr);
            for (std::size_t i = r0 * nc; i < r1 * nc; ++i) {
                sp[i] = softThreshold(zp[i] - g[i], lambda);
                zp[i] = sp[i] + momentum * (sp[i] - prev[i]);
            }
            op.columnRows(zp, r0, r1);
        });
        t = t_next;
        result.iterations = iter + 1;

        // Lambda continuation toward the basis-pursuit limit.
        if (lambda > lambda_final) {
            if ((iter + 1) % options.continuationEvery == 0) {
                lambda = std::max(lambda * 0.7, lambda_final);
                t = 1.0; // restart momentum after changing the objective
            }
            continue;
        }

        // At lambda_final: compare s with the snapshot a window back,
        // then take the next snapshot.
        if (final_iters++ % kFistaStopWindow != 0)
            continue;
        if (!window.empty()) {
            double change2 = 0.0, norm2 = 0.0;
            for (std::size_t i = 0; i < n; ++i) {
                const double d = sp[i] - window[i];
                change2 += d * d;
                norm2 += sp[i] * sp[i];
            }
            if (norm2 > 0.0 && std::sqrt(change2 / norm2) < options.tolerance)
                break;
        }
        window.assign(sp, sp + n);
    }

    // The last iteration's residual A z - y, summed in sample order.
    double res_norm2 = 0.0;
    for (double r : residual)
        res_norm2 += r * r;
    result.residualNorm = std::sqrt(res_norm2);
    result.lambdaFraction = lambda / max_aty;
    result.coefficients = std::move(s);
    return result;
}

} // namespace oscar
