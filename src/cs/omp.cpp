#include "src/cs/omp.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

#include "src/common/linear_regression.h"

namespace oscar {

OmpResult
ompSolve(const Dct2d& dct, const std::vector<std::size_t>& sample_index,
         const std::vector<double>& sample_value, const OmpOptions& options)
{
    if (sample_index.size() != sample_value.size())
        throw std::invalid_argument("ompSolve: index/value size mismatch");
    if (sample_index.empty())
        throw std::invalid_argument("ompSolve: no samples");

    const std::size_t nr = dct.rows();
    const std::size_t nc = dct.cols();
    const std::size_t n = nr * nc;
    const std::size_t m = sample_index.size();
    for (double v : sample_value) {
        if (!std::isfinite(v))
            throw std::invalid_argument("ompSolve: non-finite sample value");
    }
    SampledDct2d op(dct, sample_index);

    std::size_t max_atoms = options.maxAtoms;
    if (max_atoms == 0)
        max_atoms = std::max<std::size_t>(1, m / 4);
    max_atoms = std::min({max_atoms, m, n});

    double y_norm = 0.0;
    for (double v : sample_value)
        y_norm += v * v;
    y_norm = std::sqrt(y_norm);
    if (y_norm == 0.0)
        return {NdArray({nr, nc}), 0, 0.0};

    std::vector<double> residual = sample_value;
    std::vector<std::size_t> selected;          // coefficient indices
    std::vector<std::vector<double>> columns;   // dictionary atoms at Omega
    std::vector<char> is_selected(n, 0);
    std::vector<double> coeffs;                 // current LS solution
    // Normal equations of the selected set, grown by one row and
    // column per step: entry (i, j) of the Gram matrix never changes
    // once its atoms are selected.
    std::vector<double> gram_lower;             // packed lower triangle
    std::vector<double> rhs;
    NdArray corr({nr, nc});

    OmpResult result;
    result.coefficients = NdArray({nr, nc});

    for (std::size_t iter = 0; iter < max_atoms; ++iter) {
        // Correlations A^T r.
        op.adjoint(residual, corr);

        std::size_t best = n;
        double best_abs = 0.0;
        for (std::size_t j = 0; j < n; ++j) {
            if (is_selected[j])
                continue;
            const double a = std::abs(corr[j]);
            if (a > best_abs) {
                best_abs = a;
                best = j;
            }
        }
        if (best == n || best_abs < 1e-14)
            break;

        // The new atom: IDCT2 of a unit coefficient at the samples.
        std::vector<double> atom;
        op.atom(best, atom);

        is_selected[best] = 1;
        selected.push_back(best);
        columns.push_back(std::move(atom));

        // Least squares on the selected set via normal equations.
        const std::size_t s = selected.size();
        const std::vector<double>& added = columns.back();
        for (std::size_t i = 0; i < s; ++i) {
            double dot = 0.0;
            for (std::size_t k = 0; k < m; ++k)
                dot += columns[i][k] * added[k];
            gram_lower.push_back(dot);
        }
        double dot = 0.0;
        for (std::size_t k = 0; k < m; ++k)
            dot += added[k] * sample_value[k];
        rhs.push_back(dot);

        std::vector<double> gram(s * s);
        for (std::size_t i = 0; i < s; ++i) {
            for (std::size_t j = 0; j <= i; ++j) {
                gram[i * s + j] = gram_lower[i * (i + 1) / 2 + j];
                gram[j * s + i] = gram_lower[i * (i + 1) / 2 + j];
            }
        }
        coeffs = solveDense(std::move(gram), rhs, s);

        // Update residual r = y - A_S c.
        double res_norm = 0.0;
        for (std::size_t k = 0; k < m; ++k) {
            double fit = 0.0;
            for (std::size_t i = 0; i < s; ++i)
                fit += columns[i][k] * coeffs[i];
            residual[k] = sample_value[k] - fit;
            res_norm += residual[k] * residual[k];
        }
        res_norm = std::sqrt(res_norm);
        result.atomsSelected = s;
        result.relativeResidual = res_norm / y_norm;
        if (result.relativeResidual < options.residualTolerance)
            break;
    }

    for (std::size_t i = 0; i < selected.size(); ++i)
        result.coefficients[selected[i]] = coeffs[i];
    return result;
}

} // namespace oscar
