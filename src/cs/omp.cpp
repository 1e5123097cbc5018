#include "src/cs/omp.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

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
    // Cholesky factor L L^T of the selected atoms' Gram matrix, grown
    // by one row per step: the Gram matrix only gains a row and column,
    // so the leading rows of L never change. Packed lower triangle.
    std::vector<double> chol;
    std::vector<double> forward_rhs;            // L^{-1} A_S^T y
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

        // Least squares on the selected set via the normal equations
        // G c = A_S^T y. The new row of L solves L w = g (g the new
        // atom's Gram row against the earlier atoms), then its pivot
        // is sqrt(<a, a> - w.w).
        const std::size_t s = selected.size();
        const std::vector<double>& added = columns.back();
        const std::size_t row = chol.size();
        for (std::size_t i = 0; i < s; ++i) {
            double dot = 0.0;
            for (std::size_t k = 0; k < m; ++k)
                dot += columns[i][k] * added[k];
            chol.push_back(dot);
        }
        double* l_new = chol.data() + row;
        for (std::size_t i = 0; i + 1 < s; ++i) {
            const double* l_i = chol.data() + i * (i + 1) / 2;
            double acc = l_new[i];
            for (std::size_t k = 0; k < i; ++k)
                acc -= l_i[k] * l_new[k];
            l_new[i] = acc / l_i[i];
        }
        double pivot = l_new[s - 1];
        for (std::size_t k = 0; k + 1 < s; ++k)
            pivot -= l_new[k] * l_new[k];
        if (!(pivot > 0.0))
            throw std::runtime_error("ompSolve: singular system");
        l_new[s - 1] = std::sqrt(pivot);
        double dot = 0.0;
        for (std::size_t k = 0; k < m; ++k)
            dot += added[k] * sample_value[k];
        for (std::size_t k = 0; k + 1 < s; ++k)
            dot -= l_new[k] * forward_rhs[k];
        forward_rhs.push_back(dot / l_new[s - 1]);

        // Back substitution L^T c = L^{-1} A_S^T y.
        coeffs.assign(s, 0.0);
        for (std::size_t i = s; i-- > 0;) {
            double acc = forward_rhs[i];
            for (std::size_t j = i + 1; j < s; ++j)
                acc -= chol[j * (j + 1) / 2 + i] * coeffs[j];
            coeffs[i] = acc / chol[i * (i + 1) / 2 + i];
        }

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
