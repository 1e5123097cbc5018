#include "src/cs/dct.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <numbers>
#include <numeric>
#include <stdexcept>

namespace oscar {

namespace {

/** Two doubles: baseline SSE2 on x86-64, NEON on AArch64. Lane-wise
 * multiply and add round exactly like their scalar forms. */
typedef double Pair __attribute__((vector_size(16)));

/**
 * One R x 2Q tile of the matrix product in matmulRows: rows i..i+R-1,
 * columns j..j+2Q-1 of c, accumulated in registers over every k.
 */
template <int R, int Q>
void
matmulTile(const double* a, std::size_t si, std::size_t sk, const double* b,
           double* c, std::size_t inner, std::size_t w, std::size_t i,
           std::size_t j)
{
    Pair acc[R][Q] = {};
    const double* ai = a + i * si;
    for (std::size_t k = 0; k < inner; ++k) {
        Pair bk[Q];
        std::memcpy(bk, b + k * w + j, sizeof(bk));
        for (int r = 0; r < R; ++r) {
            const double ark = ai[r * si + k * sk];
            const Pair ar = {ark, ark};
            for (int q = 0; q < Q; ++q)
                acc[r][q] += ar * bk[q];
        }
    }
    for (int r = 0; r < R; ++r)
        std::memcpy(c + (i + r) * w + j, acc[r], sizeof(acc[r]));
}

/** Rows i..i+R-1 of the product in matmulRows, all columns. */
template <int R>
void
matmulRowBlock(const double* a, std::size_t si, std::size_t sk,
               const double* b, double* c, std::size_t inner, std::size_t w,
               std::size_t i)
{
    std::size_t j = 0;
    for (; j + 8 <= w; j += 8)
        matmulTile<R, 4>(a, si, sk, b, c, inner, w, i, j);
    for (; j + 2 <= w; j += 2)
        matmulTile<R, 1>(a, si, sk, b, c, inner, w, i, j);
    for (; j < w; ++j) {
        for (int r = 0; r < R; ++r) {
            double acc = 0.0;
            for (std::size_t k = 0; k < inner; ++k)
                acc += a[(i + r) * si + k * sk] * b[k * w + j];
            c[(i + r) * w + j] = acc;
        }
    }
}

/**
 * c[i*w + j] = sum over k of a(i, k) * b[k*w + j], with a(i, k) =
 * a[i*si + k*sk], for i < n: a matrix product whose every output
 * element is accumulated over ascending k from +0.0 (the bit-identity
 * invariant in dct.h). Register tiles of 3 rows x 8 columns load each
 * b element once per 3 output rows and each a element once per 8
 * output columns.
 */
void
matmulRows(const double* a, std::size_t si, std::size_t sk,
           const double* b, double* c, std::size_t n, std::size_t inner,
           std::size_t w)
{
    std::size_t i = 0;
    for (; i + 3 <= n; i += 3)
        matmulRowBlock<3>(a, si, sk, b, c, inner, w, i);
    for (; i < n; ++i)
        matmulRowBlock<1>(a, si, sk, b, c, inner, w, i);
}

} // namespace

Dct1d::Dct1d(std::size_t length)
    : n_(length)
{
    if (length == 0)
        throw std::invalid_argument("Dct1d: zero length");
    basis_.resize(n_ * n_);
    const double pi = std::numbers::pi;
    for (std::size_t k = 0; k < n_; ++k) {
        const double a =
            k == 0 ? std::sqrt(1.0 / n_) : std::sqrt(2.0 / n_);
        for (std::size_t j = 0; j < n_; ++j) {
            basis_[k * n_ + j] =
                a * std::cos(pi * (2.0 * j + 1.0) * k / (2.0 * n_));
        }
    }
}

std::vector<double>
Dct1d::forward(const std::vector<double>& x) const
{
    assert(x.size() == n_);
    std::vector<double> c(n_, 0.0);
    for (std::size_t k = 0; k < n_; ++k) {
        double acc = 0.0;
        const double* row = &basis_[k * n_];
        for (std::size_t j = 0; j < n_; ++j)
            acc += row[j] * x[j];
        c[k] = acc;
    }
    return c;
}

std::vector<double>
Dct1d::inverse(const std::vector<double>& c) const
{
    assert(c.size() == n_);
    // Orthonormal: inverse is the transpose.
    std::vector<double> x(n_, 0.0);
    for (std::size_t k = 0; k < n_; ++k) {
        const double ck = c[k];
        if (ck == 0.0)
            continue;
        const double* row = &basis_[k * n_];
        for (std::size_t j = 0; j < n_; ++j)
            x[j] += row[j] * ck;
    }
    return x;
}

Dct2d::Dct2d(std::size_t rows, std::size_t cols)
    : rowT_(rows), colT_(cols), colBasisT_(cols * cols)
{
    const auto& bc = colT_.basis();
    for (std::size_t k = 0; k < cols; ++k) {
        for (std::size_t j = 0; j < cols; ++j)
            colBasisT_[j * cols + k] = bc[k * cols + j];
    }
}

NdArray
Dct2d::forward(const NdArray& x) const
{
    const std::size_t nr = rows();
    const std::size_t nc = cols();
    assert(x.rank() == 2 && x.dim(0) == nr && x.dim(1) == nc);
    // Column axis T = X Bc^T, then row axis out = Br T.
    NdArray t({nr, nc});
    matmulRows(x.data(), nc, 1, colBasisT_.data(), t.data(), nr, nc, nc);
    NdArray out({nr, nc});
    matmulRows(rowT_.basis().data(), nr, 1, t.data(), out.data(), nr, nr,
               nc);
    return out;
}

NdArray
Dct2d::inverse(const NdArray& c) const
{
    const std::size_t nr = rows();
    const std::size_t nc = cols();
    assert(c.rank() == 2 && c.dim(0) == nr && c.dim(1) == nc);
    // Column axis U = C Bc, then row axis out = Br^T U.
    NdArray u({nr, nc});
    matmulRows(c.data(), nc, 1, colT_.basis().data(), u.data(), nr, nc,
               nc);
    NdArray out({nr, nc});
    matmulRows(rowT_.basis().data(), 1, nr, u.data(), out.data(), nr, nr,
               nc);
    return out;
}

SampledDct2d::SampledDct2d(const Dct2d& dct,
                           const std::vector<std::size_t>& sample_index)
    : dct_(dct), order_(sample_index.size()),
      index_(sample_index.size()), work_(dct.rows() * dct.cols())
{
    const std::size_t n = dct.rows() * dct.cols();
    for (std::size_t idx : sample_index) {
        if (idx >= n)
            throw std::invalid_argument(
                "SampledDct2d: sample index out of grid");
    }
    std::iota(order_.begin(), order_.end(), std::size_t{0});
    std::sort(order_.begin(), order_.end(),
              [&](std::size_t a, std::size_t b) {
                  return sample_index[a] < sample_index[b];
              });
    for (std::size_t j = 0; j < order_.size(); ++j) {
        index_[j] = sample_index[order_[j]];
        if (j > 0 && index_[j] == index_[j - 1])
            throw std::invalid_argument(
                "SampledDct2d: duplicate sample index");
    }
}

void
SampledDct2d::apply(const NdArray& z, std::vector<double>& values)
{
    const std::size_t nr = dct_.rows();
    const std::size_t nc = dct_.cols();
    assert(z.size() == nr * nc);
    const double* bc = dct_.colT_.basis().data();
    const double* br = dct_.rowT_.basis().data();

    // Column axis U = Z Bc, one row at a time so that each nonzero of
    // a sparse iterate costs one axpy.
    double* u = work_.data();
    std::fill(work_.begin(), work_.end(), 0.0);
    for (std::size_t r = 0; r < nr; ++r) {
        double* __restrict ur = u + r * nc;
        const double* zr = z.data() + r * nc;
        for (std::size_t l = 0; l < nc; ++l) {
            const double zl = zr[l];
            if (zl == 0.0)
                continue;
            const double* __restrict bl = bc + l * nc;
            for (std::size_t j = 0; j < nc; ++j)
                ur[j] += bl[j] * zl;
        }
    }

    // Row axis only at the samples: X[r, c] = sum_k Br[k, r] U[k, c],
    // four independent samples per sweep of k.
    const std::size_t m = order_.size();
    values.resize(m);
    std::size_t j = 0;
    for (; j + 4 <= m; j += 4) {
        const std::size_t* idx = &index_[j];
        const double* b0 = br + idx[0] / nc;
        const double* b1 = br + idx[1] / nc;
        const double* b2 = br + idx[2] / nc;
        const double* b3 = br + idx[3] / nc;
        const double* u0 = u + idx[0] % nc;
        const double* u1 = u + idx[1] % nc;
        const double* u2 = u + idx[2] % nc;
        const double* u3 = u + idx[3] % nc;
        double x0 = 0.0, x1 = 0.0, x2 = 0.0, x3 = 0.0;
        for (std::size_t k = 0; k < nr; ++k) {
            x0 += b0[k * nr] * u0[k * nc];
            x1 += b1[k * nr] * u1[k * nc];
            x2 += b2[k * nr] * u2[k * nc];
            x3 += b3[k * nr] * u3[k * nc];
        }
        values[order_[j]] = x0;
        values[order_[j + 1]] = x1;
        values[order_[j + 2]] = x2;
        values[order_[j + 3]] = x3;
    }
    for (; j < m; ++j) {
        const double* b0 = br + index_[j] / nc;
        const double* u0 = u + index_[j] % nc;
        double x0 = 0.0;
        for (std::size_t k = 0; k < nr; ++k)
            x0 += b0[k * nr] * u0[k * nc];
        values[order_[j]] = x0;
    }
}

void
SampledDct2d::adjoint(const std::vector<double>& values,
                      NdArray& coefficients)
{
    const std::size_t nr = dct_.rows();
    const std::size_t nc = dct_.cols();
    assert(values.size() == order_.size());
    const double* bct = dct_.colBasisT_.data();

    // Column axis of the scattered grid: each sample adds its value
    // times Bc^T's row c to T's row r, in ascending c within a row.
    double* t = work_.data();
    std::fill(work_.begin(), work_.end(), 0.0);
    for (std::size_t j = 0; j < order_.size(); ++j) {
        const double v = values[order_[j]];
        if (v == 0.0)
            continue;
        double* __restrict tr = t + index_[j] / nc * nc;
        const double* __restrict bc = bct + index_[j] % nc * nc;
        for (std::size_t k = 0; k < nc; ++k)
            tr[k] += bc[k] * v;
    }

    if (coefficients.shape() != std::vector<std::size_t>{nr, nc})
        coefficients = NdArray({nr, nc});
    matmulRows(dct_.rowT_.basis().data(), nr, 1, t, coefficients.data(),
               nr, nr, nc);
}

void
SampledDct2d::atom(std::size_t coefficient, std::vector<double>& values) const
{
    const std::size_t nr = dct_.rows();
    const std::size_t nc = dct_.cols();
    assert(coefficient < nr * nc);
    const double* br = dct_.rowT_.basis().data() + coefficient / nc * nr;
    const double* bc = dct_.colT_.basis().data() + coefficient % nc * nc;
    values.resize(order_.size());
    // 0.0 + p, as the inverse of a unit vector sums it: p = -0.0
    // would come out +0.0 there.
    for (std::size_t j = 0; j < order_.size(); ++j)
        values[order_[j]] = 0.0 + br[index_[j] / nc] * bc[index_[j] % nc];
}

} // namespace oscar
