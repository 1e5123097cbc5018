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

Pair
load(const double* p)
{
    Pair v;
    std::memcpy(&v, p, sizeof(v));
    return v;
}

void
store(double* p, Pair v)
{
    std::memcpy(p, &v, sizeof(v));
}

Pair
splat(double x)
{
    return Pair{x, x};
}

/** e^{-2 pi i k / n} as (re, im), appended to `table`. */
void
pushRoot(std::vector<double>& table, std::size_t k, std::size_t n)
{
    const double angle = -2.0 * std::numbers::pi * static_cast<double>(k) /
                         static_cast<double>(n);
    table.push_back(std::cos(angle));
    table.push_back(std::sin(angle));
}

/**
 * The radix-P butterflies of one Stockham row: inputs x + r*xs for
 * r < P, outputs y + t*ys for t < P, each `span` lanes long (even).
 * Output t > 0 is multiplied by the twiddle (tw[2t-2], tw[2t-1])
 * unless Tw is false (row 0, whose twiddles are all 1).
 */
template <int P, bool Tw>
void
butterflies(const double* xr, const double* xi, std::size_t xs, double* yr,
            double* yi, std::size_t ys, const double* tw, std::size_t span)
{
    Pair wr[P - 1], wi[P - 1];
    for (int t = 0; t < P - 1; ++t) {
        wr[t] = splat(Tw ? tw[2 * t] : 1.0);
        wi[t] = splat(Tw ? tw[2 * t + 1] : 0.0);
    }
    for (std::size_t q = 0; q < span; q += 2) {
        Pair ar[P], ai[P], br[P], bi[P];
        for (int r = 0; r < P; ++r) {
            ar[r] = load(xr + r * xs + q);
            ai[r] = load(xi + r * xs + q);
        }
        if constexpr (P == 2) {
            br[0] = ar[0] + ar[1];
            bi[0] = ai[0] + ai[1];
            br[1] = ar[0] - ar[1];
            bi[1] = ai[0] - ai[1];
        } else if constexpr (P == 3) {
            // y1,2 = a0 - (a1 + a2)/2 -+ i (sqrt3/2)(a1 - a2)
            const Pair c = splat(0.86602540378443864676);
            const Pair sr = ar[1] + ar[2], si = ai[1] + ai[2];
            const Pair dr = c * (ar[1] - ar[2]), di = c * (ai[1] - ai[2]);
            const Pair mr = ar[0] - splat(0.5) * sr;
            const Pair mi = ai[0] - splat(0.5) * si;
            br[0] = ar[0] + sr;
            bi[0] = ai[0] + si;
            br[1] = mr + di;
            bi[1] = mi - dr;
            br[2] = mr - di;
            bi[2] = mi + dr;
        } else if constexpr (P == 4) {
            const Pair t0r = ar[0] + ar[2], t0i = ai[0] + ai[2];
            const Pair t1r = ar[0] - ar[2], t1i = ai[0] - ai[2];
            const Pair t2r = ar[1] + ar[3], t2i = ai[1] + ai[3];
            const Pair t3r = ar[1] - ar[3], t3i = ai[1] - ai[3];
            br[0] = t0r + t2r;
            bi[0] = t0i + t2i;
            br[1] = t1r + t3i; // t1 - i t3
            bi[1] = t1i - t3r;
            br[2] = t0r - t2r;
            bi[2] = t0i - t2i;
            br[3] = t1r - t3i; // t1 + i t3
            bi[3] = t1i + t3r;
        } else {
            static_assert(P == 5);
            // cos and sin of 2 pi / 5 and 4 pi / 5.
            const Pair c1 = splat(0.30901699437494742410);
            const Pair c2 = splat(-0.80901699437494742410);
            const Pair s1 = splat(0.95105651629515357212);
            const Pair s2 = splat(0.58778525229247312917);
            const Pair s1r = ar[1] + ar[4], s1i = ai[1] + ai[4];
            const Pair d1r = ar[1] - ar[4], d1i = ai[1] - ai[4];
            const Pair s2r = ar[2] + ar[3], s2i = ai[2] + ai[3];
            const Pair d2r = ar[2] - ar[3], d2i = ai[2] - ai[3];
            const Pair b1r = ar[0] + c1 * s1r + c2 * s2r;
            const Pair b1i = ai[0] + c1 * s1i + c2 * s2i;
            const Pair b2r = ar[0] + c2 * s1r + c1 * s2r;
            const Pair b2i = ai[0] + c2 * s1i + c1 * s2i;
            const Pair e1r = s1 * d1r + s2 * d2r, e1i = s1 * d1i + s2 * d2i;
            const Pair e2r = s2 * d1r - s1 * d2r, e2i = s2 * d1i - s1 * d2i;
            br[0] = ar[0] + s1r + s2r;
            bi[0] = ai[0] + s1i + s2i;
            br[1] = b1r + e1i; // b1 - i e1
            bi[1] = b1i - e1r;
            br[4] = b1r - e1i; // b1 + i e1
            bi[4] = b1i + e1r;
            br[2] = b2r + e2i; // b2 - i e2
            bi[2] = b2i - e2r;
            br[3] = b2r - e2i; // b2 + i e2
            bi[3] = b2i + e2r;
        }
        store(yr + q, br[0]);
        store(yi + q, bi[0]);
        for (int t = 1; t < P; ++t) {
            Pair re = br[t], im = bi[t];
            if constexpr (Tw) {
                const Pair r = re * wr[t - 1] - im * wi[t - 1];
                im = re * wi[t - 1] + im * wr[t - 1];
                re = r;
            }
            store(yr + t * ys + q, re);
            store(yi + t * ys + q, im);
        }
    }
}

/** butterflies() for any radix p, as a direct p-point DFT with the
 * roots W_p^k at roots[2k], roots[2k+1]. */
template <bool Tw>
void
butterfliesGeneric(std::size_t p, const double* roots, const double* xr,
                   const double* xi, std::size_t xs, double* yr, double* yi,
                   std::size_t ys, const double* tw, std::size_t span)
{
    for (std::size_t t = 0; t < p; ++t) {
        double* __restrict otr = yr + t * ys;
        double* __restrict oti = yi + t * ys;
        std::memcpy(otr, xr, span * sizeof(double));
        std::memcpy(oti, xi, span * sizeof(double));
        for (std::size_t r = 1; r < p; ++r) {
            const double* w = roots + 2 * (r * t % p);
            const Pair wr = splat(w[0]), wi = splat(w[1]);
            const double* ir = xr + r * xs;
            const double* ii = xi + r * xs;
            for (std::size_t q = 0; q < span; q += 2) {
                const Pair a = load(ir + q), b = load(ii + q);
                store(otr + q, load(otr + q) + (a * wr - b * wi));
                store(oti + q, load(oti + q) + (a * wi + b * wr));
            }
        }
        if (Tw && t > 0) {
            const Pair wr = splat(tw[2 * t - 2]), wi = splat(tw[2 * t - 1]);
            for (std::size_t q = 0; q < span; q += 2) {
                const Pair re = load(otr + q), im = load(oti + q);
                store(otr + q, re * wr - im * wi);
                store(oti + q, re * wi + im * wr);
            }
        }
    }
}

template <bool Tw>
void
stageRow(std::size_t p, const double* roots, const double* xr,
         const double* xi, std::size_t xs, double* yr, double* yi,
         std::size_t ys, const double* tw, std::size_t span)
{
    switch (p) {
    case 2:
        return butterflies<2, Tw>(xr, xi, xs, yr, yi, ys, tw, span);
    case 3:
        return butterflies<3, Tw>(xr, xi, xs, yr, yi, ys, tw, span);
    case 4:
        return butterflies<4, Tw>(xr, xi, xs, yr, yi, ys, tw, span);
    case 5:
        return butterflies<5, Tw>(xr, xi, xs, yr, yi, ys, tw, span);
    default:
        return butterfliesGeneric<Tw>(p, roots, xr, xi, xs, yr, yi, ys, tw,
                                      span);
    }
}

/**
 * Lane row of the packed complex batch from one element row: the
 * vector at xa + l * bs goes to re[l] for l < count, the one at
 * xb + l * bs to im[l] for l < im_count, and lanes beyond those are
 * zero.
 */
void
packRow(const double* xa, const double* xb, std::size_t bs,
        std::size_t count, std::size_t im_count, std::size_t lanes,
        double* re, double* im)
{
    for (std::size_t l = 0; l < count; ++l)
        re[l] = xa[l * bs];
    std::fill(re + count, re + lanes, 0.0);
    for (std::size_t l = 0; l < im_count; ++l)
        im[l] = xb[l * bs];
    std::fill(im + im_count, im + lanes, 0.0);
}

} // namespace

DctPlan::DctPlan(std::size_t length)
    : n_(length)
{
    if (length == 0)
        throw std::invalid_argument("DctPlan: zero length");
    // Radix 4 first, then every prime factor in ascending order.
    std::vector<std::size_t> radices;
    std::size_t rest = n_;
    for (; rest % 4 == 0; rest /= 4)
        radices.push_back(4);
    for (std::size_t p = 2; rest > 1; ++p) {
        for (; rest % p == 0; rest /= p)
            radices.push_back(p);
    }
    // Stage twiddles W_n^{jt} for row j < n/p, output t in 1..p-1.
    std::size_t n = n_;
    for (std::size_t p : radices) {
        stages_.push_back({p, twiddle_.size(), roots_.size()});
        for (std::size_t j = 0; j < n / p; ++j) {
            for (std::size_t t = 1; t < p; ++t)
                pushRoot(twiddle_, j * t % n, n);
        }
        if (p > 5) {
            for (std::size_t k = 0; k < p; ++k)
                pushRoot(roots_, k, p);
        }
        n /= p;
    }
    // Forward post-twiddle: X_k = a_k Re(e^{-i pi k / 2n} V_k), with
    // the 1/2 that separates two real vectors sharing a lane. Inverse
    // pre-twiddle: V_k = e^{i pi k / 2n} (h_k C_k - i h'_k C_{n-k})
    // with the DCT-III's 1/n folded in.
    const double nd = static_cast<double>(n_);
    for (std::size_t k = 0; k < n_; ++k) {
        const double theta = std::numbers::pi * static_cast<double>(k) /
                             (2.0 * nd);
        const double c = std::cos(theta), s = std::sin(theta);
        const double a = k == 0 ? std::sqrt(1.0 / nd) : std::sqrt(2.0 / nd);
        post_.push_back(0.5 * a * c);
        post_.push_back(-0.5 * a * s);
        const double h = k == 0 ? 1.0 / std::sqrt(nd)
                                : 1.0 / std::sqrt(2.0 * nd);
        const double h2 = k == 0 ? 0.0 : 1.0 / std::sqrt(2.0 * nd);
        pre_.insert(pre_.end(), {c * h, s * h, c * h2, s * h2});
    }
}

std::pair<double*, double*>
DctPlan::fft(double* re, double* im, double* re2, double* im2,
             std::size_t lanes) const
{
    // Stockham autosort, decimation in frequency: a stage of radix p
    // over sub-transforms of length n with stride s maps row j + r m
    // (m = n / p) to row p j + t, so the output lands in natural order
    // without a bit-reversal pass.
    std::size_t n = n_;
    std::size_t span = lanes;
    for (const Stage& st : stages_) {
        const std::size_t p = st.radix;
        const std::size_t m = n / p;
        const double* roots = roots_.data() + st.roots;
        for (std::size_t j = 0; j < m; ++j) {
            const double* tw = twiddle_.data() + st.twiddle + 2 * j * (p - 1);
            const double* xr = re + j * span;
            const double* xi = im + j * span;
            double* yr = re2 + p * j * span;
            double* yi = im2 + p * j * span;
            if (j == 0)
                stageRow<false>(p, roots, xr, xi, m * span, yr, yi, span, tw,
                                span);
            else
                stageRow<true>(p, roots, xr, xi, m * span, yr, yi, span, tw,
                               span);
        }
        std::swap(re, re2);
        std::swap(im, im2);
        n = m;
        span *= p;
    }
    return {re, im};
}

void
DctPlan::forward(const double* in, double* out, std::size_t batch,
                 std::size_t js, std::size_t bs,
                 std::vector<double>& work) const
{
    forwardLanes(in, out, batch, js, bs, 0, lanes(batch), work);
}

void
DctPlan::forwardLanes(const double* in, double* out, std::size_t batch,
                      std::size_t js, std::size_t bs, std::size_t lo,
                      std::size_t hi, std::vector<double>& work) const
{
    const std::size_t n = n_;
    const std::size_t half = lanes(batch);
    assert(lo <= hi && hi <= half);
    // Lane l of this call holds vectors lo + l and lo + half + l (the
    // second only when below batch).
    const std::size_t count = hi - lo;
    const std::size_t im_count =
        std::min(hi + half, batch) - std::min(lo + half, batch);
    const std::size_t width = (count + 1) / 2 * 2;
    work.resize(4 * n * width);
    double* re = work.data();
    double* im = re + n * width;
    // Makhoul's order: v[e / 2] = x[e] for even e, v[n - 1 - e / 2]
    // for odd e.
    for (std::size_t e = 0; e < n; ++e) {
        const std::size_t row = e % 2 == 0 ? e / 2 : n - 1 - e / 2;
        const double* x = in + e * js;
        packRow(x + lo * bs, x + (lo + half) * bs, bs, count, im_count,
                width, re + row * width, im + row * width);
    }
    const auto [fr, fi] = fft(re, im, im + n * width, im + 2 * n * width,
                              width);
    // Split the shared lane Z = V_a + i V_b with V_{n-k} = conj(V_k):
    // V_a = (Z_k + conj Z_{n-k}) / 2, V_b = (Z_k - conj Z_{n-k}) / 2i.
    double* oa = out + lo * bs;
    double* ob = out + (lo + half) * bs;
    for (std::size_t k = 0; k < n; ++k) {
        const std::size_t kk = k == 0 ? 0 : n - k;
        const double p = post_[2 * k], q = post_[2 * k + 1];
        const double* rk = fr + k * width;
        const double* rkk = fr + kk * width;
        const double* ik = fi + k * width;
        const double* ikk = fi + kk * width;
        for (std::size_t l = 0; l < count; ++l)
            oa[k * js + l * bs] = p * (rk[l] + rkk[l]) - q * (ik[l] - ikk[l]);
        for (std::size_t l = 0; l < im_count; ++l)
            ob[k * js + l * bs] = p * (ik[l] + ikk[l]) + q * (rk[l] - rkk[l]);
    }
}

void
DctPlan::inverse(const double* in, double* out, std::size_t batch,
                 std::size_t js, std::size_t bs,
                 std::vector<double>& work) const
{
    const std::size_t n = n_;
    const std::size_t half = lanes(batch);
    const std::size_t width = (half + 1) / 2 * 2;
    work.resize(4 * n * width);
    double* re = work.data();
    double* im = re + n * width;
    double* ca = im + n * width; // coefficients of the real-part vectors
    double* cb = ca + n * width; // and of the imaginary-part vectors
    for (std::size_t k = 0; k < n; ++k)
        packRow(in + k * js, in + k * js + half * bs, bs, half, batch - half,
                width, ca + k * width, cb + k * width);
    // Z_k = V_a,k + i V_b,k, stored swapped (re <- Im Z, im <- Re Z):
    // the forward FFT of swap(Z) is swap(n IFFT(Z)).
    for (std::size_t k = 0; k < n; ++k) {
        const std::size_t kk = k == 0 ? 0 : n - k;
        const double c = pre_[4 * k], s = pre_[4 * k + 1];
        const double c2 = pre_[4 * k + 2], s2 = pre_[4 * k + 3];
        const double* ak = ca + k * width;
        const double* akk = ca + kk * width;
        const double* bk = cb + k * width;
        const double* bkk = cb + kk * width;
        double* zi = re + k * width;
        double* zr = im + k * width;
        for (std::size_t l = 0; l < width; ++l) {
            zr[l] = c * ak[l] + s2 * akk[l] - s * bk[l] + c2 * bkk[l];
            zi[l] = s * ak[l] - c2 * akk[l] + c * bk[l] + s2 * bkk[l];
        }
    }
    const auto [fr, fi] = fft(re, im, ca, cb, width);
    // v_a = Im, v_b = Re of the swapped result, back in natural order.
    for (std::size_t e = 0; e < n; ++e) {
        const std::size_t row = e % 2 == 0 ? e / 2 : n - 1 - e / 2;
        const double* va = fi + row * width;
        const double* vb = fr + row * width;
        double* o = out + e * js;
        for (std::size_t b = 0; b < half; ++b)
            o[b * bs] = va[b];
        for (std::size_t b = half; b < batch; ++b)
            o[b * bs] = vb[b - half];
    }
}

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
    : rowT_(rows), colT_(cols), colBasisT_(cols * cols), rowPlan_(rows),
      colPlan_(cols)
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
    // Column axis (a strided batch of the rows), then row axis.
    NdArray out({nr, nc});
    std::vector<double> work;
    colPlan_.forward(x.data(), out.data(), nr, 1, nc, work);
    rowPlan_.forward(out.data(), out.data(), nc, nc, 1, work);
    return out;
}

NdArray
Dct2d::inverse(const NdArray& c) const
{
    const std::size_t nr = rows();
    const std::size_t nc = cols();
    assert(c.rank() == 2 && c.dim(0) == nr && c.dim(1) == nc);
    NdArray out({nr, nc});
    std::vector<double> work;
    colPlan_.inverse(c.data(), out.data(), nr, 1, nc, work);
    rowPlan_.inverse(out.data(), out.data(), nc, nc, 1, work);
    return out;
}

SampledDct2d::SampledDct2d(const Dct2d& dct,
                           const std::vector<std::size_t>& sample_index)
    : dct_(dct), order_(sample_index.size()),
      index_(sample_index.size()), rowStart_(dct.rows() + 1),
      u_(dct.rows() * dct.cols()), t_(dct.rows() * dct.cols())
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
    const std::size_t nc = dct.cols();
    std::size_t j = 0;
    for (std::size_t r = 0; r <= dct.rows(); ++r) {
        while (j < index_.size() && index_[j] / nc < r)
            ++j;
        rowStart_[r] = j;
    }
}

void
SampledDct2d::apply(const NdArray& z, std::vector<double>& values)
{
    assert(z.size() == u_.size());
    columnRows(z.data(), 0, dct_.rows());
    values.resize(order_.size());
    gatherRows(0, dct_.rows(), nullptr, values);
}

void
SampledDct2d::adjoint(const std::vector<double>& values,
                      NdArray& coefficients)
{
    const std::size_t nr = dct_.rows();
    const std::size_t nc = dct_.cols();
    if (coefficients.shape() != std::vector<std::size_t>{nr, nc})
        coefficients = NdArray({nr, nc});
    scatterRows(values, 0, nr);
    forwardLanes(0, lanes(), coefficients, fftWork_);
}

void
SampledDct2d::columnRows(const double* z, std::size_t r0, std::size_t r1)
{
    const std::size_t nc = dct_.cols();
    const double* bc = dct_.colT_.basis().data();
    // U = Z Bc one row at a time, so that each nonzero of a sparse
    // iterate costs one axpy.
    for (std::size_t r = r0; r < r1; ++r) {
        double* __restrict ur = u_.data() + r * nc;
        const double* zr = z + r * nc;
        std::fill(ur, ur + nc, 0.0);
        for (std::size_t l = 0; l < nc; ++l) {
            const double zl = zr[l];
            if (zl == 0.0)
                continue;
            const double* __restrict bl = bc + l * nc;
            for (std::size_t j = 0; j < nc; ++j)
                ur[j] += bl[j] * zl;
        }
    }
}

void
SampledDct2d::gatherRows(std::size_t r0, std::size_t r1, const double* y,
                         std::vector<double>& values) const
{
    const std::size_t nr = dct_.rows();
    const std::size_t nc = dct_.cols();
    assert(values.size() == order_.size());
    const double* br = dct_.rowT_.basis().data();
    const double* u = u_.data();
    auto put = [&](std::size_t j, double x) {
        const std::size_t m = order_[j];
        values[m] = y ? x - y[m] : x;
    };
    // Row axis only at the samples: X[r, c] = sum_k Br[k, r] U[k, c],
    // four independent samples per sweep of k.
    const std::size_t end = rowStart_[r1];
    std::size_t j = rowStart_[r0];
    for (; j + 4 <= end; j += 4) {
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
        put(j, x0);
        put(j + 1, x1);
        put(j + 2, x2);
        put(j + 3, x3);
    }
    for (; j < end; ++j) {
        const double* b0 = br + index_[j] / nc;
        const double* u0 = u + index_[j] % nc;
        double x0 = 0.0;
        for (std::size_t k = 0; k < nr; ++k)
            x0 += b0[k * nr] * u0[k * nc];
        put(j, x0);
    }
}

void
SampledDct2d::scatterRows(const std::vector<double>& values, std::size_t r0,
                          std::size_t r1)
{
    const std::size_t nc = dct_.cols();
    assert(values.size() == order_.size());
    const double* bct = dct_.colBasisT_.data();
    // Each sample adds its value times Bc^T's row c to T's row r, in
    // ascending c within a row.
    std::fill(t_.begin() + r0 * nc, t_.begin() + r1 * nc, 0.0);
    for (std::size_t j = rowStart_[r0]; j < rowStart_[r1]; ++j) {
        const double v = values[order_[j]];
        if (v == 0.0)
            continue;
        double* __restrict tr = t_.data() + index_[j] / nc * nc;
        const double* __restrict bc = bct + index_[j] % nc * nc;
        for (std::size_t k = 0; k < nc; ++k)
            tr[k] += bc[k] * v;
    }
}

void
SampledDct2d::forwardLanes(std::size_t lo, std::size_t hi,
                           NdArray& coefficients,
                           std::vector<double>& work) const
{
    const std::size_t nc = dct_.cols();
    assert(coefficients.size() == t_.size());
    dct_.rowPlan_.forwardLanes(t_.data(), coefficients.data(), nc, nc, 1, lo,
                               hi, work);
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
