/**
 * @file
 * Tests for the orthonormal DCT-II transforms.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numbers>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "src/common/rng.h"
#include "src/cs/dct.h"

namespace oscar {
namespace {

class DctRoundTrip : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(DctRoundTrip, InverseUndoesForward)
{
    const std::size_t n = GetParam();
    Dct1d dct(n);
    Rng rng(n);
    std::vector<double> x(n);
    for (auto& v : x)
        v = rng.normal();
    const auto c = dct.forward(x);
    const auto back = dct.inverse(c);
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_NEAR(back[i], x[i], 1e-10);
}

TEST_P(DctRoundTrip, ParsevalEnergyPreserved)
{
    const std::size_t n = GetParam();
    Dct1d dct(n);
    Rng rng(2 * n + 1);
    std::vector<double> x(n);
    for (auto& v : x)
        v = rng.normal();
    const auto c = dct.forward(x);
    double ex = 0.0, ec = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        ex += x[i] * x[i];
        ec += c[i] * c[i];
    }
    EXPECT_NEAR(ex, ec, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Lengths, DctRoundTrip,
                         ::testing::Values(1, 2, 3, 7, 16, 50, 100));

TEST(Dct1d, ConstantSignalHasOnlyDcCoefficient)
{
    Dct1d dct(32);
    std::vector<double> x(32, 3.0);
    const auto c = dct.forward(x);
    EXPECT_NEAR(c[0], 3.0 * std::sqrt(32.0), 1e-10);
    for (std::size_t k = 1; k < 32; ++k)
        EXPECT_NEAR(c[k], 0.0, 1e-10);
}

TEST(Dct1d, PureCosineIsOneCoefficient)
{
    // x_j = cos(pi (2j+1) k0 / (2n)) is exactly one DCT basis vector.
    const std::size_t n = 64, k0 = 5;
    Dct1d dct(n);
    std::vector<double> x(n);
    for (std::size_t j = 0; j < n; ++j) {
        x[j] = std::cos(std::numbers::pi * (2.0 * j + 1.0) * k0 /
                        (2.0 * n));
    }
    const auto c = dct.forward(x);
    for (std::size_t k = 0; k < n; ++k) {
        if (k == k0)
            EXPECT_GT(std::abs(c[k]), 1.0);
        else
            EXPECT_NEAR(c[k], 0.0, 1e-9) << k;
    }
}

TEST(Dct2d, RoundTrip)
{
    Dct2d dct(12, 17);
    Rng rng(9);
    NdArray x({12, 17});
    for (std::size_t i = 0; i < x.size(); ++i)
        x[i] = rng.normal();
    const NdArray back = dct.inverse(dct.forward(x));
    for (std::size_t i = 0; i < x.size(); ++i)
        EXPECT_NEAR(back[i], x[i], 1e-10);
}

TEST(Dct2d, SeparableProductSignal)
{
    // Outer product of two 1-D basis vectors -> single 2-D coefficient.
    const std::size_t nr = 16, nc = 24, kr = 3, kc = 7;
    Dct2d dct(nr, nc);
    NdArray x({nr, nc});
    for (std::size_t r = 0; r < nr; ++r) {
        for (std::size_t c = 0; c < nc; ++c) {
            x[r * nc + c] =
                std::cos(std::numbers::pi * (2.0 * r + 1.0) * kr /
                         (2.0 * nr)) *
                std::cos(std::numbers::pi * (2.0 * c + 1.0) * kc /
                         (2.0 * nc));
        }
    }
    const NdArray coef = dct.forward(x);
    std::size_t nonzero = 0;
    for (std::size_t i = 0; i < coef.size(); ++i)
        nonzero += std::abs(coef[i]) > 1e-9;
    EXPECT_EQ(nonzero, 1u);
    EXPECT_GT(std::abs(coef[kr * nc + kc]), 1.0);
}

TEST(Dct2d, LinearityProperty)
{
    Dct2d dct(8, 8);
    Rng rng(10);
    NdArray a({8, 8}), b({8, 8});
    for (std::size_t i = 0; i < 64; ++i) {
        a[i] = rng.normal();
        b[i] = rng.normal();
    }
    NdArray sum = a;
    sum += b;
    const NdArray ca = dct.forward(a);
    const NdArray cb = dct.forward(b);
    const NdArray csum = dct.forward(sum);
    for (std::size_t i = 0; i < 64; ++i)
        EXPECT_NEAR(csum[i], ca[i] + cb[i], 1e-10);
}

// ---------------------------------------------------------------------
// The fast transforms against the row-by-row, then column-by-column
// Dct1d composition: the sampled operator's apply() and atom() sum the
// same products in the same order and match it bitwise; the DctPlan
// passes (dense transforms, the adjoint's row axis) round differently
// and match it to a rounding bound.

/** Separable 2-D transform built from Dct1d, rows first. */
NdArray
reference2d(const NdArray& x, std::size_t nr, std::size_t nc, bool forward)
{
    const Dct1d row_t(nr), col_t(nc);
    NdArray out({nr, nc});
    std::vector<double> buf(nc);
    for (std::size_t r = 0; r < nr; ++r) {
        for (std::size_t c = 0; c < nc; ++c)
            buf[c] = x[r * nc + c];
        const auto t = forward ? col_t.forward(buf) : col_t.inverse(buf);
        for (std::size_t c = 0; c < nc; ++c)
            out[r * nc + c] = t[c];
    }
    std::vector<double> col(nr);
    for (std::size_t c = 0; c < nc; ++c) {
        for (std::size_t r = 0; r < nr; ++r)
            col[r] = out[r * nc + c];
        const auto t = forward ? row_t.forward(col) : row_t.inverse(col);
        for (std::size_t r = 0; r < nr; ++r)
            out[r * nc + c] = t[r];
    }
    return out;
}

/** Index of the first bitwise difference, or npos. */
std::size_t
firstBitDiff(const std::vector<double>& a, const std::vector<double>& b)
{
    if (a.size() != b.size())
        return 0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (std::bit_cast<std::uint64_t>(a[i]) !=
            std::bit_cast<std::uint64_t>(b[i]))
            return i;
    }
    return std::string::npos;
}

double
norm2(const std::vector<double>& x)
{
    double s = 0.0;
    for (double v : x)
        s += v * v;
    return std::sqrt(s);
}

/**
 * Rounding bound for a fast transform against the Dct1d reference,
 * over a chain of 1-D passes of the given total length (n, or nr + nc
 * for a 2-D transform) applied to an input of 2-norm `scale`. Every
 * output of a pass is an inner product with a unit-norm basis vector,
 * so by Cauchy-Schwarz the direct n-term sum errs by at most about
 * n eps |x|_2. The FFT route errs by O(eps log n) |x|_2 through its
 * radix-2/3/4/5 stages and twiddles, and by at most about p eps |x|_2
 * in a generic radix-p stage, p <= n. A pass never grows the 2-norm
 * (orthonormal), so the errors of two passes add. 4 n eps |x|_2 covers
 * both routes with margin; a wrong twiddle or permutation errs by
 * O(|x|_2).
 */
double
roundingBound(std::size_t length, double scale)
{
    return 4.0 * static_cast<double>(length) *
           std::numeric_limits<double>::epsilon() * scale;
}

/** Largest elementwise |a - b|. */
double
maxAbsDiff(const std::vector<double>& a, const std::vector<double>& b)
{
    EXPECT_EQ(a.size(), b.size());
    double d = 0.0;
    for (std::size_t i = 0; i < a.size() && i < b.size(); ++i)
        d = std::max(d, std::abs(a[i] - b[i]));
    return d;
}

using Shape = std::pair<std::size_t, std::size_t>;

/** Normal entries, about a third of them exact zeros (some -0.0). */
NdArray
randomArray(std::size_t nr, std::size_t nc, Rng& rng)
{
    NdArray x({nr, nc});
    for (std::size_t i = 0; i < x.size(); ++i) {
        const double u = rng.uniform();
        x[i] = u < 0.3 ? 0.0 : u < 0.35 ? -0.0 : rng.normal();
    }
    return x;
}

/** About a fifth of the grid, shuffled, with row nr / 2 left
 * unsampled when there is more than one row. */
std::vector<std::size_t>
samplesFor(std::size_t nr, std::size_t nc, Rng& rng)
{
    const std::size_t n = nr * nc;
    std::vector<std::size_t> idx;
    for (std::size_t i :
         rng.sampleWithoutReplacement(n, std::max<std::size_t>(1, n / 5))) {
        if (nr == 1 || i / nc != nr / 2)
            idx.push_back(i);
    }
    if (idx.empty())
        idx.push_back(0);
    rng.shuffle(idx);
    return idx;
}

class DctBitIdentity : public ::testing::TestWithParam<Shape>
{
};

TEST_P(DctBitIdentity, SampledApplyMatchesInverseGather)
{
    const auto [nr, nc] = GetParam();
    const Dct2d dct(nr, nc);
    Rng rng(nr * 7 + nc);
    const auto idx = samplesFor(nr, nc, rng);
    SampledDct2d op(dct, idx);
    ASSERT_EQ(op.samples(), idx.size());

    std::vector<double> values;
    for (int trial = 0; trial < 2; ++trial) {
        // apply: the inverse, gathered at the samples in caller order.
        const NdArray z = randomArray(nr, nc, rng);
        op.apply(z, values);
        const NdArray x = reference2d(z, nr, nc, false);
        std::vector<double> gathered;
        for (std::size_t i : idx)
            gathered.push_back(x[i]);
        EXPECT_EQ(firstBitDiff(values, gathered), std::string::npos);
    }

    // All-zero coefficients.
    op.apply(NdArray({nr, nc}), values);
    EXPECT_EQ(firstBitDiff(values, std::vector<double>(idx.size(), 0.0)),
              std::string::npos);
}

TEST_P(DctBitIdentity, OmpAtomMatchesInverseOfUnitVector)
{
    const auto [nr, nc] = GetParam();
    const Dct2d dct(nr, nc);
    Rng rng(nr + 31 * nc);
    const auto idx = samplesFor(nr, nc, rng);
    const SampledDct2d op(dct, idx);
    const std::size_t n = nr * nc;
    std::vector<double> atom;
    for (std::size_t coef : {std::size_t{0}, n / 2, n - 1, nc - 1}) {
        NdArray unit({nr, nc});
        unit[coef] = 1.0;
        const NdArray x = reference2d(unit, nr, nc, false);
        std::vector<double> gathered;
        for (std::size_t i : idx)
            gathered.push_back(x[i]);
        op.atom(coef, atom);
        EXPECT_EQ(firstBitDiff(atom, gathered), std::string::npos)
            << "coefficient " << coef;
    }
}

INSTANTIATE_TEST_SUITE_P(Shapes, DctBitIdentity,
                         ::testing::Values(Shape{1, 1}, Shape{1, 9},
                                           Shape{9, 1}, Shape{13, 17},
                                           Shape{64, 100},
                                           Shape{144, 225}));

class DctPlanAccuracy : public ::testing::TestWithParam<Shape>
{
};

TEST_P(DctPlanAccuracy, DenseTransformsMatchRowColumnReference)
{
    const auto [nr, nc] = GetParam();
    const Dct2d dct(nr, nc);
    Rng rng(nr * 1000 + nc);
    for (int trial = 0; trial < 2; ++trial) {
        const NdArray x = randomArray(nr, nc, rng);
        const double bound = roundingBound(nr + nc, norm2(x.flat()));
        EXPECT_LE(maxAbsDiff(dct.forward(x).flat(),
                             reference2d(x, nr, nc, true).flat()),
                  bound);
        EXPECT_LE(maxAbsDiff(dct.inverse(x).flat(),
                             reference2d(x, nr, nc, false).flat()),
                  bound);
    }
}

TEST_P(DctPlanAccuracy, DenseTransformsRoundTrip)
{
    const auto [nr, nc] = GetParam();
    const Dct2d dct(nr, nc);
    Rng rng(nr * 3 + nc);
    const NdArray x = randomArray(nr, nc, rng);
    const double bound = roundingBound(2 * (nr + nc), norm2(x.flat()));
    EXPECT_LE(maxAbsDiff(dct.inverse(dct.forward(x)).flat(), x.flat()),
              bound);
    EXPECT_LE(maxAbsDiff(dct.forward(dct.inverse(x)).flat(), x.flat()),
              bound);
}

TEST_P(DctPlanAccuracy, SampledAdjointMatchesForwardOfScatter)
{
    const auto [nr, nc] = GetParam();
    const Dct2d dct(nr, nc);
    Rng rng(nr * 7 + nc);
    const auto idx = samplesFor(nr, nc, rng);
    SampledDct2d op(dct, idx);

    NdArray coefficients;
    for (int trial = 0; trial < 2; ++trial) {
        std::vector<double> v(idx.size());
        for (double& e : v)
            e = rng.uniform() < 0.3 ? 0.0 : rng.normal();
        NdArray scatter({nr, nc});
        for (std::size_t k = 0; k < idx.size(); ++k)
            scatter[idx[k]] = v[k];
        op.adjoint(v, coefficients);
        EXPECT_LE(maxAbsDiff(coefficients.flat(),
                             reference2d(scatter, nr, nc, true).flat()),
                  roundingBound(nr + nc, norm2(v)));
    }

    // All-zero values give exactly zero coefficients.
    op.adjoint(std::vector<double>(idx.size(), 0.0), coefficients);
    for (std::size_t i = 0; i < coefficients.size(); ++i)
        ASSERT_EQ(coefficients[i], 0.0) << i;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, DctPlanAccuracy,
    ::testing::Values(Shape{1, 1}, Shape{1, 9}, Shape{9, 1}, Shape{13, 17},
                      Shape{7, 97}, Shape{11, 13}, Shape{20, 40},
                      Shape{50, 100}, Shape{64, 100}, Shape{144, 225}));

class DctPlanLength : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(DctPlanLength, MatchesDct1dInBothLayouts)
{
    // Batches of 1, 2 and 5 vectors: a lone vector, one complex lane
    // shared by two, and an odd batch with a half-empty padded lane.
    const std::size_t n = GetParam();
    const DctPlan plan(n);
    const Dct1d ref(n);
    Rng rng(n + 77);
    std::vector<double> work;
    for (std::size_t batch : {1, 2, 5}) {
        std::vector<std::vector<double>> vecs(batch, std::vector<double>(n));
        for (auto& vec : vecs) {
            for (double& e : vec)
                e = rng.normal();
        }
        // bs = 1: element j of vector b at [j * batch + b];
        // js = 1: at [b * n + j].
        for (bool contiguous_batch : {true, false}) {
            const std::size_t js = contiguous_batch ? batch : 1;
            const std::size_t bs = contiguous_batch ? 1 : n;
            std::vector<double> data(n * batch);
            for (std::size_t b = 0; b < batch; ++b) {
                for (std::size_t j = 0; j < n; ++j)
                    data[j * js + b * bs] = vecs[b][j];
            }
            std::vector<double> fwd(n * batch), inv(n * batch);
            plan.forward(data.data(), fwd.data(), batch, js, bs, work);
            plan.inverse(data.data(), inv.data(), batch, js, bs, work);
            for (std::size_t b = 0; b < batch; ++b) {
                const auto want_fwd = ref.forward(vecs[b]);
                const auto want_inv = ref.inverse(vecs[b]);
                std::vector<double> got_fwd(n), got_inv(n);
                for (std::size_t j = 0; j < n; ++j) {
                    got_fwd[j] = fwd[j * js + b * bs];
                    got_inv[j] = inv[j * js + b * bs];
                }
                const double bound = roundingBound(n, norm2(vecs[b]));
                EXPECT_LE(maxAbsDiff(got_fwd, want_fwd), bound)
                    << "batch " << batch << " vector " << b
                    << (contiguous_batch ? " bs=1" : " js=1");
                EXPECT_LE(maxAbsDiff(got_inv, want_inv), bound)
                    << "batch " << batch << " vector " << b
                    << (contiguous_batch ? " bs=1" : " js=1");
            }
        }
    }
}

TEST_P(DctPlanLength, InPlaceRoundTrip)
{
    const std::size_t n = GetParam();
    const DctPlan plan(n);
    Rng rng(3 * n);
    const std::size_t batch = 3;
    std::vector<double> x(n * batch);
    for (double& e : x)
        e = rng.normal();
    std::vector<double> y = x, work;
    plan.forward(y.data(), y.data(), batch, batch, 1, work);
    plan.inverse(y.data(), y.data(), batch, batch, 1, work);
    EXPECT_LE(maxAbsDiff(y, x), roundingBound(2 * n, norm2(x)));
}

/** Every length 1..64 (7, 11, 13, ... run a generic-radix stage), and
 * the prime 97. */
std::vector<std::size_t>
planLengths()
{
    std::vector<std::size_t> n;
    for (std::size_t i = 1; i <= 64; ++i)
        n.push_back(i);
    n.push_back(97);
    return n;
}

INSTANTIATE_TEST_SUITE_P(Lengths, DctPlanLength,
                         ::testing::ValuesIn(planLengths()));

TEST(DctPlan, ForwardLanesPiecesEqualForward)
{
    // Lane pieces of 1, 2 and 3 lanes (odd pieces pad a zero lane),
    // over even and odd batches, in both layouts and in place.
    for (std::size_t n : {1, 2, 7, 144, 225}) {
        const DctPlan plan(n);
        Rng rng(n + 5);
        std::vector<double> work;
        for (std::size_t batch : {1, 2, 5, 6, 13}) {
            const std::size_t lanes = DctPlan::lanes(batch);
            std::vector<double> in(n * batch);
            for (double& e : in)
                e = rng.normal();
            for (bool contiguous_batch : {true, false}) {
                const std::size_t js = contiguous_batch ? batch : 1;
                const std::size_t bs = contiguous_batch ? 1 : n;
                std::vector<double> want(n * batch);
                plan.forward(in.data(), want.data(), batch, js, bs, work);
                for (std::size_t step : {1, 2, 3}) {
                    std::vector<double> got(n * batch, -1.0);
                    std::vector<double> inplace = in;
                    for (std::size_t lo = 0; lo < lanes; lo += step) {
                        const std::size_t hi = std::min(lo + step, lanes);
                        plan.forwardLanes(in.data(), got.data(), batch, js,
                                          bs, lo, hi, work);
                        plan.forwardLanes(inplace.data(), inplace.data(),
                                          batch, js, bs, lo, hi, work);
                    }
                    EXPECT_EQ(firstBitDiff(got, want), std::string::npos)
                        << "n " << n << " batch " << batch << " step "
                        << step << (contiguous_batch ? " bs=1" : " js=1");
                    EXPECT_EQ(firstBitDiff(inplace, want), std::string::npos)
                        << "in place: n " << n << " batch " << batch
                        << " step " << step;
                }
            }
        }
    }
}

TEST(SampledDct2d, RowAndLanePiecesEqualApplyAndAdjoint)
{
    // 13 x 17 with rows 0, 5 and 6 left without samples.
    const std::size_t nr = 13, nc = 17;
    const Dct2d dct(nr, nc);
    Rng rng(99);
    std::vector<std::size_t> idx;
    for (std::size_t i : rng.sampleWithoutReplacement(nr * nc, 80)) {
        const std::size_t r = i / nc;
        if (r != 0 && r != 5 && r != 6)
            idx.push_back(i);
    }
    SampledDct2d op(dct, idx);
    const NdArray z = randomArray(nr, nc, rng);
    std::vector<double> y(idx.size());
    for (double& v : y)
        v = rng.normal();

    std::vector<double> want_apply;
    op.apply(z, want_apply);
    NdArray want_adjoint;
    op.adjoint(y, want_adjoint);

    // One row (or lane) per piece, in reverse order.
    for (std::size_t r = nr; r-- > 0;)
        op.columnRows(z.data(), r, r + 1);
    std::vector<double> got_apply(idx.size());
    std::vector<double> residual(idx.size());
    for (std::size_t r = nr; r-- > 0;) {
        op.gatherRows(r, r + 1, nullptr, got_apply);
        op.gatherRows(r, r + 1, y.data(), residual);
    }
    EXPECT_EQ(firstBitDiff(got_apply, want_apply), std::string::npos);
    for (std::size_t m = 0; m < idx.size(); ++m)
        EXPECT_EQ(std::bit_cast<std::uint64_t>(residual[m]),
                  std::bit_cast<std::uint64_t>(want_apply[m] - y[m]))
            << m;

    for (std::size_t r = nr; r-- > 0;)
        op.scatterRows(y, r, r + 1);
    NdArray got_adjoint({nr, nc});
    std::vector<double> work;
    for (std::size_t l = op.lanes(); l-- > 0;)
        op.forwardLanes(l, l + 1, got_adjoint, work);
    EXPECT_EQ(firstBitDiff(got_adjoint.flat(), want_adjoint.flat()),
              std::string::npos);
}

TEST(DctPlan, RejectsZeroLength)
{
    EXPECT_THROW(DctPlan(0), std::invalid_argument);
}

/** Forward, inverse and sampled adjoint of one fixed input, computed
 * with a fresh Dct2d and operator. */
std::vector<std::vector<double>>
transformsOf(const NdArray& x, const std::vector<std::size_t>& idx,
             const std::vector<double>& values)
{
    const Dct2d dct(x.dim(0), x.dim(1));
    SampledDct2d op(dct, idx);
    NdArray adj;
    op.adjoint(values, adj);
    return {dct.forward(x).flat(), dct.inverse(x).flat(), adj.flat()};
}

TEST(DctPlan, BitwiseRepeatableAcrossCallsAndThreads)
{
    const std::size_t nr = 64, nc = 100;
    Rng rng(42);
    const NdArray x = randomArray(nr, nc, rng);
    const auto idx = samplesFor(nr, nc, rng);
    std::vector<double> values(idx.size());
    for (double& v : values)
        v = rng.normal();

    // The same call twice, reusing the operator's workspaces.
    const Dct2d dct(nr, nc);
    SampledDct2d op(dct, idx);
    NdArray adj1, adj2;
    op.adjoint(values, adj1);
    op.adjoint(values, adj2);
    EXPECT_EQ(firstBitDiff(adj1.flat(), adj2.flat()), std::string::npos);
    EXPECT_EQ(firstBitDiff(dct.forward(x).flat(), dct.forward(x).flat()),
              std::string::npos);
    EXPECT_EQ(firstBitDiff(dct.inverse(x).flat(), dct.inverse(x).flat()),
              std::string::npos);

    // Four threads, each with its own Dct2d, on the same input.
    const auto want = transformsOf(x, idx, values);
    std::vector<std::vector<std::vector<double>>> got(4);
    std::vector<std::thread> threads;
    for (auto& g : got) {
        threads.emplace_back(
            [&x, &idx, &values, &g] { g = transformsOf(x, idx, values); });
    }
    for (auto& t : threads)
        t.join();
    for (std::size_t t = 0; t < got.size(); ++t) {
        ASSERT_EQ(got[t].size(), want.size());
        for (std::size_t k = 0; k < want.size(); ++k)
            EXPECT_EQ(firstBitDiff(got[t][k], want[k]), std::string::npos)
                << "thread " << t << " transform " << k;
    }
}

TEST(SampledDct2d, RejectsOutOfRangeAndDuplicateIndices)
{
    const Dct2d dct(4, 5);
    EXPECT_THROW(SampledDct2d(dct, {3, 20}), std::invalid_argument);
    EXPECT_THROW(SampledDct2d(dct, {7, 2, 7}), std::invalid_argument);
    EXPECT_NO_THROW(SampledDct2d(dct, {19, 0, 7}));
}

} // namespace
} // namespace oscar
