#include "src/quantum/kernels.h"

#include <bit>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace oscar {
namespace kernels {

void
matrix1q(cplx* amps, std::size_t dim, int qubit,
         const std::array<cplx, 4>& m)
{
    const std::size_t stride = std::size_t{1} << qubit;
    for (std::size_t base = 0; base < dim; base += 2 * stride) {
        for (std::size_t off = 0; off < stride; ++off) {
            const std::size_t i0 = base + off;
            const std::size_t i1 = i0 + stride;
            const cplx a0 = amps[i0];
            const cplx a1 = amps[i1];
            amps[i0] = m[0] * a0 + m[1] * a1;
            amps[i1] = m[2] * a0 + m[3] * a1;
        }
    }
}

void
diag1q(cplx* amps, std::size_t dim, int qubit, cplx phase0, cplx phase1)
{
    const std::size_t stride = std::size_t{1} << qubit;
    for (std::size_t base = 0; base < dim; base += 2 * stride) {
        for (std::size_t off = 0; off < stride; ++off) {
            const std::size_t i0 = base + off;
            const std::size_t i1 = i0 + stride;
            amps[i0] *= phase0;
            amps[i1] *= phase1;
        }
    }
}

void
cx(cplx* amps, std::size_t dim, int control, int target)
{
    const std::size_t cmask = std::size_t{1} << control;
    const std::size_t tmask = std::size_t{1} << target;
    for (std::size_t i = 0; i < dim; ++i) {
        // Swap each pair once: visit the target=0 member only.
        if ((i & cmask) && !(i & tmask))
            std::swap(amps[i], amps[i | tmask]);
    }
}

void
swapQubits(cplx* amps, std::size_t dim, int a, int b)
{
    const std::size_t amask = std::size_t{1} << a;
    const std::size_t bmask = std::size_t{1} << b;
    for (std::size_t i = 0; i < dim; ++i) {
        if ((i & amask) && !(i & bmask))
            std::swap(amps[i], amps[(i & ~amask) | bmask]);
    }
}

void
phaseZZ(cplx* amps, std::size_t dim, int a, int b, cplx same, cplx diff)
{
    const std::size_t amask = std::size_t{1} << a;
    const std::size_t bmask = std::size_t{1} << b;
    for (std::size_t i = 0; i < dim; ++i) {
        const bool ba = i & amask;
        const bool bb = i & bmask;
        amps[i] *= (ba == bb) ? same : diff;
    }
}

void
scale(cplx* amps, std::size_t dim, cplx factor)
{
    for (std::size_t i = 0; i < dim; ++i)
        amps[i] *= factor;
}

void
negateMasked(cplx* amps, std::size_t dim, std::size_t mask)
{
    for (std::size_t i = 0; i < dim; ++i) {
        if ((i & mask) == mask)
            amps[i] = -amps[i];
    }
}

void
flipBit(cplx* amps, std::size_t dim, int target)
{
    const std::size_t tmask = std::size_t{1} << target;
    for (std::size_t i = 0; i < dim; ++i) {
        if (!(i & tmask))
            std::swap(amps[i], amps[i | tmask]);
    }
}

void
rotX(cplx* amps, std::size_t dim, int qubit, double c, double s)
{
    // [[c, -i s], [-i s, c]]: a0' = c a0 + s (-i a1) and symmetrically
    // for a1', where -i (x + i y) = y - i x.
    const std::size_t stride = std::size_t{1} << qubit;
    for (std::size_t base = 0; base < dim; base += 2 * stride) {
        for (std::size_t off = 0; off < stride; ++off) {
            const std::size_t i0 = base + off;
            const std::size_t i1 = i0 + stride;
            const cplx a0 = amps[i0];
            const cplx a1 = amps[i1];
            amps[i0] = cplx(c * a0.real() + s * a1.imag(),
                            c * a0.imag() - s * a1.real());
            amps[i1] = cplx(c * a1.real() + s * a0.imag(),
                            c * a1.imag() - s * a0.real());
        }
    }
}

void
rotY(cplx* amps, std::size_t dim, int qubit, double c, double s)
{
    // [[c, -s], [s, c]]: all-real matrix, componentwise arithmetic.
    const std::size_t stride = std::size_t{1} << qubit;
    for (std::size_t base = 0; base < dim; base += 2 * stride) {
        for (std::size_t off = 0; off < stride; ++off) {
            const std::size_t i0 = base + off;
            const std::size_t i1 = i0 + stride;
            const cplx a0 = amps[i0];
            const cplx a1 = amps[i1];
            amps[i0] = cplx(c * a0.real() - s * a1.real(),
                            c * a0.imag() - s * a1.imag());
            amps[i1] = cplx(s * a0.real() + c * a1.real(),
                            s * a0.imag() + c * a1.imag());
        }
    }
}

void
rotX2(cplx* amps, std::size_t dim, int qa, int qb, double ca, double sa,
      double cb, double sb)
{
    // The portable pair is literally the two single passes — the
    // bit-identity contract holds by construction, and the scalar
    // tier gains nothing from keeping intermediates in registers.
    rotX(amps, dim, qa, ca, sa);
    rotX(amps, dim, qb, cb, sb);
}

void
rotY2(cplx* amps, std::size_t dim, int qa, int qb, double ca, double sa,
      double cb, double sb)
{
    rotY(amps, dim, qa, ca, sa);
    rotY(amps, dim, qb, cb, sb);
}

void
applyDiagTable(cplx* amps, std::size_t dim, const cplx* table)
{
    for (std::size_t i = 0; i < dim; ++i)
        amps[i] *= table[i];
}

double
expectationDiagonal(const cplx* amps, const double* diag, std::size_t dim)
{
    double acc = 0.0;
    for (std::size_t i = 0; i < dim; ++i)
        acc += std::norm(amps[i]) * diag[i];
    return acc;
}

void
expectationDiagonalBatch(const cplx* const* states, std::size_t count,
                         const double* diag, std::size_t dim, double* out)
{
    if (count == 0)
        return;
    if (count == 1) {
        out[0] = expectationDiagonal(states[0], diag, dim);
        return;
    }
    // One pass over diag, but each state's accumulator adds terms in
    // the same index order as the single-state kernel above, so
    // out[s] is bit-identical to expectationDiagonal(states[s], ...).
    std::vector<double> acc(count, 0.0);
    for (std::size_t i = 0; i < dim; ++i) {
        const double d = diag[i];
        for (std::size_t s = 0; s < count; ++s)
            acc[s] += std::norm(states[s][i]) * d;
    }
    std::memcpy(out, acc.data(), count * sizeof(double));
}

double
expectationPauli(const cplx* amps, std::size_t dim,
                 std::uint64_t flip_mask, std::uint64_t sign_mask,
                 cplx phase)
{
    const std::size_t flip = static_cast<std::size_t>(flip_mask);
    cplx acc(0.0, 0.0);
    for (std::size_t i = 0; i < dim; ++i) {
        const std::size_t j = i ^ flip;
        const double s =
            (std::popcount(j & sign_mask) & 1) ? -1.0 : 1.0;
        acc += std::conj(amps[i]) * amps[j] * s;
    }
    return (phase * acc).real();
}

void
expectationPauliBatch(const cplx* const* states, std::size_t count,
                      std::size_t dim, std::uint64_t flip_mask,
                      std::uint64_t sign_mask, cplx phase, double* out)
{
    if (count == 0)
        return;
    if (count == 1) {
        out[0] = expectationPauli(states[0], dim, flip_mask, sign_mask,
                                  phase);
        return;
    }
    // Shares the index/sign computation across states, but each
    // state's accumulator adds terms in the same order as the
    // single-state kernel, so out[s] is bit-identical to
    // expectationPauli(states[s], ...).
    const std::size_t flip = static_cast<std::size_t>(flip_mask);
    std::vector<cplx> acc(count, cplx(0.0, 0.0));
    for (std::size_t i = 0; i < dim; ++i) {
        const std::size_t j = i ^ flip;
        const double s =
            (std::popcount(j & sign_mask) & 1) ? -1.0 : 1.0;
        for (std::size_t st = 0; st < count; ++st)
            acc[st] += std::conj(states[st][i]) * states[st][j] * s;
    }
    for (std::size_t st = 0; st < count; ++st)
        out[st] = (phase * acc[st]).real();
}

void
pairMask(cplx* amps, std::size_t dim, cplx m00, cplx m01)
{
    const std::size_t mask = dim - 1;
    if (m00.imag() == 0.0 && m01.real() == 0.0) {
        // RX = [[c, -i s], [-i s, c]]: as in rotX, half the multiplies
        // of the general loop below, which rounds the same here (its
        // extra products are by zero).
        const double c = m00.real();
        const double s = -m01.imag();
        for (std::size_t x = 0; x < dim / 2; ++x) {
            const cplx a = amps[x];
            const cplx b = amps[x ^ mask];
            amps[x] = cplx(c * a.real() + s * b.imag(),
                           c * a.imag() - s * b.real());
            amps[x ^ mask] = cplx(c * b.real() + s * a.imag(),
                                  c * b.imag() - s * a.real());
        }
        return;
    }
    for (std::size_t x = 0; x < dim / 2; ++x) {
        const cplx a = amps[x];
        const cplx b = amps[x ^ mask];
        amps[x] = cplx((m00.real() * a.real() - m00.imag() * a.imag()) +
                           (m01.real() * b.real() - m01.imag() * b.imag()),
                       (m00.real() * a.imag() + m00.imag() * a.real()) +
                           (m01.real() * b.imag() + m01.imag() * b.real()));
        amps[x ^ mask] =
            cplx((m00.real() * b.real() - m00.imag() * b.imag()) +
                     (m01.real() * a.real() - m01.imag() * a.imag()),
                 (m00.real() * b.imag() + m00.imag() * b.real()) +
                     (m01.real() * a.imag() + m01.imag() * a.real()));
    }
}

// ---------------------------------------------------------------------
// ISA dispatch
// ---------------------------------------------------------------------

namespace detail {

/**
 * Defined in kernels_avx2.cpp: the AVX2+FMA table, or nullptr when
 * the compiler lacks -mavx2/-mfma.
 */
const KernelTable* avx2KernelTableOrNull();

/**
 * Defined in kernels_avx512.cpp: the AVX-512 table, or nullptr when
 * the compiler lacks -mavx512f/-mavx512dq.
 */
const KernelTable* avx512KernelTableOrNull();

} // namespace detail

const char*
isaName(KernelIsa isa)
{
    switch (isa) {
      case KernelIsa::Scalar:
        return "scalar";
      case KernelIsa::Avx2:
        return "avx2";
      case KernelIsa::Avx512:
        return "avx512";
      case KernelIsa::Auto:
        return "auto";
    }
    return "unknown";
}

KernelIsa
parseIsaName(const char* name)
{
    if (name) {
        if (std::strcmp(name, "scalar") == 0)
            return KernelIsa::Scalar;
        if (std::strcmp(name, "avx2") == 0)
            return KernelIsa::Avx2;
        if (std::strcmp(name, "avx512") == 0)
            return KernelIsa::Avx512;
        if (std::strcmp(name, "auto") == 0)
            return KernelIsa::Auto;
    }
    throw std::invalid_argument(
        "unknown kernel ISA \"" + std::string(name ? name : "") +
        "\" (valid: scalar, avx2, avx512, auto)");
}

const KernelTable&
scalarKernelTable()
{
    static const KernelTable table = [] {
        KernelTable t;
        t.isa = KernelIsa::Scalar;
        t.matrix1q = &matrix1q;
        t.diag1q = &diag1q;
        t.cx = &cx;
        t.swapQubits = &swapQubits;
        t.phaseZZ = &phaseZZ;
        t.scale = &scale;
        t.negateMasked = &negateMasked;
        t.flipBit = &flipBit;
        t.rotX = &rotX;
        t.rotY = &rotY;
        t.rotX2 = &rotX2;
        t.rotY2 = &rotY2;
        t.applyDiagTable = &applyDiagTable;
        t.expectationDiagonalBatch = &expectationDiagonalBatch;
        t.expectationPauli = &expectationPauli;
        t.expectationPauliBatch = &expectationPauliBatch;
        return t;
    }();
    return table;
}

namespace {

bool
cpuHasAvx2Fma()
{
#if defined(__x86_64__) || defined(_M_X64)
    return __builtin_cpu_supports("avx2") &&
           __builtin_cpu_supports("fma");
#else
    return false;
#endif
}

bool
cpuHasAvx512()
{
#if defined(__x86_64__) || defined(_M_X64)
    // The AVX-512 TU is compiled -mavx512f -mavx512dq; gate on both
    // feature bits so a CPU with F but not DQ never runs it.
    return __builtin_cpu_supports("avx512f") &&
           __builtin_cpu_supports("avx512dq");
#else
    return false;
#endif
}

std::string
availableIsaList()
{
    std::string s = "scalar";
    if (avx2Available())
        s += ", avx2";
    if (avx512Available())
        s += ", avx512";
    return s;
}

} // namespace

bool
avx2Available()
{
    static const bool available =
        detail::avx2KernelTableOrNull() != nullptr && cpuHasAvx2Fma();
    return available;
}

bool
avx512Available()
{
    static const bool available =
        detail::avx512KernelTableOrNull() != nullptr && cpuHasAvx512();
    return available;
}

const KernelTable&
kernelTable(KernelIsa isa)
{
    // Strict dispatch: a pinned ISA that cannot run here is an error,
    // never a silent downgrade. A pinned ISA silently degrading would
    // change values by rounding under a cost id that names the pin.
    switch (isa) {
      case KernelIsa::Auto:
        return defaultKernelTable();
      case KernelIsa::Scalar:
        return scalarKernelTable();
      case KernelIsa::Avx2:
        if (avx2Available())
            return *detail::avx2KernelTableOrNull();
        break;
      case KernelIsa::Avx512:
        if (avx512Available())
            return *detail::avx512KernelTableOrNull();
        break;
    }
    throw std::runtime_error(
        std::string("kernel ISA \"") + isaName(isa) +
        "\" is not available on this machine (available: " +
        availableIsaList() + ")");
}

const KernelTable&
defaultKernelTable()
{
    // A malformed OSCAR_KERNEL_ISA throws (every call, until the
    // environment is fixed): a user pinning the ISA for a determinism
    // experiment must never silently run on a different one, and a
    // valid name the machine cannot execute throws too, via the
    // strict kernelTable() dispatch above. `auto` (and no env at all)
    // picks the widest tier the CPU and build both support.
    static const KernelTable& table = [&]() -> const KernelTable& {
        if (const char* env = std::getenv("OSCAR_KERNEL_ISA")) {
            KernelIsa isa;
            try {
                isa = parseIsaName(env);
            } catch (const std::invalid_argument& e) {
                throw std::runtime_error(
                    std::string("OSCAR_KERNEL_ISA: ") + e.what());
            }
            if (isa != KernelIsa::Auto)
                return kernelTable(isa);
        }
        if (avx512Available())
            return *detail::avx512KernelTableOrNull();
        if (avx2Available())
            return *detail::avx2KernelTableOrNull();
        return scalarKernelTable();
    }();
    return table;
}

} // namespace kernels
} // namespace oscar
