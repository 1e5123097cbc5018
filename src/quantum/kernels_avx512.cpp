/**
 * @file
 * AVX-512 kernel specializations (F + DQ).
 *
 * Every build compiles this translation unit with -mavx512f
 * -mavx512dq (see CMakeLists.txt), and it must never be entered on a
 * CPU without both feature bits: dispatch goes through
 * kernels::kernelTable, which checks CPUID before handing out this
 * table. Only a compiler without the flags builds the file as a stub
 * that reports "no table", and dispatch then tops out at AVX2.
 *
 * Layout reminder: a __m512d holds four complex<double> amplitudes as
 * [re0 im0 re1 im1 re2 im2 re3 im3]. The complex product fuses with
 * _mm512_fmaddsub_pd, so results differ from the scalar and AVX2
 * tiers by rounding (never more); within this ISA every kernel is a
 * pure function of its arguments, preserving the engine's
 * "bit-identical for a fixed (ISA, fusion plan)" contract.
 *
 * Tail policy: state dimensions are powers of two, so the only shape
 * below the 4-complex vector width is dim == 2. It runs through
 * masked loads and stores (_mm512_maskz_loadu_pd /
 * _mm512_mask_storeu_pd with an 8-bit double mask) rather than the
 * scalar remainder loops the AVX2 tier uses — zeroed inactive lanes
 * flow through the same arithmetic and the masked store discards
 * them.
 *
 * swapQubits stays on the scalar implementation: it is an exact
 * permutation (no rounding, so reuse cannot change results) and does
 * not appear on the hot QAOA path.
 */

#include "src/quantum/kernels.h"

#if defined(__AVX512F__) && defined(__AVX512DQ__)

#include <immintrin.h>

#include <algorithm>

namespace oscar {
namespace kernels {
namespace {

inline __m512d
ld8(const cplx* p)
{
    return _mm512_loadu_pd(reinterpret_cast<const double*>(p));
}

inline void
st8(cplx* p, __m512d v)
{
    _mm512_storeu_pd(reinterpret_cast<double*>(p), v);
}

inline __m512d
ldm(const cplx* p, __mmask8 k)
{
    return _mm512_maskz_loadu_pd(k, reinterpret_cast<const double*>(p));
}

inline void
stm(cplx* p, __mmask8 k, __m512d v)
{
    _mm512_mask_storeu_pd(reinterpret_cast<double*>(p), k, v);
}

/*
 * GCC 12 builds the unmasked forms of permute, movedup, permutexvar,
 * extractf64x4 (and castpd512_pd256, which goes through it) and
 * broadcast_f64x4 on their masked builtins with an undefined merge
 * source, which -Wmaybe-uninitialized reports once they inline. The
 * helpers below call the masked forms with an all-ones mask and the
 * source passed explicitly: the compiler emits the same unmasked
 * instruction, and no operand is left undefined.
 */

/** vpermilpd: per-128-bit-lane double select by Imm. */
template <int Imm>
inline __m512d
permil8(__m512d a)
{
    return _mm512_mask_permute_pd(a, 0xFF, a, Imm);
}

/** vmovddup: each even (real) lane copied into its odd neighbour. */
inline __m512d
dupRe8(__m512d b)
{
    return _mm512_mask_movedup_pd(b, 0xFF, b);
}

/** vpermpd: full cross-lane double permute by idx. */
inline __m512d
permx8(__m512i idx, __m512d v)
{
    return _mm512_mask_permutexvar_pd(v, 0xFF, idx, v);
}

/** vextractf64x4: the low (Half 0) or high (Half 1) 256 bits of v. */
template <int Half>
inline __m256d
half8(__m512d v)
{
    return _mm512_mask_extractf64x4_pd(_mm256_setzero_pd(), 0xF, v, Half);
}

/** One complex constant in all four lanes. */
inline __m512d
bcast8(cplx c)
{
    return _mm512_mask_broadcast_f64x4(
        _mm512_setzero_pd(), 0xFF,
        _mm256_setr_pd(c.real(), c.imag(), c.real(), c.imag()));
}

/** Two complex constants, pair-repeated: [a a b b]. */
inline __m512d
pairs8(cplx a, cplx b)
{
    return _mm512_setr_pd(a.real(), a.imag(), a.real(), a.imag(),
                          b.real(), b.imag(), b.real(), b.imag());
}

/** Two complex constants, interleaved: [a b a b]. */
inline __m512d
alt8(cplx a, cplx b)
{
    return _mm512_setr_pd(a.real(), a.imag(), b.real(), b.imag(),
                          a.real(), a.imag(), b.real(), b.imag());
}

/** Elementwise complex product of two amplitude quads. */
inline __m512d
cmul8(__m512d a, __m512d b)
{
    const __m512d br = dupRe8(b);
    const __m512d bi = permil8<0xFF>(b);
    const __m512d as = permil8<0x55>(a);
    return _mm512_fmaddsub_pd(a, br, _mm512_mul_pd(as, bi));
}

/** Fixed-order fold of eight doubles to two: halves, then quarters. */
inline __m128d
fold8(__m512d v)
{
    const __m256d s4 = _mm256_add_pd(half8<0>(v), half8<1>(v));
    return _mm_add_pd(_mm256_castpd256_pd128(s4),
                      _mm256_extractf128_pd(s4, 1));
}

/** Fixed-order horizontal sum: halves first, then the AVX2 order. */
inline double
hsum8(__m512d v)
{
    const __m128d s2 = fold8(v);
    return _mm_cvtsd_f64(s2) + _mm_cvtsd_f64(_mm_unpackhi_pd(s2, s2));
}

/** Fixed-order complex horizontal sum of four lanes. */
inline cplx
chsum8(__m512d v)
{
    const __m128d s2 = fold8(v);
    return cplx(_mm_cvtsd_f64(s2),
                _mm_cvtsd_f64(_mm_unpackhi_pd(s2, s2)));
}

/**
 * In-vector pair replication for low-qubit 1q gates. For stride 1 the
 * vector holds [a0 a1 a0' a1'] (two pairs); for stride 2 it holds
 * [a0 a0' a1 a1'] grouped as [pair0 | pair1].
 *
 * These index vectors are built inside (inlined) functions, NOT as
 * namespace-scope constants: a global __m512i would run its AVX-512
 * initializer at program load, before any CPUID gate, and SIGILL on
 * hardware without the tier. Function-local construction folds to a
 * constant-pool load executed only after dispatch admitted us here.
 */
inline __m512i
rep0Lo() { return _mm512_setr_epi64(0, 1, 0, 1, 4, 5, 4, 5); }
inline __m512i
rep0Hi() { return _mm512_setr_epi64(2, 3, 2, 3, 6, 7, 6, 7); }
inline __m512i
rep1Lo() { return _mm512_setr_epi64(0, 1, 2, 3, 0, 1, 2, 3); }
inline __m512i
rep1Hi() { return _mm512_setr_epi64(4, 5, 6, 7, 4, 5, 6, 7); }

/** Complex-lane swaps (partner at l^1 / l^2), optional re/im swap. */
inline __m512i
swapC1() { return _mm512_setr_epi64(2, 3, 0, 1, 6, 7, 4, 5); }
inline __m512i
swapC2() { return _mm512_setr_epi64(4, 5, 6, 7, 0, 1, 2, 3); }
inline __m512i
swapC1Rot() { return _mm512_setr_epi64(3, 2, 1, 0, 7, 6, 5, 4); }
inline __m512i
swapC2Rot() { return _mm512_setr_epi64(5, 4, 7, 6, 1, 0, 3, 2); }

void
matrix1qAvx512(cplx* amps, std::size_t dim, int qubit,
               const std::array<cplx, 4>& m)
{
    const std::size_t stride = std::size_t{1} << qubit;
    if (stride >= 4) {
        const __m512d m00 = bcast8(m[0]);
        const __m512d m01 = bcast8(m[1]);
        const __m512d m10 = bcast8(m[2]);
        const __m512d m11 = bcast8(m[3]);
        for (std::size_t base = 0; base < dim; base += 2 * stride) {
            for (std::size_t off = 0; off < stride; off += 4) {
                cplx* p0 = amps + base + off;
                cplx* p1 = p0 + stride;
                const __m512d a0 = ld8(p0);
                const __m512d a1 = ld8(p1);
                st8(p0, _mm512_add_pd(cmul8(a0, m00), cmul8(a1, m01)));
                st8(p1, _mm512_add_pd(cmul8(a0, m10), cmul8(a1, m11)));
            }
        }
        return;
    }
    // Low-qubit paths keep both pair members inside one vector: the
    // a0/a1 operands are replicated in place and the matrix constants
    // are laid out to match, so one add of two cmuls produces the
    // full in-memory-order result.
    const bool q0 = stride == 1;
    const __m512i ilo = q0 ? rep0Lo() : rep1Lo();
    const __m512i ihi = q0 ? rep0Hi() : rep1Hi();
    const __m512d mA = q0 ? alt8(m[0], m[2]) : pairs8(m[0], m[2]);
    const __m512d mB = q0 ? alt8(m[1], m[3]) : pairs8(m[1], m[3]);
    if (dim < 4) {
        // dim == 2: one pair through the masked tail path.
        const __m512d v = ldm(amps, 0x0F);
        const __m512d a0 = permx8(ilo, v);
        const __m512d a1 = permx8(ihi, v);
        stm(amps, 0x0F,
            _mm512_add_pd(cmul8(a0, mA), cmul8(a1, mB)));
        return;
    }
    for (std::size_t i = 0; i < dim; i += 4) {
        const __m512d v = ld8(amps + i);
        const __m512d a0 = permx8(ilo, v);
        const __m512d a1 = permx8(ihi, v);
        st8(amps + i, _mm512_add_pd(cmul8(a0, mA), cmul8(a1, mB)));
    }
}

void
diag1qAvx512(cplx* amps, std::size_t dim, int qubit, cplx phase0,
             cplx phase1)
{
    const std::size_t stride = std::size_t{1} << qubit;
    if (stride >= 4) {
        const __m512d p0 = bcast8(phase0);
        const __m512d p1 = bcast8(phase1);
        for (std::size_t base = 0; base < dim; base += 2 * stride) {
            for (std::size_t off = 0; off < stride; off += 4) {
                cplx* lo = amps + base + off;
                cplx* hi = lo + stride;
                st8(lo, cmul8(ld8(lo), p0));
                st8(hi, cmul8(ld8(hi), p1));
            }
        }
        return;
    }
    const __m512d pv = stride == 1 ? alt8(phase0, phase1)
                                   : pairs8(phase0, phase1);
    if (dim < 4) {
        stm(amps, 0x0F, cmul8(ldm(amps, 0x0F), pv));
        return;
    }
    for (std::size_t i = 0; i < dim; i += 4)
        st8(amps + i, cmul8(ld8(amps + i), pv));
}

void
rotXAvx512(cplx* amps, std::size_t dim, int qubit, double c, double s)
{
    // See rotXAvx2: a0' = c a0 + s rot(a1), rot(x + i y) = y - i x.
    const std::size_t stride = std::size_t{1} << qubit;
    const __m512d cv = _mm512_set1_pd(c);
    const __m512d sx = _mm512_setr_pd(s, -s, s, -s, s, -s, s, -s);
    if (stride >= 4) {
        for (std::size_t base = 0; base < dim; base += 2 * stride) {
            for (std::size_t off = 0; off < stride; off += 4) {
                cplx* p0 = amps + base + off;
                cplx* p1 = p0 + stride;
                const __m512d a0 = ld8(p0);
                const __m512d a1 = ld8(p1);
                const __m512d r1 = permil8<0x55>(a1);
                const __m512d r0 = permil8<0x55>(a0);
                st8(p0, _mm512_fmadd_pd(cv, a0, _mm512_mul_pd(sx, r1)));
                st8(p1, _mm512_fmadd_pd(cv, a1, _mm512_mul_pd(sx, r0)));
            }
        }
        return;
    }
    // In-vector: the partner lane arrives already re/im-swapped via a
    // single combined permute.
    const __m512i rot = stride == 1 ? swapC1Rot() : swapC2Rot();
    if (dim < 4) {
        const __m512d v = ldm(amps, 0x0F);
        const __m512d pr = permx8(rot, v);
        stm(amps, 0x0F,
            _mm512_fmadd_pd(cv, v, _mm512_mul_pd(sx, pr)));
        return;
    }
    for (std::size_t i = 0; i < dim; i += 4) {
        const __m512d v = ld8(amps + i);
        const __m512d pr = permx8(rot, v);
        st8(amps + i, _mm512_fmadd_pd(cv, v, _mm512_mul_pd(sx, pr)));
    }
}

void
rotYAvx512(cplx* amps, std::size_t dim, int qubit, double c, double s)
{
    // See rotYAvx2: all-real matrix [[c, -s], [s, c]]. In the
    // in-vector form the sign of s depends on whether the lane holds
    // an a0 (gets -s a1) or an a1 (gets +s a0).
    const std::size_t stride = std::size_t{1} << qubit;
    const __m512d cv = _mm512_set1_pd(c);
    if (stride >= 4) {
        const __m512d sv = _mm512_set1_pd(s);
        for (std::size_t base = 0; base < dim; base += 2 * stride) {
            for (std::size_t off = 0; off < stride; off += 4) {
                cplx* p0 = amps + base + off;
                cplx* p1 = p0 + stride;
                const __m512d a0 = ld8(p0);
                const __m512d a1 = ld8(p1);
                st8(p0, _mm512_fnmadd_pd(sv, a1, _mm512_mul_pd(cv, a0)));
                st8(p1, _mm512_fmadd_pd(sv, a0, _mm512_mul_pd(cv, a1)));
            }
        }
        return;
    }
    const __m512i swp = stride == 1 ? swapC1() : swapC2();
    const __m512d sp =
        stride == 1
            ? _mm512_setr_pd(-s, -s, s, s, -s, -s, s, s)
            : _mm512_setr_pd(-s, -s, -s, -s, s, s, s, s);
    if (dim < 4) {
        const __m512d v = ldm(amps, 0x0F);
        const __m512d pr = permx8(swp, v);
        stm(amps, 0x0F,
            _mm512_fmadd_pd(sp, pr, _mm512_mul_pd(cv, v)));
        return;
    }
    for (std::size_t i = 0; i < dim; i += 4) {
        const __m512d v = ld8(amps + i);
        const __m512d pr = permx8(swp, v);
        st8(amps + i, _mm512_fmadd_pd(sp, pr, _mm512_mul_pd(cv, v)));
    }
}

/**
 * Pair-fused RX, bit-identical to rotXAvx512(qa) then rotXAvx512(qb):
 * the quartet {base, +2^qa, +2^qb, +2^qa+2^qb} stays in registers
 * across both steps, halving load/store traffic. In-vector qubits
 * (< 2) would need the permutexvar path, so those pairs fall back to
 * the two single calls.
 */
void
rotX2Avx512(cplx* amps, std::size_t dim, int qa, int qb, double ca,
            double sa, double cb, double sb)
{
    if (qa < 2 || qb < 2 || dim < 16) {
        rotXAvx512(amps, dim, qa, ca, sa);
        rotXAvx512(amps, dim, qb, cb, sb);
        return;
    }
    const std::size_t stra = std::size_t{1} << qa;
    const std::size_t strb = std::size_t{1} << qb;
    const std::size_t slo = stra < strb ? stra : strb;
    const std::size_t shi = stra < strb ? strb : stra;
    const __m512d cva = _mm512_set1_pd(ca);
    const __m512d sxa = _mm512_setr_pd(sa, -sa, sa, -sa, sa, -sa, sa, -sa);
    const __m512d cvb = _mm512_set1_pd(cb);
    const __m512d sxb = _mm512_setr_pd(sb, -sb, sb, -sb, sb, -sb, sb, -sb);
    for (std::size_t hi = 0; hi < dim; hi += 2 * shi)
        for (std::size_t mid = 0; mid < shi; mid += 2 * slo)
            for (std::size_t off = 0; off < slo; off += 4) {
                cplx* p00 = amps + hi + mid + off;
                cplx* pa = p00 + stra;
                cplx* pb = p00 + strb;
                cplx* pab = p00 + stra + strb;
                const __m512d a00 = ld8(p00), aa = ld8(pa),
                              ab = ld8(pb), aab = ld8(pab);
                const __m512d n00 = _mm512_fmadd_pd(
                    cva, a00,
                    _mm512_mul_pd(sxa, permil8<0x55>(aa)));
                const __m512d na = _mm512_fmadd_pd(
                    cva, aa,
                    _mm512_mul_pd(sxa, permil8<0x55>(a00)));
                const __m512d nb = _mm512_fmadd_pd(
                    cva, ab,
                    _mm512_mul_pd(sxa, permil8<0x55>(aab)));
                const __m512d nab = _mm512_fmadd_pd(
                    cva, aab,
                    _mm512_mul_pd(sxa, permil8<0x55>(ab)));
                st8(p00, _mm512_fmadd_pd(
                    cvb, n00, _mm512_mul_pd(sxb, permil8<0x55>(nb))));
                st8(pb, _mm512_fmadd_pd(
                    cvb, nb, _mm512_mul_pd(sxb, permil8<0x55>(n00))));
                st8(pa, _mm512_fmadd_pd(
                    cvb, na, _mm512_mul_pd(sxb, permil8<0x55>(nab))));
                st8(pab, _mm512_fmadd_pd(
                    cvb, nab, _mm512_mul_pd(sxb, permil8<0x55>(na))));
            }
}

/** Pair-fused RY; same structure and contract as rotX2Avx512. */
void
rotY2Avx512(cplx* amps, std::size_t dim, int qa, int qb, double ca,
            double sa, double cb, double sb)
{
    if (qa < 2 || qb < 2 || dim < 16) {
        rotYAvx512(amps, dim, qa, ca, sa);
        rotYAvx512(amps, dim, qb, cb, sb);
        return;
    }
    const std::size_t stra = std::size_t{1} << qa;
    const std::size_t strb = std::size_t{1} << qb;
    const std::size_t slo = stra < strb ? stra : strb;
    const std::size_t shi = stra < strb ? strb : stra;
    const __m512d cva = _mm512_set1_pd(ca);
    const __m512d sva = _mm512_set1_pd(sa);
    const __m512d cvb = _mm512_set1_pd(cb);
    const __m512d svb = _mm512_set1_pd(sb);
    for (std::size_t hi = 0; hi < dim; hi += 2 * shi)
        for (std::size_t mid = 0; mid < shi; mid += 2 * slo)
            for (std::size_t off = 0; off < slo; off += 4) {
                cplx* p00 = amps + hi + mid + off;
                cplx* pa = p00 + stra;
                cplx* pb = p00 + strb;
                cplx* pab = p00 + stra + strb;
                const __m512d a00 = ld8(p00), aa = ld8(pa),
                              ab = ld8(pb), aab = ld8(pab);
                const __m512d n00 =
                    _mm512_fnmadd_pd(sva, aa, _mm512_mul_pd(cva, a00));
                const __m512d na =
                    _mm512_fmadd_pd(sva, a00, _mm512_mul_pd(cva, aa));
                const __m512d nb =
                    _mm512_fnmadd_pd(sva, aab, _mm512_mul_pd(cva, ab));
                const __m512d nab =
                    _mm512_fmadd_pd(sva, ab, _mm512_mul_pd(cva, aab));
                st8(p00,
                    _mm512_fnmadd_pd(svb, nb, _mm512_mul_pd(cvb, n00)));
                st8(pb,
                    _mm512_fmadd_pd(svb, n00, _mm512_mul_pd(cvb, nb)));
                st8(pa,
                    _mm512_fnmadd_pd(svb, nab, _mm512_mul_pd(cvb, na)));
                st8(pab,
                    _mm512_fmadd_pd(svb, na, _mm512_mul_pd(cvb, nab)));
            }
}

void
scaleAvx512(cplx* amps, std::size_t dim, cplx factor)
{
    const __m512d f = bcast8(factor);
    if (dim < 4) {
        stm(amps, 0x0F, cmul8(ldm(amps, 0x0F), f));
        return;
    }
    for (std::size_t i = 0; i < dim; i += 4)
        st8(amps + i, cmul8(ld8(amps + i), f));
}

void
phaseZZAvx512(cplx* amps, std::size_t dim, int a, int b, cplx same,
              cplx diff)
{
    // Same decomposition as the AVX2 tier: split on the higher qubit,
    // then each half is a diagonal 1q pass on the lower one.
    const int lo = std::min(a, b);
    const int hi = std::max(a, b);
    const std::size_t hs = std::size_t{1} << hi;
    for (std::size_t base = 0; base < dim; base += 2 * hs) {
        diag1qAvx512(amps + base, hs, lo, same, diff);
        diag1qAvx512(amps + base + hs, hs, lo, diff, same);
    }
}

/**
 * Spread a 4-bit per-complex mask to the 8-bit per-double mask the
 * masked ops want (bit l -> bits 2l, 2l+1).
 */
constexpr __mmask8 kSpread[16] = {
    0x00, 0x03, 0x0C, 0x0F, 0x30, 0x33, 0x3C, 0x3F,
    0xC0, 0xC3, 0xCC, 0xCF, 0xF0, 0xF3, 0xFC, 0xFF,
};

void
negateMaskedAvx512(cplx* amps, std::size_t dim, std::size_t mask)
{
    // Bits 0-1 of the mask select a fixed lane pattern inside each
    // 4-complex vector; the remaining bits gate whole vectors.
    const std::size_t low = mask & 3;
    const std::size_t high = mask & ~std::size_t{3};
    unsigned cm = 0;
    for (unsigned l = 0; l < 4; ++l)
        if ((l & low) == low)
            cm |= 1u << l;
    const __mmask8 dmask = kSpread[cm];
    const __m512d sign = _mm512_set1_pd(-0.0);
    if (dim < 4) {
        if ((0 & high) == high)
            stm(amps, dmask & 0x0F,
                _mm512_xor_pd(ldm(amps, 0x0F), sign));
        return;
    }
    for (std::size_t i = 0; i < dim; i += 4) {
        if ((i & high) != high)
            continue;
        // Masked store writes only the negated lanes back.
        stm(amps + i, dmask, _mm512_xor_pd(ld8(amps + i), sign));
    }
}

/**
 * Per-complex control pattern inside a 4-complex vector for a control
 * qubit below 2, spread to a double mask. Index by control qubit.
 */
constexpr __mmask8 kCtrlPattern[2] = {0xCC, 0xF0};

void
cxAvx512(cplx* amps, std::size_t dim, int control, int target)
{
    const std::size_t cmask = std::size_t{1} << control;
    if (target >= 2) {
        // Pair members live in different vectors; swap whole vectors
        // (or masked lanes when the control sits below the vector).
        const std::size_t tstride = std::size_t{1} << target;
        const bool ctrl_low = control < 2;
        const __mmask8 km =
            ctrl_low ? kCtrlPattern[control] : __mmask8{0xFF};
        for (std::size_t base = 0; base < dim; base += 2 * tstride) {
            for (std::size_t off = 0; off < tstride; off += 4) {
                const std::size_t i = base + off;
                if (!ctrl_low && !(i & cmask))
                    continue;
                cplx* p0 = amps + i;
                cplx* p1 = p0 + tstride;
                const __m512d v0 = ld8(p0);
                const __m512d v1 = ld8(p1);
                stm(p0, km, v1);
                stm(p1, km, v0);
            }
        }
        return;
    }
    // Target below the vector width: the swap is an in-register
    // complex permute, applied to controlled lanes only.
    const __m512i swp = target == 0 ? swapC1() : swapC2();
    const bool ctrl_low = control < 2;
    const __mmask8 km = ctrl_low ? kCtrlPattern[control] : __mmask8{0xFF};
    if (dim < 4) {
        // dim == 2 implies a single qubit; cx needs two, so this is
        // unreachable — kept as a masked no-op-safe guard.
        return;
    }
    for (std::size_t i = 0; i < dim; i += 4) {
        if (!ctrl_low && !(i & cmask))
            continue;
        const __m512d v = ld8(amps + i);
        stm(amps + i, km, permx8(swp, v));
    }
}

void
flipBitAvx512(cplx* amps, std::size_t dim, int target)
{
    if (target >= 2) {
        const std::size_t tstride = std::size_t{1} << target;
        for (std::size_t base = 0; base < dim; base += 2 * tstride) {
            for (std::size_t off = 0; off < tstride; off += 4) {
                cplx* p0 = amps + base + off;
                cplx* p1 = p0 + tstride;
                const __m512d v0 = ld8(p0);
                st8(p0, ld8(p1));
                st8(p1, v0);
            }
        }
        return;
    }
    const __m512i swp = target == 0 ? swapC1() : swapC2();
    if (dim < 4) {
        stm(amps, 0x0F,
            permx8(swp, ldm(amps, 0x0F)));
        return;
    }
    for (std::size_t i = 0; i < dim; i += 4)
        st8(amps + i, permx8(swp, ld8(amps + i)));
}

void
applyDiagTableAvx512(cplx* amps, std::size_t dim, const cplx* table)
{
    if (dim < 4) {
        stm(amps, 0x0F, cmul8(ldm(amps, 0x0F), ldm(table, 0x0F)));
        return;
    }
    for (std::size_t i = 0; i < dim; i += 4)
        st8(amps + i, cmul8(ld8(amps + i), ld8(table + i)));
}

/** Even/odd double lanes across two vectors, for |amp|^2 gathering
 * (functions, not globals — see the initializer note above). */
inline __m512i
evenIdx() { return _mm512_setr_epi64(0, 2, 4, 6, 8, 10, 12, 14); }
inline __m512i
oddIdx() { return _mm512_setr_epi64(1, 3, 5, 7, 9, 11, 13, 15); }

void
expectationDiagonalBatchAvx512(const cplx* const* states,
                               std::size_t count, const double* diag,
                               std::size_t dim, double* out)
{
    if (count == 0)
        return;
    // Eight norms per step: squares from two amplitude vectors are
    // regathered into natural complex order (re^2 lanes + im^2 lanes)
    // so the diagonal loads stay contiguous and unpermuted. Per-state
    // fmadd order is independent of count and chunking, so a batch of
    // one is bit-identical to the same state inside any group.
    constexpr std::size_t kChunk = 8;
    const std::size_t dim8 = dim & ~std::size_t{7};
    const std::size_t rem = dim - dim8; // 0, 2, or 4 complexes
    const __mmask8 amask =
        static_cast<__mmask8>((1u << (2 * rem)) - 1u);
    const __mmask8 dmaskr = static_cast<__mmask8>((1u << rem) - 1u);
    for (std::size_t s0 = 0; s0 < count; s0 += kChunk) {
        const std::size_t nc = std::min(kChunk, count - s0);
        __m512d acc[kChunk];
        std::fill(acc, acc + nc, _mm512_setzero_pd());
        for (std::size_t i = 0; i < dim8; i += 8) {
            const __m512d d = _mm512_loadu_pd(diag + i);
            for (std::size_t c = 0; c < nc; ++c) {
                const cplx* p = states[s0 + c] + i;
                const __m512d v0 = ld8(p);
                const __m512d v1 = ld8(p + 4);
                const __m512d q0 = _mm512_mul_pd(v0, v0);
                const __m512d q1 = _mm512_mul_pd(v1, v1);
                const __m512d re =
                    _mm512_permutex2var_pd(q0, evenIdx(), q1);
                const __m512d im =
                    _mm512_permutex2var_pd(q0, oddIdx(), q1);
                acc[c] = _mm512_fmadd_pd(_mm512_add_pd(re, im), d,
                                         acc[c]);
            }
        }
        if (rem) {
            const __m512d d =
                _mm512_maskz_loadu_pd(dmaskr, diag + dim8);
            for (std::size_t c = 0; c < nc; ++c) {
                const __m512d v0 =
                    ldm(states[s0 + c] + dim8, amask);
                const __m512d q0 = _mm512_mul_pd(v0, v0);
                const __m512d z = _mm512_setzero_pd();
                const __m512d re =
                    _mm512_permutex2var_pd(q0, evenIdx(), z);
                const __m512d im =
                    _mm512_permutex2var_pd(q0, oddIdx(), z);
                acc[c] = _mm512_fmadd_pd(_mm512_add_pd(re, im), d,
                                         acc[c]);
            }
        }
        for (std::size_t c = 0; c < nc; ++c)
            out[s0 + c] = hsum8(acc[c]);
    }
}

/**
 * Pauli-string machinery shared by the single and batched kernels.
 * One step handles the aligned 4-complex group at i: the partners of
 * lanes i..i+3 all live in the group at (i ^ flip) & ~3, permuted by
 * the low two flip bits, and the per-lane sign splits into a per-group
 * scalar (high sign bits) times a fixed lane pattern (low sign bits).
 */
struct PauliCtx {
    std::size_t flip;
    std::uint64_t sign;
    __m512i perm;       // lane permutation for flip & 3
    __m512d pattern;    // ±1 lane pattern for (l ^ flip) & sign & 3
    __m512d conj_mask;  // flips imaginary signs
};

inline PauliCtx
makePauliCtx(std::uint64_t flip_mask, std::uint64_t sign_mask)
{
    PauliCtx ctx;
    ctx.flip = static_cast<std::size_t>(flip_mask);
    ctx.sign = sign_mask;
    const unsigned f3 = static_cast<unsigned>(flip_mask & 3);
    std::int64_t idx[8];
    double pat[8];
    for (unsigned l = 0; l < 4; ++l) {
        const unsigned src = l ^ f3;
        idx[2 * l] = static_cast<std::int64_t>(2 * src);
        idx[2 * l + 1] = static_cast<std::int64_t>(2 * src + 1);
        const double s =
            (__builtin_popcountll(src & sign_mask & 3) & 1) ? -1.0
                                                            : 1.0;
        pat[2 * l] = s;
        pat[2 * l + 1] = s;
    }
    ctx.perm = _mm512_setr_epi64(idx[0], idx[1], idx[2], idx[3],
                                 idx[4], idx[5], idx[6], idx[7]);
    ctx.pattern = _mm512_setr_pd(pat[0], pat[1], pat[2], pat[3],
                                 pat[4], pat[5], pat[6], pat[7]);
    ctx.conj_mask = _mm512_setr_pd(0.0, -0.0, 0.0, -0.0,
                                   0.0, -0.0, 0.0, -0.0);
    return ctx;
}

/** Group sign vector for the aligned group at i. */
inline __m512d
pauliGroupSign(const PauliCtx& ctx, std::size_t i)
{
    const std::size_t jhi = (i ^ ctx.flip) & ~std::size_t{3};
    const bool neg =
        (__builtin_popcountll(jhi & ctx.sign & ~std::uint64_t{3}) & 1)
        != 0;
    return neg ? _mm512_sub_pd(_mm512_setzero_pd(), ctx.pattern)
               : ctx.pattern;
}

/** One accumulation step for one state's aligned group at i. */
inline __m512d
pauliStep(const PauliCtx& ctx, const cplx* amps, std::size_t i,
          __m512d sv, __m512d acc, __mmask8 lanes)
{
    const __m512d vi = _mm512_xor_pd(ldm(amps + i, lanes),
                                     ctx.conj_mask);
    const std::size_t jb = (i ^ ctx.flip) & ~std::size_t{3};
    const __m512d vjg = ldm(amps + jb, lanes);
    const __m512d vj = permx8(ctx.perm, vjg);
    return _mm512_add_pd(acc,
                         _mm512_mul_pd(cmul8(vi, vj), sv));
}

double
expectationPauliAvx512(const cplx* amps, std::size_t dim,
                       std::uint64_t flip_mask, std::uint64_t sign_mask,
                       cplx phase)
{
    const PauliCtx ctx = makePauliCtx(flip_mask, sign_mask);
    __m512d acc = _mm512_setzero_pd();
    if (dim < 4) {
        // dim == 2: the flip mask fits the low lanes, so the masked
        // group step covers it — inactive lanes stay zero.
        acc = pauliStep(ctx, amps, 0, pauliGroupSign(ctx, 0), acc,
                        0x0F);
        return (phase * chsum8(acc)).real();
    }
    for (std::size_t i = 0; i < dim; i += 4)
        acc = pauliStep(ctx, amps, i, pauliGroupSign(ctx, i), acc,
                        0xFF);
    return (phase * chsum8(acc)).real();
}

void
expectationPauliBatchAvx512(const cplx* const* states, std::size_t count,
                            std::size_t dim, std::uint64_t flip_mask,
                            std::uint64_t sign_mask, cplx phase,
                            double* out)
{
    if (count == 0)
        return;
    // The group permutation and sign are shared across states; each
    // state's accumulator sees exactly the op sequence of
    // expectationPauliAvx512, so out[s] is bit-identical to the
    // single-state kernel on states[s].
    const PauliCtx ctx = makePauliCtx(flip_mask, sign_mask);
    const __mmask8 lanes = dim < 4 ? __mmask8{0x0F} : __mmask8{0xFF};
    const std::size_t step = dim < 4 ? dim : 4;
    constexpr std::size_t kChunk = 8;
    for (std::size_t s0 = 0; s0 < count; s0 += kChunk) {
        const std::size_t nc = std::min(kChunk, count - s0);
        __m512d acc[kChunk];
        std::fill(acc, acc + nc, _mm512_setzero_pd());
        for (std::size_t i = 0; i < dim; i += step) {
            const __m512d sv = pauliGroupSign(ctx, i);
            for (std::size_t c = 0; c < nc; ++c)
                acc[c] = pauliStep(ctx, states[s0 + c], i, sv, acc[c],
                                   lanes);
        }
        for (std::size_t c = 0; c < nc; ++c)
            out[s0 + c] = (phase * chsum8(acc[c])).real();
    }
}

} // namespace

namespace detail {

const KernelTable*
avx512KernelTableOrNull()
{
    static const KernelTable table = [] {
        KernelTable t;
        t.isa = KernelIsa::Avx512;
        t.matrix1q = &matrix1qAvx512;
        t.diag1q = &diag1qAvx512;
        t.cx = &cxAvx512;
        t.swapQubits = &swapQubits;
        t.phaseZZ = &phaseZZAvx512;
        t.scale = &scaleAvx512;
        t.negateMasked = &negateMaskedAvx512;
        t.flipBit = &flipBitAvx512;
        t.rotX = &rotXAvx512;
        t.rotY = &rotYAvx512;
        t.rotX2 = &rotX2Avx512;
        t.rotY2 = &rotY2Avx512;
        t.applyDiagTable = &applyDiagTableAvx512;
        t.expectationDiagonalBatch = &expectationDiagonalBatchAvx512;
        t.expectationPauli = &expectationPauliAvx512;
        t.expectationPauliBatch = &expectationPauliBatchAvx512;
        return t;
    }();
    return &table;
}

} // namespace detail
} // namespace kernels
} // namespace oscar

#else // no AVX-512 F + DQ flags

namespace oscar {
namespace kernels {
namespace detail {

const KernelTable*
avx512KernelTableOrNull()
{
    return nullptr;
}

} // namespace detail
} // namespace kernels
} // namespace oscar

#endif // __AVX512F__ && __AVX512DQ__
