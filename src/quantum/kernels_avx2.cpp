/**
 * @file
 * AVX2 + FMA kernel specializations.
 *
 * Every build compiles this translation unit with -mavx2 -mfma (see
 * oscar_simd_tu in CMakeLists.txt), and it must never be entered on a
 * CPU without those features: dispatch goes through
 * kernels::kernelTable, which checks CPUID before handing out this
 * table. Only a compiler without the flags builds the file as a stub
 * that reports "no table", and everything then runs on the scalar
 * reference.
 *
 * Layout reminder: a __m256d holds two complex<double> amplitudes as
 * [re0, im0, re1, im1]. The complex product is fused with
 * _mm256_fmaddsub_pd, so results differ from the scalar kernels by
 * rounding (never more); within this ISA every kernel is a pure
 * function of its arguments, which keeps the engine's "bit-identical
 * for a fixed ISA" contract.
 *
 * Pure permutation / sign-flip kernels (cx, swap, negateMasked,
 * flipBit) reuse the scalar implementations: they move values
 * without rounding, so vectorizing them cannot change results and
 * gains little — the hot QAOA path is matrix1q / diag1q / phaseZZ /
 * expectationDiagonal.
 */

#include "src/quantum/kernels.h"

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include <algorithm>

namespace oscar {
namespace kernels {
namespace {

inline __m256d
ld(const cplx* p)
{
    return _mm256_loadu_pd(reinterpret_cast<const double*>(p));
}

inline void
st(cplx* p, __m256d v)
{
    _mm256_storeu_pd(reinterpret_cast<double*>(p), v);
}

/** One complex constant in both 128-bit halves. */
inline __m256d
bcast(cplx c)
{
    return _mm256_setr_pd(c.real(), c.imag(), c.real(), c.imag());
}

/** Elementwise complex product of two amplitude pairs. */
inline __m256d
cmul(__m256d a, __m256d b)
{
    const __m256d br = _mm256_movedup_pd(b);      // [br0 br0 br1 br1]
    const __m256d bi = _mm256_permute_pd(b, 0xF); // [bi0 bi0 bi1 bi1]
    const __m256d as = _mm256_permute_pd(a, 0x5); // [ai0 ar0 ai1 ar1]
    // even lanes: ar*br - ai*bi, odd lanes: ai*br + ar*bi
    return _mm256_fmaddsub_pd(a, br, _mm256_mul_pd(as, bi));
}

/** Fixed-order horizontal sum: (v0 + v2) + (v1 + v3). */
inline double
hsum(__m256d v)
{
    const __m128d lo = _mm256_castpd256_pd128(v);
    const __m128d hi = _mm256_extractf128_pd(v, 1);
    const __m128d s = _mm_add_pd(lo, hi);
    return _mm_cvtsd_f64(s) + _mm_cvtsd_f64(_mm_unpackhi_pd(s, s));
}

void
matrix1qAvx2(cplx* amps, std::size_t dim, int qubit,
             const std::array<cplx, 4>& m)
{
    if (dim < 4) {
        // One pair total (1-qubit system): below the vector width.
        matrix1q(amps, dim, qubit, m);
        return;
    }
    const std::size_t stride = std::size_t{1} << qubit;
    const __m256d m00 = bcast(m[0]);
    const __m256d m01 = bcast(m[1]);
    const __m256d m10 = bcast(m[2]);
    const __m256d m11 = bcast(m[3]);
    if (stride >= 2) {
        // Pair members are stride >= 2 apart: both halves load two
        // consecutive amplitudes.
        for (std::size_t base = 0; base < dim; base += 2 * stride) {
            for (std::size_t off = 0; off < stride; off += 2) {
                cplx* p0 = amps + base + off;
                cplx* p1 = p0 + stride;
                const __m256d a0 = ld(p0);
                const __m256d a1 = ld(p1);
                st(p0, _mm256_add_pd(cmul(a0, m00), cmul(a1, m01)));
                st(p1, _mm256_add_pd(cmul(a0, m10), cmul(a1, m11)));
            }
        }
        return;
    }
    // Qubit 0: pairs are adjacent; deinterleave two pairs per step.
    for (std::size_t i = 0; i < dim; i += 4) {
        const __m256d v0 = ld(amps + i);     // [a0(p) a1(p)]
        const __m256d v1 = ld(amps + i + 2); // [a0(q) a1(q)]
        const __m256d a0 = _mm256_permute2f128_pd(v0, v1, 0x20);
        const __m256d a1 = _mm256_permute2f128_pd(v0, v1, 0x31);
        const __m256d n0 = _mm256_add_pd(cmul(a0, m00), cmul(a1, m01));
        const __m256d n1 = _mm256_add_pd(cmul(a0, m10), cmul(a1, m11));
        st(amps + i, _mm256_permute2f128_pd(n0, n1, 0x20));
        st(amps + i + 2, _mm256_permute2f128_pd(n0, n1, 0x31));
    }
}

/**
 * RX rotation, [[c, -i s], [-i s, c]]: a0' = c a0 + s rot(a1) with
 * rot(x + i y) = y - i x. rot is a lane swap plus a sign pattern, so
 * each output costs one shuffle, one multiply and one fmadd — versus
 * four cmul (20 FMA-port ops) for the generic matrix1q path. The RX
 * layer dominates QAOA suffix replay, which makes this the single
 * highest-leverage kernel in the fused plan.
 */
void
rotXAvx2(cplx* amps, std::size_t dim, int qubit, double c, double s)
{
    if (dim < 4) {
        rotX(amps, dim, qubit, c, s);
        return;
    }
    const std::size_t stride = std::size_t{1} << qubit;
    const __m256d cv = _mm256_set1_pd(c);
    const __m256d sx = _mm256_setr_pd(s, -s, s, -s);
    if (stride >= 2) {
        for (std::size_t base = 0; base < dim; base += 2 * stride) {
            for (std::size_t off = 0; off < stride; off += 2) {
                cplx* p0 = amps + base + off;
                cplx* p1 = p0 + stride;
                const __m256d a0 = ld(p0);
                const __m256d a1 = ld(p1);
                const __m256d r1 = _mm256_permute_pd(a1, 0x5);
                const __m256d r0 = _mm256_permute_pd(a0, 0x5);
                st(p0, _mm256_fmadd_pd(cv, a0, _mm256_mul_pd(sx, r1)));
                st(p1, _mm256_fmadd_pd(cv, a1, _mm256_mul_pd(sx, r0)));
            }
        }
        return;
    }
    // Qubit 0: deinterleave adjacent pairs as in matrix1qAvx2.
    for (std::size_t i = 0; i < dim; i += 4) {
        const __m256d v0 = ld(amps + i);
        const __m256d v1 = ld(amps + i + 2);
        const __m256d a0 = _mm256_permute2f128_pd(v0, v1, 0x20);
        const __m256d a1 = _mm256_permute2f128_pd(v0, v1, 0x31);
        const __m256d n0 = _mm256_fmadd_pd(
            cv, a0, _mm256_mul_pd(sx, _mm256_permute_pd(a1, 0x5)));
        const __m256d n1 = _mm256_fmadd_pd(
            cv, a1, _mm256_mul_pd(sx, _mm256_permute_pd(a0, 0x5)));
        st(amps + i, _mm256_permute2f128_pd(n0, n1, 0x20));
        st(amps + i + 2, _mm256_permute2f128_pd(n0, n1, 0x31));
    }
}

/**
 * RY rotation, [[c, -s], [s, c]]: all-real matrix, so the complex
 * update is plain componentwise arithmetic with no shuffles at all.
 */
void
rotYAvx2(cplx* amps, std::size_t dim, int qubit, double c, double s)
{
    if (dim < 4) {
        rotY(amps, dim, qubit, c, s);
        return;
    }
    const std::size_t stride = std::size_t{1} << qubit;
    const __m256d cv = _mm256_set1_pd(c);
    const __m256d sv = _mm256_set1_pd(s);
    if (stride >= 2) {
        for (std::size_t base = 0; base < dim; base += 2 * stride) {
            for (std::size_t off = 0; off < stride; off += 2) {
                cplx* p0 = amps + base + off;
                cplx* p1 = p0 + stride;
                const __m256d a0 = ld(p0);
                const __m256d a1 = ld(p1);
                st(p0, _mm256_fnmadd_pd(sv, a1, _mm256_mul_pd(cv, a0)));
                st(p1, _mm256_fmadd_pd(sv, a0, _mm256_mul_pd(cv, a1)));
            }
        }
        return;
    }
    for (std::size_t i = 0; i < dim; i += 4) {
        const __m256d v0 = ld(amps + i);
        const __m256d v1 = ld(amps + i + 2);
        const __m256d a0 = _mm256_permute2f128_pd(v0, v1, 0x20);
        const __m256d a1 = _mm256_permute2f128_pd(v0, v1, 0x31);
        const __m256d n0 =
            _mm256_fnmadd_pd(sv, a1, _mm256_mul_pd(cv, a0));
        const __m256d n1 =
            _mm256_fmadd_pd(sv, a0, _mm256_mul_pd(cv, a1));
        st(amps + i, _mm256_permute2f128_pd(n0, n1, 0x20));
        st(amps + i + 2, _mm256_permute2f128_pd(n0, n1, 0x31));
    }
}

/**
 * Pair-fused RX: one pass applying rot(qa) then rot(qb). The quartet
 * {base, base+2^qa, base+2^qb, base+2^qa+2^qb} is held in registers
 * across both steps, halving the load/store traffic that bounds the
 * single-rotation kernel. Each step issues the exact mul+fmadd
 * sequence of rotXAvx2, so the result is bit-identical to the two
 * single passes (the contract that lets the replay pair ops freely).
 * Qubit 0 needs the deinterleave path, so such pairs (and tiny
 * statevectors) fall back to two single calls.
 */
void
rotX2Avx2(cplx* amps, std::size_t dim, int qa, int qb, double ca,
          double sa, double cb, double sb)
{
    if (qa == 0 || qb == 0 || dim < 8) {
        rotXAvx2(amps, dim, qa, ca, sa);
        rotXAvx2(amps, dim, qb, cb, sb);
        return;
    }
    const std::size_t stra = std::size_t{1} << qa;
    const std::size_t strb = std::size_t{1} << qb;
    const std::size_t slo = std::min(stra, strb);
    const std::size_t shi = std::max(stra, strb);
    const __m256d cva = _mm256_set1_pd(ca);
    const __m256d sxa = _mm256_setr_pd(sa, -sa, sa, -sa);
    const __m256d cvb = _mm256_set1_pd(cb);
    const __m256d sxb = _mm256_setr_pd(sb, -sb, sb, -sb);
    for (std::size_t hi = 0; hi < dim; hi += 2 * shi)
        for (std::size_t mid = 0; mid < shi; mid += 2 * slo)
            for (std::size_t off = 0; off < slo; off += 2) {
                cplx* p00 = amps + hi + mid + off;
                cplx* pa = p00 + stra;  // qa partner of base
                cplx* pb = p00 + strb;  // qb partner of base
                cplx* pab = p00 + stra + strb;
                const __m256d a00 = ld(p00), aa = ld(pa), ab = ld(pb),
                              aab = ld(pab);
                // step A: rot(qa) on pairs (base, +stra) and (+strb,
                // +stra+strb)
                const __m256d n00 = _mm256_fmadd_pd(
                    cva, a00,
                    _mm256_mul_pd(sxa, _mm256_permute_pd(aa, 0x5)));
                const __m256d na = _mm256_fmadd_pd(
                    cva, aa,
                    _mm256_mul_pd(sxa, _mm256_permute_pd(a00, 0x5)));
                const __m256d nb = _mm256_fmadd_pd(
                    cva, ab,
                    _mm256_mul_pd(sxa, _mm256_permute_pd(aab, 0x5)));
                const __m256d nab = _mm256_fmadd_pd(
                    cva, aab,
                    _mm256_mul_pd(sxa, _mm256_permute_pd(ab, 0x5)));
                // step B: rot(qb) on pairs (base, +strb) and (+stra,
                // +stra+strb)
                st(p00, _mm256_fmadd_pd(
                            cvb, n00,
                            _mm256_mul_pd(
                                sxb, _mm256_permute_pd(nb, 0x5))));
                st(pb, _mm256_fmadd_pd(
                           cvb, nb,
                           _mm256_mul_pd(
                               sxb, _mm256_permute_pd(n00, 0x5))));
                st(pa, _mm256_fmadd_pd(
                           cvb, na,
                           _mm256_mul_pd(
                               sxb, _mm256_permute_pd(nab, 0x5))));
                st(pab, _mm256_fmadd_pd(
                            cvb, nab,
                            _mm256_mul_pd(
                                sxb, _mm256_permute_pd(na, 0x5))));
            }
}

/** Pair-fused RY; same structure and contract as rotX2Avx2. */
void
rotY2Avx2(cplx* amps, std::size_t dim, int qa, int qb, double ca,
          double sa, double cb, double sb)
{
    if (qa == 0 || qb == 0 || dim < 8) {
        rotYAvx2(amps, dim, qa, ca, sa);
        rotYAvx2(amps, dim, qb, cb, sb);
        return;
    }
    const std::size_t stra = std::size_t{1} << qa;
    const std::size_t strb = std::size_t{1} << qb;
    const std::size_t slo = std::min(stra, strb);
    const std::size_t shi = std::max(stra, strb);
    const __m256d cva = _mm256_set1_pd(ca);
    const __m256d sva = _mm256_set1_pd(sa);
    const __m256d cvb = _mm256_set1_pd(cb);
    const __m256d svb = _mm256_set1_pd(sb);
    for (std::size_t hi = 0; hi < dim; hi += 2 * shi)
        for (std::size_t mid = 0; mid < shi; mid += 2 * slo)
            for (std::size_t off = 0; off < slo; off += 2) {
                cplx* p00 = amps + hi + mid + off;
                cplx* pa = p00 + stra;
                cplx* pb = p00 + strb;
                cplx* pab = p00 + stra + strb;
                const __m256d a00 = ld(p00), aa = ld(pa), ab = ld(pb),
                              aab = ld(pab);
                const __m256d n00 =
                    _mm256_fnmadd_pd(sva, aa, _mm256_mul_pd(cva, a00));
                const __m256d na =
                    _mm256_fmadd_pd(sva, a00, _mm256_mul_pd(cva, aa));
                const __m256d nb =
                    _mm256_fnmadd_pd(sva, aab, _mm256_mul_pd(cva, ab));
                const __m256d nab =
                    _mm256_fmadd_pd(sva, ab, _mm256_mul_pd(cva, aab));
                st(p00,
                   _mm256_fnmadd_pd(svb, nb, _mm256_mul_pd(cvb, n00)));
                st(pb,
                   _mm256_fmadd_pd(svb, n00, _mm256_mul_pd(cvb, nb)));
                st(pa,
                   _mm256_fnmadd_pd(svb, nab, _mm256_mul_pd(cvb, na)));
                st(pab,
                   _mm256_fmadd_pd(svb, na, _mm256_mul_pd(cvb, nab)));
            }
}

void
applyDiagTableAvx2(cplx* amps, std::size_t dim, const cplx* table)
{
    // dim is a power of two >= 2, so pairs tile it exactly.
    for (std::size_t i = 0; i < dim; i += 2)
        st(amps + i, cmul(ld(amps + i), ld(table + i)));
}

void
diag1qAvx2(cplx* amps, std::size_t dim, int qubit, cplx phase0,
           cplx phase1)
{
    const std::size_t stride = std::size_t{1} << qubit;
    if (stride == 1) {
        const __m256d pv = _mm256_setr_pd(phase0.real(), phase0.imag(),
                                          phase1.real(), phase1.imag());
        for (std::size_t i = 0; i < dim; i += 2)
            st(amps + i, cmul(ld(amps + i), pv));
        return;
    }
    const __m256d p0 = bcast(phase0);
    const __m256d p1 = bcast(phase1);
    for (std::size_t base = 0; base < dim; base += 2 * stride) {
        for (std::size_t off = 0; off < stride; off += 2) {
            cplx* lo = amps + base + off;
            cplx* hi = lo + stride;
            st(lo, cmul(ld(lo), p0));
            st(hi, cmul(ld(hi), p1));
        }
    }
}

void
scaleAvx2(cplx* amps, std::size_t dim, cplx factor)
{
    const __m256d f = bcast(factor);
    for (std::size_t i = 0; i < dim; i += 2)
        st(amps + i, cmul(ld(amps + i), f));
}

void
phaseZZAvx2(cplx* amps, std::size_t dim, int a, int b, cplx same,
            cplx diff)
{
    // Split on the higher qubit: within each half the high bit is
    // fixed, and the low qubit selects agree/differ — exactly a
    // diagonal 1q pass with the phase pair oriented by the high bit.
    const int lo = std::min(a, b);
    const int hi = std::max(a, b);
    const std::size_t hs = std::size_t{1} << hi;
    for (std::size_t base = 0; base < dim; base += 2 * hs) {
        diag1qAvx2(amps + base, hs, lo, same, diff);
        diag1qAvx2(amps + base + hs, hs, lo, diff, same);
    }
}

void
expectationDiagonalBatchAvx2(const cplx* const* states, std::size_t count,
                             const double* diag, std::size_t dim,
                             double* out)
{
    if (dim < 4 || count == 0) {
        expectationDiagonalBatch(states, count, diag, dim, out);
        return;
    }
    // Per-state lane accumulators, processed in register-resident
    // chunks. The per-state sequence of fmadds (and the final
    // horizontal sum) does not depend on count or chunking, so a
    // batch of one is bit-identical to the batched evaluation of the
    // same state inside any group.
    constexpr std::size_t kChunk = 8;
    for (std::size_t s0 = 0; s0 < count; s0 += kChunk) {
        const std::size_t nc = std::min(kChunk, count - s0);
        __m256d acc[kChunk];
        std::fill(acc, acc + nc, _mm256_setzero_pd());
        for (std::size_t i = 0; i < dim; i += 4) {
            const __m256d d = _mm256_loadu_pd(diag + i);
            // [d0 d2 d1 d3], matching the hadd lane order below.
            const __m256d dp =
                _mm256_permute4x64_pd(d, _MM_SHUFFLE(3, 1, 2, 0));
            for (std::size_t c = 0; c < nc; ++c) {
                const double* p =
                    reinterpret_cast<const double*>(states[s0 + c] + i);
                const __m256d v0 = _mm256_loadu_pd(p);
                const __m256d v1 = _mm256_loadu_pd(p + 4);
                const __m256d q0 = _mm256_mul_pd(v0, v0);
                const __m256d q1 = _mm256_mul_pd(v1, v1);
                // [|a0|^2 |a2|^2 |a1|^2 |a3|^2]
                const __m256d n = _mm256_hadd_pd(q0, q1);
                acc[c] = _mm256_fmadd_pd(n, dp, acc[c]);
            }
        }
        for (std::size_t c = 0; c < nc; ++c)
            out[s0 + c] = hsum(acc[c]);
    }
}

/**
 * General Pauli-string expectation. One iteration handles the
 * amplitude pair (i, i+1), i even: the partner indices are
 * j0 = i ^ flip and j1 = j0 ^ 1, so the partner pair lives in the two
 * complexes at (j0 & ~1) -- in order when flip has bit 0 clear,
 * half-swapped when set. The per-lane sign needs one popcount per
 * pair: lane 1's parity differs from lane 0's exactly by bit 0 of the
 * sign mask. The constant phase (i^numY) multiplies the accumulated
 * sum once at the end, matching the scalar kernel's order of
 * operations in structure (though not bit for bit -- cross-ISA
 * comparisons stay tolerance-based).
 */
double
expectationPauliAvx2(const cplx* amps, std::size_t dim,
                     std::uint64_t flip_mask, std::uint64_t sign_mask,
                     cplx phase)
{
    if (dim < 4)
        return expectationPauli(amps, dim, flip_mask, sign_mask, phase);
    const std::size_t flip = static_cast<std::size_t>(flip_mask);
    const bool flip_low = (flip & 1) != 0;
    const bool sign_low = (sign_mask & 1) != 0;
    const __m256d conj_mask =
        _mm256_setr_pd(0.0, -0.0, 0.0, -0.0); // xor flips imag signs
    __m256d acc = _mm256_setzero_pd();
    for (std::size_t i = 0; i < dim; i += 2) {
        const __m256d vi =
            _mm256_xor_pd(ld(amps + i), conj_mask); // conj pair
        const std::size_t j0 = i ^ flip;
        __m256d vj = ld(amps + (j0 & ~std::size_t{1}));
        if (flip_low) // partner pair arrives half-swapped
            vj = _mm256_permute2f128_pd(vj, vj, 0x01);
        const double s0 =
            (__builtin_popcountll(j0 & sign_mask) & 1) ? -1.0 : 1.0;
        const double s1 = sign_low ? -s0 : s0;
        const __m256d sv = _mm256_setr_pd(s0, s0, s1, s1);
        acc = _mm256_add_pd(acc, _mm256_mul_pd(cmul(vi, vj), sv));
    }
    // Complex horizontal sum: lane pair 0 + lane pair 1.
    const __m128d lo = _mm256_castpd256_pd128(acc);
    const __m128d hi = _mm256_extractf128_pd(acc, 1);
    const __m128d c = _mm_add_pd(lo, hi);
    const cplx total(_mm_cvtsd_f64(c),
                     _mm_cvtsd_f64(_mm_unpackhi_pd(c, c)));
    return (phase * total).real();
}

/**
 * Batched Pauli expectation: the partner index, half-swap decision and
 * sign vector are computed once per amplitude pair and shared across
 * all states in the chunk. Each state's accumulator sees exactly the
 * operation sequence of expectationPauliAvx2 above, so out[s] is
 * bit-identical to the single-state kernel on states[s].
 */
void
expectationPauliBatchAvx2(const cplx* const* states, std::size_t count,
                          std::size_t dim, std::uint64_t flip_mask,
                          std::uint64_t sign_mask, cplx phase,
                          double* out)
{
    if (dim < 4 || count == 0) {
        // The single-state kernel also falls back to scalar below the
        // vector width, so delegating the whole batch keeps bitwise
        // agreement with it.
        expectationPauliBatch(states, count, dim, flip_mask, sign_mask,
                              phase, out);
        return;
    }
    const std::size_t flip = static_cast<std::size_t>(flip_mask);
    const bool flip_low = (flip & 1) != 0;
    const bool sign_low = (sign_mask & 1) != 0;
    const __m256d conj_mask = _mm256_setr_pd(0.0, -0.0, 0.0, -0.0);
    constexpr std::size_t kChunk = 8;
    for (std::size_t s0 = 0; s0 < count; s0 += kChunk) {
        const std::size_t nc = std::min(kChunk, count - s0);
        __m256d acc[kChunk];
        std::fill(acc, acc + nc, _mm256_setzero_pd());
        for (std::size_t i = 0; i < dim; i += 2) {
            const std::size_t j0 = i ^ flip;
            const std::size_t jbase = j0 & ~std::size_t{1};
            const double sg0 =
                (__builtin_popcountll(j0 & sign_mask) & 1) ? -1.0 : 1.0;
            const double sg1 = sign_low ? -sg0 : sg0;
            const __m256d sv = _mm256_setr_pd(sg0, sg0, sg1, sg1);
            for (std::size_t c = 0; c < nc; ++c) {
                const cplx* amps = states[s0 + c];
                const __m256d vi =
                    _mm256_xor_pd(ld(amps + i), conj_mask);
                __m256d vj = ld(amps + jbase);
                if (flip_low)
                    vj = _mm256_permute2f128_pd(vj, vj, 0x01);
                acc[c] = _mm256_add_pd(
                    acc[c], _mm256_mul_pd(cmul(vi, vj), sv));
            }
        }
        for (std::size_t c = 0; c < nc; ++c) {
            const __m128d lo = _mm256_castpd256_pd128(acc[c]);
            const __m128d hi = _mm256_extractf128_pd(acc[c], 1);
            const __m128d cc = _mm_add_pd(lo, hi);
            const cplx total(_mm_cvtsd_f64(cc),
                             _mm_cvtsd_f64(_mm_unpackhi_pd(cc, cc)));
            out[s0 + c] = (phase * total).real();
        }
    }
}

} // namespace

namespace detail {

const KernelTable*
avx2KernelTableOrNull()
{
    static const KernelTable table = [] {
        KernelTable t;
        t.isa = KernelIsa::Avx2;
        t.matrix1q = &matrix1qAvx2;
        t.diag1q = &diag1qAvx2;
        t.cx = &cx;
        t.swapQubits = &swapQubits;
        t.phaseZZ = &phaseZZAvx2;
        t.scale = &scaleAvx2;
        t.negateMasked = &negateMasked;
        t.flipBit = &flipBit;
        t.rotX = &rotXAvx2;
        t.rotY = &rotYAvx2;
        t.rotX2 = &rotX2Avx2;
        t.rotY2 = &rotY2Avx2;
        t.applyDiagTable = &applyDiagTableAvx2;
        t.expectationDiagonalBatch = &expectationDiagonalBatchAvx2;
        t.expectationPauli = &expectationPauliAvx2;
        t.expectationPauliBatch = &expectationPauliBatchAvx2;
        return t;
    }();
    return &table;
}

} // namespace detail
} // namespace kernels
} // namespace oscar

#else // no AVX2 + FMA flags

namespace oscar {
namespace kernels {
namespace detail {

const KernelTable*
avx2KernelTableOrNull()
{
    return nullptr;
}

} // namespace detail
} // namespace kernels
} // namespace oscar

#endif // __AVX2__ && __FMA__
