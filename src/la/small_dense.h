#pragma once

/// Compile-time fixed-size complex LU kernels for the q < kDirectPathOrder
/// direct fast lane of the ROM evaluator. The q x q pencil is padded to
/// N = round-up-to-4(q) with an identity block:
///
///     K_N = [ K  0 ]        N in {4, 8, 12, 16, 20}
///           [ 0  I ]
///
/// which is exactly neutral for partial-pivoted LU: the padded rows hold
/// exact zeros in the first q columns, the strict `>` pivot scan never
/// selects them, the identity columns eliminate trivially, and zero-padded
/// right-hand-side rows stay zero through both substitutions. Every loop
/// bound is the template constant, so the compiler fully unrolls the column
/// kernels, and every column has a pack-aligned length with no remainders.
///
/// The per-element arithmetic mirrors detail::lu_factor_inplace /
/// lu_substitute_inplace on the simd layer (same pivot scan, same division,
/// same fused update semantics), so within a build arm the fixed-size lane
/// is bitwise the generic kernel on the embedded q x q block — the
/// loop-vs-grid and small-vs-generic contracts hold with no tolerance. Like
/// the Hessenberg solve, both twins pick pivots by cabs1 (simd::abs1, the
/// |re| + |im| of LAPACK's zgetf2/izamax) and divide by Smith's algorithm
/// (simd::div_s), so no pivot or quotient calls into libm (hypot,
/// __divdc3).

#include <cmath>
#include <type_traits>
#include <utility>

#include "la/dense.h"
#include "la/simd.h"

namespace varmor::la {

/// The padded size the fixed-size lane would use for reduced order q.
constexpr int small_padded_size(int q) { return ((q + 3) / 4) * 4; }

/// Largest padded size with a fixed-size instantiation (matches
/// RomEvalEngine::kDirectPathOrder).
constexpr int kSmallLuMaxSize = 20;

/// In-place LU with partial pivoting on an N x N column-major buffer.
/// `perm` (length N) receives the row permutation (row i of the factored
/// matrix is row perm[i] of the input). Throws varmor::Error when singular
/// to working precision.
template <int N>
void small_lu_factor(cplx* a, int* perm) {
    static_assert(N % 4 == 0 && N >= 4 && N <= kSmallLuMaxSize,
                  "small_lu_factor: unsupported padded size");
    using P = simd::Pack<cplx>;
    constexpr int W = P::lanes;
    for (int i = 0; i < N; ++i) perm[i] = i;
    for (int k = 0; k < N; ++k) {
        cplx* ck = a + static_cast<std::size_t>(k) * N;
        int piv = k;
        double best = simd::abs1(ck[k]);
        for (int i = k + 1; i < N; ++i) {
            const double v = simd::abs1(ck[i]);
            if (v > best) { best = v; piv = i; }
        }
        check(best > 0.0, "DenseLu: matrix is numerically singular");
        if (piv != k) {
            for (int j = 0; j < N; ++j)
                std::swap(a[k + static_cast<std::size_t>(j) * N],
                          a[piv + static_cast<std::size_t>(j) * N]);
            std::swap(perm[k], perm[piv]);
        }
        const cplx pivot = ck[k];
        for (int i = k + 1; i < N; ++i) ck[i] = simd::div_s(ck[i], pivot);  // multipliers
        for (int j = k + 1; j < N; ++j) {
            cplx* cj = a + static_cast<std::size_t>(j) * N;
            const cplx ukj = cj[k];
            if (ukj == cplx{}) continue;  // keeps identity-padding columns exact
            const P uv = P::broadcast(ukj);
            int i = k + 1;
            for (; (i % W) != 0; ++i) cj[i] = simd::fnmadd_s(ck[i], ukj, cj[i]);
            for (; i < N; i += W)
                fnmadd(P::load(ck + i), uv, P::load(cj + i)).store(cj + i);
        }
    }
}

/// Forward/back substitution on `nrhs` right-hand sides stored column-major
/// with leading dimension N that already carry the row permutation — the
/// fixed-size twin of detail::lu_substitute_inplace.
template <int N>
void small_lu_substitute(const cplx* a, cplx* x, int nrhs) {
    static_assert(N % 4 == 0 && N >= 4 && N <= kSmallLuMaxSize,
                  "small_lu_substitute: unsupported padded size");
    for (int r = 0; r < nrhs; ++r) {
        cplx* xr = x + static_cast<std::size_t>(r) * N;
        // L y = P b (unit diagonal).
        for (int j = 0; j < N; ++j) {
            const cplx* cj = a + static_cast<std::size_t>(j) * N;
            const cplx xj = xr[j];
            if (xj == cplx{}) continue;
            simd::fnma_n(N - j - 1, xj, cj + j + 1, xr + j + 1);
        }
        // U x = y.
        for (int j = N - 1; j >= 0; --j) {
            const cplx* cj = a + static_cast<std::size_t>(j) * N;
            xr[j] = simd::div_s(xr[j], cj[j]);
            const cplx xj = xr[j];
            if (xj == cplx{}) continue;
            simd::fnma_n(j, xj, cj, xr);
        }
    }
}

/// Invokes f(std::integral_constant<int, N>{}) with the padded size for q.
/// Returns false (without calling f) when q exceeds the fixed-size range.
template <class F>
bool small_lu_dispatch(int q, F&& f) {
    switch (small_padded_size(q)) {
        case 4: f(std::integral_constant<int, 4>{}); return true;
        case 8: f(std::integral_constant<int, 8>{}); return true;
        case 12: f(std::integral_constant<int, 12>{}); return true;
        case 16: f(std::integral_constant<int, 16>{}); return true;
        case 20: f(std::integral_constant<int, 20>{}); return true;
        default: return false;
    }
}

}  // namespace varmor::la
