#pragma once

#include <cmath>
#include <numeric>
#include <utility>
#include <vector>

#include "la/dense.h"
#include "la/ops.h"

namespace varmor::la {

namespace detail {

/// In-place dense LU with partial pivoting on an n x n column-major buffer
/// (leading dimension n). After the call, `a` holds unit-diagonal L below
/// the diagonal and U on/above it with P*A = L*U; `perm` (length n) records
/// the row permutation (row i of the factored matrix is row perm[i] of A)
/// and the returned value is the permutation sign. Column-oriented
/// elimination: the multipliers of column k are formed contiguously (Smith
/// division for complex T, simd::div_s), then each trailing column takes
/// one streaming rank-1 update — four columns per pass so the multiplier
/// column is read once per four updates. Throws varmor::Error if A is
/// singular to working precision. The one dense LU elimination body, shared
/// by DenseLu and DenseLuWorkspace so the two stay bit-identical.
template <class T>
int lu_factor_inplace(T* a, int n, int* perm) {
    const std::size_t ld = static_cast<std::size_t>(n);
    auto col = [&](int j) { return a + static_cast<std::size_t>(j) * ld; };
    for (int i = 0; i < n; ++i) perm[i] = i;
    int sign = 1;

    for (int k = 0; k < n; ++k) {
        T* ck = col(k);
        // Partial pivoting: largest cabs1 magnitude (|re| + |im|, LAPACK's
        // izamax) in column k at/below row k; plain |x| for real T.
        int piv = k;
        double best = simd::abs1(ck[k]);
        for (int i = k + 1; i < n; ++i) {
            const double v = simd::abs1(ck[i]);
            if (v > best) { best = v; piv = i; }
        }
        check(best > 0.0, "DenseLu: matrix is numerically singular");
        if (piv != k) {
            for (int j = 0; j < n; ++j) std::swap(col(j)[k], col(j)[piv]);
            std::swap(perm[k], perm[piv]);
            sign = -sign;
        }
        const T pivot = ck[k];
        for (int i = k + 1; i < n; ++i) ck[i] = simd::div_s(ck[i], pivot);  // multipliers

        using P = simd::Pack<T>;
        constexpr int W = P::lanes;
        int j = k + 1;
        for (; j + 4 <= n; j += 4) {
            T* c0 = col(j);
            T* c1 = col(j + 1);
            T* c2 = col(j + 2);
            T* c3 = col(j + 3);
            const T u0 = c0[k], u1 = c1[k], u2 = c2[k], u3 = c3[k];
            const P v0 = P::broadcast(u0), v1 = P::broadcast(u1);
            const P v2 = P::broadcast(u2), v3 = P::broadcast(u3);
            int i = k + 1;
            for (; i + W <= n; i += W) {
                const P mv = P::load(ck + i);
                fnmadd(mv, v0, P::load(c0 + i)).store(c0 + i);
                fnmadd(mv, v1, P::load(c1 + i)).store(c1 + i);
                fnmadd(mv, v2, P::load(c2 + i)).store(c2 + i);
                fnmadd(mv, v3, P::load(c3 + i)).store(c3 + i);
            }
            for (; i < n; ++i) {
                const T m = ck[i];
                c0[i] = simd::fnmadd_s(m, u0, c0[i]);
                c1[i] = simd::fnmadd_s(m, u1, c1[i]);
                c2[i] = simd::fnmadd_s(m, u2, c2[i]);
                c3[i] = simd::fnmadd_s(m, u3, c3[i]);
            }
        }
        // Remainder columns spell the update with the SAME operand order as
        // the blocked pass (multiplier first, broadcast u second): the fused
        // complex product is not symmetric in its factors, so calling
        // fnma_n(ukj, ck, cj) here would round differently, and a column's
        // values would depend on whether it fell in a block of four or in
        // the remainder — i.e. on n, which breaks the identity-padding
        // neutrality the padded small_dense.h entry points rely on.
        for (; j < n; ++j) {
            T* cj = col(j);
            const T ukj = cj[k];
            if (ukj == T{}) continue;
            const P uv = P::broadcast(ukj);
            int i = k + 1;
            for (; i + W <= n; i += W)
                fnmadd(P::load(ck + i), uv, P::load(cj + i)).store(cj + i);
            for (; i < n; ++i) cj[i] = simd::fnmadd_s(ck[i], ukj, cj[i]);
        }
    }
    return sign;
}

/// lu_factor_inplace on a square MatrixT; `perm` is resized to n.
template <class T>
int lu_factor_inplace(MatrixT<T>& lu, std::vector<int>& perm) {
    check(lu.rows() == lu.cols(), "DenseLu: square matrix required");
    perm.resize(static_cast<std::size_t>(lu.rows()));
    return lu_factor_inplace(lu.raw().data(), lu.rows(), perm.data());
}

/// Forward/back substitution on `nrhs` right-hand sides stored column-major
/// (leading dimension = n) that already carry the row permutation. Column-
/// oriented, so the factor columns stream contiguously and are reused across
/// a block of right-hand sides while hot. Each right-hand side sees the same
/// operation sequence regardless of the block, so every caller of these
/// kernels (DenseLu, DenseLuWorkspace, single- or multi-RHS) agrees bitwise
/// with every other. NOTE: the back substitution applies updates in
/// decreasing j order, which is NOT the same floating-point order as the
/// classic row-oriented loop — agreement with pre-kernel-split results is
/// numerical, not bitwise.
template <class T>
void lu_substitute_inplace(const T* lu, int n, T* x, int nrhs) {
    const std::size_t ld = static_cast<std::size_t>(n);
    // Eight right-hand sides per pass over the factors: each RHS column is
    // still eliminated by its own fnma_n calls, so the block width only
    // changes how often the L/U columns stream through cache, never the
    // per-column arithmetic — any width gives bit-identical results.
    for (int r0 = 0; r0 < nrhs; r0 += 8) {
        const int rw = std::min(8, nrhs - r0);
        T* xs = x + static_cast<std::size_t>(r0) * ld;
        // L y = P b (unit diagonal).
        for (int j = 0; j < n; ++j) {
            const T* cj = lu + static_cast<std::size_t>(j) * ld;
            for (int r = 0; r < rw; ++r) {
                T* xr = xs + static_cast<std::size_t>(r) * ld;
                const T xj = xr[j];
                if (xj == T{}) continue;
                simd::fnma_n(n - j - 1, xj, cj + j + 1, xr + j + 1);
            }
        }
        // U x = y.
        for (int j = n - 1; j >= 0; --j) {
            const T* cj = lu + static_cast<std::size_t>(j) * ld;
            for (int r = 0; r < rw; ++r) {
                T* xr = xs + static_cast<std::size_t>(r) * ld;
                xr[j] = simd::div_s(xr[j], cj[j]);
                const T xj = xr[j];
                if (xj == T{}) continue;
                simd::fnma_n(j, xj, cj, xr);
            }
        }
    }
}

/// lu_substitute_inplace against the factors held in a MatrixT.
template <class T>
void lu_substitute_inplace(const MatrixT<T>& lu, T* x, int nrhs) {
    lu_substitute_inplace(lu.raw().data(), lu.rows(), x, nrhs);
}

/// Applies the row permutation to one column in place via gather through
/// caller scratch (n entries): x[i] <- x[perm[i]].
template <class T>
void lu_permute_inplace(const std::vector<int>& perm, T* x, std::vector<T>& scratch) {
    const int n = static_cast<int>(perm.size());
    scratch.resize(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i)
        scratch[static_cast<std::size_t>(i)] = x[perm[static_cast<std::size_t>(i)]];
    for (int i = 0; i < n; ++i) x[i] = scratch[static_cast<std::size_t>(i)];
}

}  // namespace detail

/// Dense LU factorization with partial pivoting, templated on scalar so the
/// same code solves real reduced systems and complex pencils G~ + sC~.
///
/// Invariant: after construction, P*A = L*U with unit-diagonal L stored below
/// the diagonal of lu_ and U on/above it. Factorization and substitution run
/// on the shared detail kernels, so DenseLu and DenseLuWorkspace (the
/// allocation-free batch variant below) produce bit-identical results.
template <class T>
class DenseLu {
public:
    /// Factors a square matrix. Throws varmor::Error if A is singular to
    /// working precision.
    explicit DenseLu(MatrixT<T> a) : lu_(std::move(a)) {
        sign_ = detail::lu_factor_inplace(lu_, perm_);
    }

    int size() const { return lu_.rows(); }

    /// Solves A x = b.
    VectorT<T> solve(const VectorT<T>& b) const {
        check(b.size() == size(), "DenseLu::solve: dimension mismatch");
        const int n = size();
        VectorT<T> x(n);
        for (int i = 0; i < n; ++i) x[i] = b[perm_[static_cast<std::size_t>(i)]];
        detail::lu_substitute_inplace(lu_, x.data(), 1);
        return x;
    }

    /// Solves A X = B, all columns per pass over the factors.
    MatrixT<T> solve(const MatrixT<T>& b) const {
        check(b.rows() == size(), "DenseLu::solve: dimension mismatch");
        const int n = size();
        MatrixT<T> x(b.rows(), b.cols());
        for (int j = 0; j < b.cols(); ++j) {
            const T* bj = b.col_data(j);
            T* xj = x.col_data(j);
            for (int i = 0; i < n; ++i) xj[i] = bj[perm_[static_cast<std::size_t>(i)]];
        }
        detail::lu_substitute_inplace(lu_, x.raw().data(), b.cols());
        return x;
    }

    /// Determinant (product of U's diagonal times the permutation sign).
    T determinant() const {
        T d = sign_ < 0 ? T(-1) : T(1);
        for (int i = 0; i < size(); ++i) d *= lu_(i, i);
        return d;
    }

private:
    MatrixT<T> lu_;
    std::vector<int> perm_;
    int sign_ = 1;
};

/// Workspace-based dense LU: the dense counterpart of the sparse engine's
/// refactorize-on-scratch. One instance factors thousands of matrices with
/// zero steady-state allocation — stamp() hands out the internal storage to
/// write values into, factor() (or factor_stamped()) runs the elimination in
/// place, and solve_inplace() overwrites caller storage with A^-1 B. Same
/// kernels as DenseLu, so results are bit-identical to constructing a fresh
/// DenseLu per matrix. Not thread-safe; batch drivers keep one per worker.
template <class T>
class DenseLuWorkspace {
public:
    DenseLuWorkspace() = default;

    /// Storage to stamp the next matrix into (resized to n x n, contents
    /// unspecified). Call factor_stamped() once the values are written.
    MatrixT<T>& stamp(int n) {
        check(n >= 1, "DenseLuWorkspace: need n >= 1");
        if (lu_.rows() != n || lu_.cols() != n) lu_ = MatrixT<T>(n, n);
        factored_ = false;
        return lu_;
    }

    /// Factors the matrix currently stamped into the workspace (in place, no
    /// copy). Throws varmor::Error if it is singular to working precision.
    void factor_stamped() {
        sign_ = detail::lu_factor_inplace(lu_, perm_);
        factored_ = true;
    }

    /// Copies `a` into the workspace and factors it.
    void factor(const MatrixT<T>& a) {
        check(a.rows() == a.cols(), "DenseLuWorkspace: square matrix required");
        stamp(a.rows()).raw() = a.raw();
        factor_stamped();
    }

    bool factored() const { return factored_; }
    int size() const { return lu_.rows(); }

    /// b <- A^-1 b (one right-hand side per column, in place).
    void solve_inplace(MatrixT<T>& b) {
        check(factored_, "DenseLuWorkspace::solve_inplace: no factorization");
        check(b.rows() == size(), "DenseLuWorkspace::solve_inplace: dimension mismatch");
        for (int j = 0; j < b.cols(); ++j)
            detail::lu_permute_inplace(perm_, b.col_data(j), scratch_);
        detail::lu_substitute_inplace(lu_, b.raw().data(), b.cols());
    }

    /// b <- A^-1 b for a single vector.
    void solve_inplace(VectorT<T>& b) {
        check(factored_, "DenseLuWorkspace::solve_inplace: no factorization");
        check(b.size() == size(), "DenseLuWorkspace::solve_inplace: dimension mismatch");
        detail::lu_permute_inplace(perm_, b.data(), scratch_);
        detail::lu_substitute_inplace(lu_, b.data(), 1);
    }

private:
    MatrixT<T> lu_;
    std::vector<int> perm_;
    std::vector<T> scratch_;
    int sign_ = 1;
    bool factored_ = false;
};

/// Convenience: X = A^-1 B without exposing the factorization.
template <class T>
MatrixT<T> solve_dense(const MatrixT<T>& a, const MatrixT<T>& b) {
    return DenseLu<T>(a).solve(b);
}

/// Convenience: x = A^-1 b.
template <class T>
VectorT<T> solve_dense(const MatrixT<T>& a, const VectorT<T>& b) {
    return DenseLu<T>(a).solve(b);
}

/// Dense inverse (used only on small reduced models and in tests).
template <class T>
MatrixT<T> inverse(const MatrixT<T>& a) {
    return DenseLu<T>(a).solve(MatrixT<T>::identity(a.rows()));
}

}  // namespace varmor::la
