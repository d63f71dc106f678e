#pragma once

/// Fixed-size entry points to the generic dense complex LU, kept ONLY for
/// the frozen perfbench program, whose `la.small_lu_ns` row times them at
/// the q = 14 ROM's padded size. Nothing in src/ includes this header: the
/// direct lane of mor::RomEvalEngine factors the bare q x q pencil through
/// DenseLuWorkspace. Delete the header with the next change to the
/// benchmark.
///
/// Both entry points forward to the detail:: kernels of la/lu_dense.h on an
/// N x N column-major buffer. Identity padding of a q x q pencil,
///
///     K_N = [ K  0 ]
///           [ 0  I ]
///
/// is exactly neutral for that kernel: the padded rows hold exact zeros in
/// the first q columns, the strict `>` pivot scan never selects them, and
/// zero-padded right-hand-side rows stay zero through both substitutions.

#include "la/lu_dense.h"

namespace varmor::la {

/// The multiple of four a q x q pencil is identity-padded to.
constexpr int small_padded_size(int q) { return ((q + 3) / 4) * 4; }

/// In-place LU with partial pivoting on an N x N column-major buffer;
/// `perm` (length N) receives the row permutation. Throws varmor::Error when
/// singular to working precision.
template <int N>
void small_lu_factor(cplx* a, int* perm) {
    detail::lu_factor_inplace(a, N, perm);
}

/// Forward/back substitution on `nrhs` right-hand sides (leading dimension
/// N) that already carry the row permutation.
template <int N>
void small_lu_substitute(const cplx* a, cplx* x, int nrhs) {
    detail::lu_substitute_inplace(a, N, x, nrhs);
}

}  // namespace varmor::la
