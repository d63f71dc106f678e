#pragma once

#include <chrono>

#include "la/simd.h"  // cpu_relax: the one intrinsic spin loops need

namespace varmor::util {

/// How long a waiter polls before it parks on its condvar. A futex sleep and
/// its wake-up cost ~10-20 µs each way, several times a small ROM query's
/// whole compute; an answer that lands within the budget is picked up without
/// either. Long enough to cover a served q ~ 14 batch, short enough that an
/// idle waiter burns almost nothing before parking.
inline constexpr std::chrono::microseconds kSpinBudget{50};

/// Polls `ready()` until it returns true (returns true) or kSpinBudget has
/// elapsed (returns false). The caller then parks on its condvar as usual, so
/// the spin only ever shortens a wait; it never replaces the blocking path.
template <class Ready>
bool spin_until(Ready&& ready) {
    const auto deadline = std::chrono::steady_clock::now() + kSpinBudget;
    while (!ready()) {
        if (std::chrono::steady_clock::now() >= deadline) return false;
        la::simd::cpu_relax();
    }
    return true;
}

}  // namespace varmor::util
