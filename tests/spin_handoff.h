#pragma once

// Shared driver of the spin-then-park handoff tests (ResultTicket::get and
// MpmcQueue::pop poll for util::kSpinBudget, then park on their condvar).
// A lost wake-up hides in the seam between the two, so the producer hands
// over at delays that straddle it: at once, inside the spin, at its end,
// past it, and long after the waiter parked.

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <future>
#include <thread>

#include "util/spin_wait.h"

namespace varmor::testing {

/// Runs `rounds` handoffs. In round r, `consume(r)` runs on its own thread;
/// once it has started, this thread waits the round's delay and calls
/// `produce(r)`. The consumer must return r within 5 s. On a timeout the
/// test fails, `wake()` must unblock the stuck consumer, and the rounds stop.
template <class Consume, class Produce, class Wake>
void run_handoff_rounds(int rounds, Consume consume, Produce produce, Wake wake) {
    using clock = std::chrono::steady_clock;
    const clock::duration budget = util::kSpinBudget;
    const std::array<clock::duration, 5> delays = {
        clock::duration::zero(), budget / 2, budget, 2 * budget,
        std::chrono::milliseconds(1)};
    for (int r = 0; r < rounds; ++r) {
        const clock::duration delay = delays[static_cast<std::size_t>(r) % delays.size()];
        std::atomic<bool> started{false};
        std::future<int> consumer = std::async(std::launch::async, [&] {
            started.store(true);
            return consume(r);
        });
        while (!started.load()) std::this_thread::yield();
        const clock::time_point until = clock::now() + delay;
        while (clock::now() < until) la::simd::cpu_relax();
        produce(r);
        if (consumer.wait_for(std::chrono::seconds(5)) != std::future_status::ready) {
            ADD_FAILURE() << "lost wake-up: round " << r << ", delay "
                          << std::chrono::duration_cast<std::chrono::microseconds>(delay)
                                 .count()
                          << " us";
            wake();
            consumer.get();
            return;
        }
        ASSERT_EQ(consumer.get(), r) << "delay index " << r % delays.size();
    }
}

}  // namespace varmor::testing
