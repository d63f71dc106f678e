#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <deque>
#include <optional>
#include <utility>

#include "util/check.h"
#include "util/spin_wait.h"
#include "util/thread_annotations.h"

namespace varmor::util {

/// Outcome of a non-blocking enqueue attempt — admission control's verdict,
/// reported as data instead of an exception so a producer racing shutdown or
/// a traffic spike gets a value it can turn into a cleanly failed future.
enum class PushStatus {
    kOk,      ///< item enqueued
    kFull,    ///< bounded queue at capacity — shed the work
    kClosed,  ///< queue closed — the service is tearing down
};

/// Bounded-complexity multi-producer/multi-consumer blocking queue: the
/// ingress lane of the serving layer. Many logical clients push queries
/// concurrently; the batcher's serving threads drain them in arrival order
/// (the lock serializes pushes, so "arrival order" is well defined) and apply
/// their size/deadline coalescing policy via pop_until().
///
/// A non-zero `capacity` bounds the backlog: try_push reports kFull once
/// `capacity` items are pending, which is the admission-control half of the
/// serving layer's overload story (shed at ingress with a failed future,
/// never an unbounded queue that converts overload into unbounded latency).
///
/// close() ends the stream: pending items remain poppable (consumers drain
/// the tail), further pushes report kClosed (try_push) or throw (push), and
/// once the queue is empty every blocked pop returns std::nullopt.
/// Destruction does not require close(); the owner is responsible for
/// joining its consumers first.
template <class T>
class MpmcQueue {
public:
    /// capacity = 0: unbounded (try_push never reports kFull).
    explicit MpmcQueue(std::size_t capacity = 0) : capacity_(capacity) {}
    MpmcQueue(const MpmcQueue&) = delete;
    MpmcQueue& operator=(const MpmcQueue&) = delete;

    /// Non-blocking, non-throwing enqueue: moves from `item` ONLY on kOk (on
    /// kFull/kClosed the caller keeps it, promise and all, to fail cleanly).
    /// `force` bypasses the capacity bound but not close() — for control
    /// markers (flush acks) that must never be shed by admission control.
    PushStatus try_push(T& item, bool force = false) EXCLUDES(mutex_) {
        {
            MutexLock lock(mutex_);
            if (closed_) return PushStatus::kClosed;
            if (!force && capacity_ != 0 && items_.size() >= capacity_)
                return PushStatus::kFull;
            items_.push_back(std::move(item));
            nonempty_.store(true, std::memory_order_relaxed);
        }
        ready_.notify_one();
        return PushStatus::kOk;
    }

    /// Throwing convenience enqueue (varmor::Error on a closed or full
    /// queue). Serving paths use try_push — a client must get a failed
    /// future, not an exception out of submit.
    void push(T item) EXCLUDES(mutex_) {
        switch (try_push(item)) {
            case PushStatus::kOk:
                return;
            case PushStatus::kFull:
                throw Error("MpmcQueue: push on full queue");
            case PushStatus::kClosed:
                throw Error("MpmcQueue: push on closed queue");
        }
    }

    /// Blocks until an item is available (returns it) or the queue is closed
    /// AND drained (returns std::nullopt).
    ///
    /// `spin` = poll the non-empty flag for up to util::kSpinBudget before
    /// parking, for a consumer that expects more work soon (a server that has
    /// just served a batch): an item pushed within the budget is taken without
    /// a futex sleep and wake-up. A cold consumer passes false and parks at
    /// once, so an idle queue costs no CPU.
    std::optional<T> pop(bool spin = false) EXCLUDES(mutex_) {
        if (spin) spin_until([this] { return nonempty_.load(std::memory_order_relaxed); });
        MutexLock lock(mutex_);
        while (items_.empty() && !closed_) ready_.wait(mutex_);
        return take_locked();
    }

    /// Non-blocking pop.
    std::optional<T> try_pop() EXCLUDES(mutex_) {
        MutexLock lock(mutex_);
        if (items_.empty()) return std::nullopt;
        return take_unchecked();
    }

    /// Blocks until an item is available, the deadline passes, or the queue
    /// is closed and drained. std::nullopt means "no item by the deadline" —
    /// the batcher's cue to flush what it has collected so far.
    ///
    /// An expired deadline never blocks: the call takes what is queued (or
    /// returns std::nullopt) without entering a timed wait, so a zero-length
    /// collect window is a plain drain. A timed futex wait whose deadline
    /// passed less than the thread's timer slack ago (50 µs by default on
    /// Linux) still sleeps out the slack: several times a small query's
    /// whole compute.
    template <class Clock, class Duration>
    std::optional<T> pop_until(const std::chrono::time_point<Clock, Duration>& deadline)
        EXCLUDES(mutex_) {
        MutexLock lock(mutex_);
        while (items_.empty() && !closed_) {
            if (Clock::now() >= deadline ||
                ready_.wait_until(mutex_, deadline) == std::cv_status::timeout)
                break;  // take_locked re-checks: an item may have landed
                        // exactly at the deadline
        }
        return take_locked();
    }

    /// Ends the stream (idempotent); wakes every blocked consumer.
    void close() EXCLUDES(mutex_) {
        {
            MutexLock lock(mutex_);
            closed_ = true;
        }
        ready_.notify_all();
    }

    bool closed() const EXCLUDES(mutex_) {
        MutexLock lock(mutex_);
        return closed_;
    }

    std::size_t size() const EXCLUDES(mutex_) {
        MutexLock lock(mutex_);
        return items_.size();
    }

    std::size_t capacity() const { return capacity_; }

private:
    std::optional<T> take_locked() REQUIRES(mutex_) {
        if (items_.empty()) return std::nullopt;  // woken by close()
        return take_unchecked();
    }

    std::optional<T> take_unchecked() REQUIRES(mutex_) {
        std::optional<T> out(std::move(items_.front()));
        items_.pop_front();
        if (items_.empty()) nonempty_.store(false, std::memory_order_relaxed);
        return out;
    }

    std::size_t capacity_ = 0;
    mutable Mutex mutex_;
    CondVar ready_;
    std::deque<T> items_ GUARDED_BY(mutex_);
    bool closed_ GUARDED_BY(mutex_) = false;
    /// !items_.empty(), written under mutex_ and read lock-free by a spinning
    /// pop(). Only a hint: the spinner re-checks items_ under the lock.
    std::atomic<bool> nonempty_{false};
};

}  // namespace varmor::util
