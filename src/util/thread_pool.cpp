#include "util/thread_pool.h"

#include <algorithm>
#include <cstdlib>
#include <exception>

namespace varmor::util {

namespace {

// Set while a thread is executing pool work; nested parallel sections run
// inline instead of deadlocking on the (busy) worker pool.
thread_local bool t_in_pool_section = false;

struct ProcessCountersImpl {
    std::atomic<long long> chunks{0};
    std::atomic<long long> steals{0};
    std::atomic<long long> sections{0};
    std::atomic<int> queue_high_water{0};
};

ProcessCountersImpl& process_impl() {
    static ProcessCountersImpl impl;
    return impl;
}

void raise_high_water(std::atomic<int>& hw, int depth) {
    int seen = hw.load(std::memory_order_relaxed);
    while (depth > seen &&
           !hw.compare_exchange_weak(seen, depth, std::memory_order_relaxed)) {
    }
}

}  // namespace

/// One parallel section: `nunits` work units dealt contiguously across
/// `width` per-slot queues. Claiming is the only synchronized step — a unit's
/// identity (and therefore its result slot) is fixed at deal time; stealing
/// only moves WHO runs it. Owners pop from the head of their own queue,
/// thieves pop from the tail of a victim's, so the initial contiguous order
/// survives as long as possible (cache-friendly for the chunked engines).
struct ThreadPool::Section {
    struct SlotQueue {
        Mutex m;
        int next GUARDED_BY(m) = 0;  ///< owner claims from here
        int end GUARDED_BY(m) = 0;   ///< thieves claim from here (exclusive)
    };

    explicit Section(int width, int nunits, std::function<void(int unit)> fn)
        : queues(new SlotQueue[static_cast<std::size_t>(width)]),
          width_(width),
          unit(std::move(fn)) {
        remaining.store(nunits, std::memory_order_relaxed);
        for (int w = 0; w < width; ++w) {
            const long long lo = static_cast<long long>(nunits) * w / width;
            const long long hi = static_cast<long long>(nunits) * (w + 1) / width;
            MutexLock lock(queues[w].m);
            queues[w].next = static_cast<int>(lo);
            queues[w].end = static_cast<int>(hi);
        }
    }

    /// Claim one unit for `slot`: own queue head first, then victim tails in
    /// ring order from slot+1. Returns -1 when no unclaimed unit remains;
    /// sets `stolen` when the unit came from another slot's queue.
    int claim(int slot, bool& stolen) {
        stolen = false;
        {
            MutexLock lock(queues[slot].m);
            if (queues[slot].next < queues[slot].end) return queues[slot].next++;
        }
        for (int k = 1; k < width_; ++k) {
            const int v = (slot + k) % width_;
            MutexLock lock(queues[v].m);
            if (queues[v].next < queues[v].end) {
                stolen = true;
                return --queues[v].end;
            }
        }
        return -1;
    }

    std::unique_ptr<SlotQueue[]> queues;
    int width_;
    std::function<void(int unit)> unit;
    std::atomic<int> remaining;
    Mutex m;
    CondVar done;
    std::exception_ptr error GUARDED_BY(m);
};

ThreadPool::ThreadPool(int threads)
    : threads_(std::max(1, threads)),
      slot_chunks_(new std::atomic<long long>[static_cast<std::size_t>(std::max(1, threads))]) {
    for (int w = 0; w < threads_; ++w) slot_chunks_[w].store(0, std::memory_order_relaxed);
    workers_.reserve(static_cast<std::size_t>(threads_ - 1));
    for (int i = 0; i < threads_ - 1; ++i)
        workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
    {
        MutexLock lock(mutex_);
        stop_ = true;
    }
    wake_.notify_all();
    for (std::thread& w : workers_) w.join();
}

void ThreadPool::worker_loop() {
    for (;;) {
        std::function<void()> task;
        {
            MutexLock lock(mutex_);
            while (!stop_ && tasks_.empty()) wake_.wait(mutex_);
            if (stop_ && tasks_.empty()) return;
            task = std::move(tasks_.front());
            tasks_.pop();
        }
        task();
    }
}

int ThreadPool::default_threads() {
    if (const char* env = std::getenv("VARMOR_NUM_THREADS")) {
        const int n = std::atoi(env);
        if (n >= 1) return std::min(n, 64);
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<int>(std::min(hw, 64u));
}

ThreadPool& ThreadPool::global() {
    static ThreadPool pool(default_threads());
    return pool;
}

void ThreadPool::section_worker(const std::shared_ptr<Section>& section, int slot) {
    const bool was = t_in_pool_section;
    t_in_pool_section = true;
    for (;;) {
        bool stolen = false;
        const int u = section->claim(slot, stolen);
        if (u < 0) break;
        slot_chunks_[slot].fetch_add(1, std::memory_order_relaxed);
        process_impl().chunks.fetch_add(1, std::memory_order_relaxed);
        if (stolen) {
            steals_.fetch_add(1, std::memory_order_relaxed);
            process_impl().steals.fetch_add(1, std::memory_order_relaxed);
        }
        try {
            section->unit(u);
        } catch (...) {
            MutexLock lock(section->m);
            if (!section->error) section->error = std::current_exception();
        }
        if (section->remaining.fetch_sub(1) == 1) {
            MutexLock lock(section->m);
            section->done.notify_all();
        }
    }
    t_in_pool_section = was;
}

void ThreadPool::run_section(const std::shared_ptr<Section>& section) {
    sections_.fetch_add(1, std::memory_order_relaxed);
    process_impl().sections.fetch_add(1, std::memory_order_relaxed);
    {
        // Deepest dealt queue == the imbalance the stealing scheduler starts
        // from; every queue was just dealt, so reading under each queue's own
        // lock is uncontended.
        int deepest = 0;
        for (int w = 0; w < threads_; ++w) {
            MutexLock lock(section->queues[w].m);
            deepest = std::max(deepest, section->queues[w].end - section->queues[w].next);
        }
        raise_high_water(queue_high_water_, deepest);
        raise_high_water(process_impl().queue_high_water, deepest);
    }

    {
        MutexLock lock(mutex_);
        // One claim loop per worker slot. A slot task that starts after the
        // section drained finds every queue empty and returns — `section`
        // stays alive through the captured shared_ptr either way.
        for (int slot = 1; slot < threads_; ++slot)
            tasks_.push([this, section, slot] { section_worker(section, slot); });
    }
    wake_.notify_all();
    section_worker(section, 0);  // the caller is worker slot 0

    MutexLock lock(section->m);
    while (section->remaining.load() != 0) section->done.wait(section->m);
    if (section->error) std::rethrow_exception(section->error);
}

void ThreadPool::parallel_chunks(
    int begin, int end, const std::function<void(int, int, int)>& fn) {
    const int len = end - begin;
    if (len <= 0) return;
    if (threads_ <= 1 || t_in_pool_section) {
        // Serial (or nested) execution: one chunk spanning the range — the
        // same shape run_chunks(1, ...) produces, and per-item results never
        // depend on chunk boundaries (the bit-identity contract).
        fn(0, begin, end);
        return;
    }
    const int chunks = std::min(len, threads_ * kChunksPerWorker);
    run_section(std::make_shared<Section>(
        threads_, chunks, [&fn, begin, len, chunks](int r) {
            const int b = begin + static_cast<int>(static_cast<long long>(len) * r / chunks);
            const int e =
                begin + static_cast<int>(static_cast<long long>(len) * (r + 1) / chunks);
            fn(r, b, e);
        }));
}

void ThreadPool::parallel_for(int begin, int end, const std::function<void(int)>& fn) {
    parallel_chunks(begin, end, [&fn](int, int b, int e) {
        for (int i = b; i < e; ++i) fn(i);
    });
}

void ThreadPool::run_chunks(int threads, int begin, int end,
                            const std::function<void(int, int, int)>& fn) {
    if (end <= begin) return;
    if (threads == 1) {
        fn(0, begin, end);
    } else if (threads <= 0) {
        global().parallel_chunks(begin, end, fn);
    } else {
        ThreadPool(threads).parallel_chunks(begin, end, fn);
    }
}

ThreadPool::SchedulingStats ThreadPool::scheduling_stats() const {
    SchedulingStats stats;
    stats.chunks_per_worker.resize(static_cast<std::size_t>(threads_));
    for (int w = 0; w < threads_; ++w)
        stats.chunks_per_worker[static_cast<std::size_t>(w)] =
            slot_chunks_[w].load(std::memory_order_relaxed);
    stats.steals = steals_.load(std::memory_order_relaxed);
    stats.sections = sections_.load(std::memory_order_relaxed);
    stats.queue_high_water = queue_high_water_.load(std::memory_order_relaxed);
    return stats;
}

void ThreadPool::reset_scheduling_stats() {
    for (int w = 0; w < threads_; ++w) slot_chunks_[w].store(0, std::memory_order_relaxed);
    steals_.store(0, std::memory_order_relaxed);
    sections_.store(0, std::memory_order_relaxed);
    queue_high_water_.store(0, std::memory_order_relaxed);
}

ThreadPool::ProcessCounters ThreadPool::process_counters() {
    ProcessCountersImpl& impl = process_impl();
    ProcessCounters out;
    out.chunks = impl.chunks.load(std::memory_order_relaxed);
    out.steals = impl.steals.load(std::memory_order_relaxed);
    out.sections = impl.sections.load(std::memory_order_relaxed);
    out.queue_high_water = impl.queue_high_water.load(std::memory_order_relaxed);
    return out;
}

void ThreadPool::reset_process_counters() {
    ProcessCountersImpl& impl = process_impl();
    impl.chunks.store(0, std::memory_order_relaxed);
    impl.steals.store(0, std::memory_order_relaxed);
    impl.sections.store(0, std::memory_order_relaxed);
    impl.queue_high_water.store(0, std::memory_order_relaxed);
}

}  // namespace varmor::util
