#include "service/query_batcher.h"

#include <algorithm>
#include <chrono>
#include <string>
#include <type_traits>
#include <utility>

#include "util/check.h"
#include "util/fault_injection.h"
#include "util/thread_pool.h"

namespace varmor::service {

namespace {

/// Pending queries sharing one parameter point: the engines amortize the
/// per-sample work (stamp + Hessenberg preparation) across the group.
template <class ItemT>
struct Group {
    const std::vector<double>* p = nullptr;
    std::vector<ItemT*> items;  ///< arrival order within the group
};

/// Groups items by EXACT parameter vector, first-seen order. Exact equality
/// is deliberate: near-equal points must not alias (their answers differ),
/// and grouping affects only amortization, never results.
template <class ItemT>
std::vector<Group<ItemT>> group_by_point(std::vector<ItemT>& items) {
    std::vector<Group<ItemT>> groups;
    for (ItemT& item : items) {
        Group<ItemT>* hit = nullptr;
        for (Group<ItemT>& g : groups)
            if (*g.p == item.p) {
                hit = &g;
                break;
            }
        if (!hit) {
            groups.push_back(Group<ItemT>{&item.p, {}});
            hit = &groups.back();
        }
        hit->items.push_back(&item);
    }
    return groups;
}

std::string point_detail(const std::vector<double>& p) {
    return p.empty() ? std::string() : std::to_string(p[0]);
}

/// Splits `n` lane units into contiguous [b, e) chunks for the combined
/// task set and calls `f(b, e)` per chunk (none when n == 0). The chunk
/// count mirrors the pool's own oversubscription so the work-stealing
/// scheduler has slack to interleave lanes, without one task per unit.
template <class F>
void for_each_chunk(int n, int threads, F&& f) {
    const int width = threads == 1
                          ? 1
                          : (threads > 1 ? threads : util::ThreadPool::global().size());
    const int chunks =
        std::min(n, std::max(1, width * util::ThreadPool::kChunksPerWorker));
    for (int c = 0; c < chunks; ++c)
        f(static_cast<int>(static_cast<long long>(n) * c / chunks),
          static_cast<int>(static_cast<long long>(n) * (c + 1) / chunks));
}

void bump(std::atomic<long>& counter, long n = 1) {
    counter.fetch_add(n, std::memory_order_relaxed);
}

}  // namespace

QueryBatcher::QueryBatcher(const mor::RomEvalEngine* engine, QueryFallbacks fallbacks,
                           const analysis::TransientBatchRunner* transient,
                           analysis::InputFn input, double delay_level,
                           int observe_port, const QueryBatcherOptions& opts)
    : engine_(engine),
      fallbacks_(std::move(fallbacks)),
      transient_(transient),
      input_(std::move(input)),
      level_(delay_level),
      opts_(opts),
      queue_(static_cast<std::size_t>(std::max(0, opts.max_pending))),
      lanes_(TransferLane("transfer",
                          obs::Registry::global().histogram("transfer.latency_ns")),
             DelayLane("delay", obs::Registry::global().histogram("delay.latency_ns")),
             PoleLane("pole", obs::Registry::global().histogram("pole.latency_ns"))),
      obs_queue_wait_(obs::Registry::global().histogram("query.queue_wait_ns")),
      obs_stamp_(obs::Registry::global().histogram("query.stamp_ns")),
      obs_solve_(obs::Registry::global().histogram("query.solve_ns")),
      obs_fulfil_(obs::Registry::global().histogram("query.fulfil_ns")) {
    check(opts_.max_batch >= 1, "QueryBatcher: max_batch must be >= 1");
    check(opts_.max_wait_ms >= 0.0, "QueryBatcher: max_wait_ms must be >= 0");
    check(opts_.max_pending >= 0, "QueryBatcher: max_pending must be >= 0");
    check(engine_ != nullptr || fallbacks_.transfer || fallbacks_.poles,
          "QueryBatcher: no engine and no fallback paths");
    if (transient_) {
        observe_ = observe_port < 0 ? transient_->num_ports() - 1 : observe_port;
        check(observe_ >= 0 && observe_ < transient_->num_ports(),
              "QueryBatcher: observe_port out of range");
        check(static_cast<bool>(input_), "QueryBatcher: delay serving needs an input");
    }
    flusher_ = std::thread([this] { flusher_loop(); });
}

QueryBatcher::QueryBatcher(const mor::RomEvalEngine& engine,
                           const analysis::TransientBatchRunner* transient,
                           analysis::InputFn input, double delay_level,
                           int observe_port, const QueryBatcherOptions& opts)
    : QueryBatcher(&engine, QueryFallbacks{}, transient, std::move(input),
                   delay_level, observe_port, opts) {}

QueryBatcher::~QueryBatcher() { close(); }

void QueryBatcher::close() {
    queue_.close();  // flusher drains the tail, then exits
    util::MutexLock lock(close_mutex_);
    if (flusher_.joinable()) flusher_.join();
}

template <class Arg, class Result>
Future<Result> QueryBatcher::admit(Query<Arg, Result> query) {
    util::ResultSlab<Result>& slab = lane_of(query).slab;
    auto opened = slab.open();
    query.result = opened.first;
    // The query's trace is born HERE, on the submitting thread: the mint
    // stamps submit time, and every later stage appends to this one object
    // as it rides through triage and the flush lanes. Inactive (id 0, no
    // clock read) when telemetry is off.
    query.trace = obs::QueryTrace::mint();
    if (query.deadline.expired()) {
        bump(stats_.expired);
        slab.set_error(opened.first,
                       std::make_exception_ptr(DeadlineExceeded(
                           "QueryBatcher: deadline expired before admission")));
        return std::move(opened.second);
    }
    Item wrapped(std::move(query));
    // try_push moves from `wrapped` only on kOk — on rejection the channel
    // (a POD handle we still hold) is failed cleanly. The submitting thread
    // NEVER sees a throw for load or lifecycle; everything arrives through
    // the ticket.
    switch (queue_.try_push(wrapped)) {
        case util::PushStatus::kOk:
            break;
        case util::PushStatus::kFull:
            bump(stats_.shed);
            slab.set_error(opened.first, std::make_exception_ptr(OverloadError(
                                             "QueryBatcher: shed — " +
                                             std::to_string(opts_.max_pending) +
                                             " queries already pending")));
            break;
        case util::PushStatus::kClosed:
            bump(stats_.rejected_closed);
            slab.set_error(opened.first, std::make_exception_ptr(ServiceClosed(
                                             "QueryBatcher: submit after close")));
            break;
    }
    return std::move(opened.second);
}

Future<la::ZMatrix> QueryBatcher::submit_transfer(std::vector<double> p, la::cplx s,
                                                  util::Deadline deadline) {
    return admit(Query<la::cplx, la::ZMatrix>{std::move(p), s, deadline, {}, {}});
}

Future<DelayResult> QueryBatcher::submit_delay(std::vector<double> p,
                                               util::Deadline deadline) {
    check(transient_ != nullptr, "QueryBatcher: no transient runner configured");
    return admit(Query<std::monostate, DelayResult>{std::move(p), {}, deadline, {}, {}});
}

Future<std::vector<la::cplx>> QueryBatcher::submit_poles(std::vector<double> p,
                                                         util::Deadline deadline) {
    return admit(
        Query<std::monostate, std::vector<la::cplx>>{std::move(p), {}, deadline, {}, {}});
}

void QueryBatcher::flush() {
    auto opened = flush_slab_.open();
    Item wrapped(FlushItem{opened.first});
    // force: a flush marker is a control message, exempt from admission
    // control (shedding it would deadlock the flusher's caller), but not
    // from close() — after close everything is already drained.
    if (queue_.try_push(wrapped, /*force=*/true) != util::PushStatus::kOk) {
        flush_slab_.set_value(opened.first, {});  // recycle the slot
        return;
    }
    opened.second.get();
}

QueryBatcherStats QueryBatcher::stats() const {
    constexpr auto relaxed = std::memory_order_relaxed;
    QueryBatcherStats s;
    s.queries = stats_.queries.load(relaxed);
    s.batches = stats_.batches.load(relaxed);
    s.largest_batch = stats_.largest_batch.load(relaxed);
    s.transfer_queries = stats_.transfer_queries.load(relaxed);
    s.transfer_groups = stats_.transfer_groups.load(relaxed);
    s.shed = stats_.shed.load(relaxed);
    s.expired = stats_.expired.load(relaxed);
    s.rejected_closed = stats_.rejected_closed.load(relaxed);
    s.flush_failures = stats_.flush_failures.load(relaxed);
    return s;
}

void QueryBatcher::flusher_loop() {
    using clock = std::chrono::steady_clock;
    while (true) {
        std::optional<Item> first = queue_.pop();
        if (!first) break;  // closed and drained

        std::vector<FlushItem> acks;
        int nqueries = 0;
        // Sorts one popped item (visited once) into its lane's pending
        // batch; true = flush marker (stop collecting so the marker's
        // "everything before me" promise holds). Deadline triage happens
        // HERE: a query that expired while queued is completed with
        // DeadlineExceeded now instead of riding a batch whose result it can
        // no longer use.
        auto take = [&](auto& query) -> bool {
            if constexpr (std::is_same_v<std::decay_t<decltype(query)>, FlushItem>) {
                acks.push_back(query);
                return true;
            } else {
                auto& lane = lane_of(query);
                if (!query.deadline.expired()) {
                    lane.pending.push_back(std::move(query));
                    ++nqueries;
                    return false;
                }
                // Count BEFORE failing the channel (same order as admit). The
                // expired query's trace still tells its story: all
                // queue-wait, resolved as a failure, recorded now (it never
                // reaches a flush lane).
                bump(stats_.expired);
                if (obs::enabled() && query.trace.active()) {
                    const std::int64_t tnow = util::Timer::now_ns();
                    query.trace.add(obs::Stage::kQueueWait, query.trace.submit_ns, tnow);
                    query.trace.ok = false;
                    obs_queue_wait_.record(tnow - query.trace.submit_ns);
                    obs::TraceStore::global().record(query.trace, lane.name);
                }
                lane.slab.set_error(query.result,
                                    std::make_exception_ptr(DeadlineExceeded(
                                        "QueryBatcher: deadline expired in the queue")));
                return false;
            }
        };

        bool stop = std::visit(take, *first);
        if (!stop && nqueries > 0) {
            // The deadline half of the policy: collect until max_wait_ms
            // after the batch's FIRST query, or until the size trigger / a
            // flush marker / queue teardown — whichever comes first.
            const auto deadline =
                clock::now() + std::chrono::duration_cast<clock::duration>(
                                   std::chrono::duration<double, std::milli>(
                                       opts_.max_wait_ms));
            while (nqueries < opts_.max_batch) {
                std::optional<Item> item = queue_.pop_until(deadline);
                if (!item) break;  // deadline passed, or closed and drained
                if (std::visit(take, *item)) break;
            }
        }

        // The batch is sealed: every collected query's queue wait — the
        // ingress queue AND the collect window above — ends here, with one
        // clock read for the whole batch.
        if (obs::enabled()) {
            const std::int64_t sealed = util::Timer::now_ns();
            for_each_lane([&](auto& lane) {
                for (auto& query : lane.pending)
                    query.trace.add(obs::Stage::kQueueWait, query.trace.submit_ns,
                                    sealed);
            });
        }

        // Publish the batch's stats BEFORE execution: the first fulfilment
        // below releases a waiting client, and a stats() read right after a
        // ticket resolves (or after flush() returns) must already see the
        // batch that produced it.
        bump(stats_.queries, nqueries);
        bump(stats_.batches);
        if (nqueries > stats_.largest_batch.load(std::memory_order_relaxed))
            stats_.largest_batch.store(nqueries, std::memory_order_relaxed);

        // The flusher survives ANYTHING a batch throws — injected faults
        // included: the failure goes into the affected queries' channels
        // and the loop serves the next batch. A wedged flusher would wedge
        // every future client; a failed batch only fails its own members.
        try {
            VARMOR_FAULT_POINT("query_batcher.flush");
            execute();
        } catch (...) {
            // A whole-batch failure can only be thrown BEFORE the lane tasks
            // run (their bodies catch internally), so no trace here was
            // finished yet — close them all out as failures.
            bump(stats_.flush_failures);
            const std::exception_ptr error = std::current_exception();
            for_each_lane([&](auto& lane) { fail_pending(lane, error); });
        }
        for_each_lane([](auto& lane) { lane.pending.clear(); });
        for (FlushItem& ack : acks) flush_slab_.set_value(ack.done, {});
    }
}

void QueryBatcher::execute() {
    // Failure isolation contract across all three lanes: a query's outcome —
    // value or exception — must depend on ITS OWN arguments only, never on
    // what else happened to be coalesced with it (the serve-alone purity the
    // header promises). Stamp failures fail a whole point group (stamping
    // depends only on p, so every query at that point fails alone too);
    // everything past the stamp is caught per item. Every task body below
    // catches internally, so the combined section never aborts early.
    //
    // The three lanes are fanned into ONE task set on the work-stealing
    // pool: dense transfer/pole chunks and sparse delay corners interleave
    // on the same workers instead of running lane-after-lane. Task
    // composition affects scheduling only — each item's result is computed
    // independently, so the overlap is invisible in the bits.
    Tasks tasks;

    // --- transfer lane: each task stamps (and the engine Hessenberg-
    // prepares) each of its points once, then answers every coalesced
    // frequency with one O(q^2) solve. In degraded mode the fallback solves
    // the FULL pencil per query — slower, same grouping, same isolation.
    TransferLane& transfers = std::get<TransferLane>(lanes_);
    const auto transfer_groups = group_by_point(transfers.pending);
    bump(stats_.transfer_queries, static_cast<long>(transfers.pending.size()));
    bump(stats_.transfer_groups, static_cast<long>(transfer_groups.size()));
    add_grouped_tasks(
        transfers, transfer_groups,
        [this](const Query<la::cplx, la::ZMatrix>& query, mor::RomEvalWorkspace& ws) {
            if (engine_) return engine_->transfer(query.arg, ws);
            if (!fallbacks_.transfer) throw Error("QueryBatcher: no transfer path");
            return fallbacks_.transfer(query.p, query.arg);
        },
        tasks);

    // --- pole lane: same grouping; the pole kernel is per-sample only.
    PoleLane& poles = std::get<PoleLane>(lanes_);
    const auto pole_groups = group_by_point(poles.pending);
    add_grouped_tasks(
        poles, pole_groups,
        [this](const Query<std::monostate, std::vector<la::cplx>>& query,
               mor::RomEvalWorkspace& ws) {
            if (engine_) return engine_->poles(ws);
            if (!fallbacks_.poles) throw Error("QueryBatcher: no poles path");
            return fallbacks_.poles(query.p);
        },
        tasks);

    // --- delay lane: the forcing series is corner-independent, evaluated
    // ONCE here on the flusher thread; a failure in it would hit every
    // corner served alone too, so it fails every delay channel (the
    // shared-preamble contract).
    DelayLane& delays = std::get<DelayLane>(lanes_);
    std::vector<la::Vector> forcing;
    if (!delays.pending.empty()) {
        try {
            forcing = transient_->make_forcing(input_);
        } catch (...) {
            fail_pending(delays, std::current_exception());
            delays.pending.clear();
        }
    }
    add_delay_tasks(forcing, tasks);

    util::ThreadPool::run_tasks(opts_.threads, tasks);
}

template <class LaneT, class Groups, class Solve>
void QueryBatcher::add_grouped_tasks(LaneT& lane, const Groups& groups, Solve solve,
                                     Tasks& tasks) {
    for_each_chunk(static_cast<int>(groups.size()), opts_.threads, [&](int b, int e) {
        tasks.push_back([this, &lane, &groups, solve, b, e] {
            mor::RomEvalWorkspace ws;
            {
                // Batch fulfilment: the chunk's answers land under ONE slab
                // lock with ONE wake-up when the task ends (the destructor
                // commits), instead of a per-query notify storm across every
                // blocked client.
                typename decltype(lane.slab)::Batch done(lane.slab);
                for (int g = b; g < e; ++g) {
                    const auto& group = groups[static_cast<std::size_t>(g)];
                    if (engine_) {
                        // The stamp is shared by the whole group: ONE timed
                        // span, copied into every member's trace.
                        const std::int64_t t0 =
                            obs::enabled() ? util::Timer::now_ns() : 0;
                        try {
                            VARMOR_FAULT_POINT_DETAIL("query_batcher.stamp",
                                                      point_detail(*group.p));
                            engine_->stamp_parameters(*group.p, ws);
                        } catch (...) {
                            for (auto* query : group.items) {
                                query->trace.ok = false;
                                done.set_error(query->result, std::current_exception());
                            }
                            continue;
                        }
                        if (t0 != 0) {
                            const std::int64_t t1 = util::Timer::now_ns();
                            for (auto* query : group.items)
                                query->trace.add(obs::Stage::kStamp, t0, t1);
                        }
                    }
                    for (auto* query : group.items) {
                        obs::ScopedSpan span(obs::enabled() ? &query->trace : nullptr,
                                             obs::Stage::kSolve);
                        try {
                            done.set_value(query->result, solve(*query, ws));
                        } catch (...) {
                            // e.g. the pencil singular at exactly this s:
                            // fails THIS query only, like serve-alone would.
                            query->trace.ok = false;
                            done.set_error(query->result, std::current_exception());
                        }
                    }
                }
            }  // batch committed: the chunk's results are visible now
            if (obs::enabled()) {
                const std::int64_t tf = util::Timer::now_ns();
                for (int g = b; g < e; ++g)
                    for (auto* query : groups[static_cast<std::size_t>(g)].items)
                        finish_trace(lane, query->trace, tf);
            }
        });
    });
}

void QueryBatcher::add_delay_tasks(const std::vector<la::Vector>& forcing, Tasks& tasks) {
    // The pending corners ARE a TransientBatchRunner corner batch (one
    // refactorization per corner). Per-corner execution keeps the captured-
    // batch isolation: a failing corner fails ITS ticket only, and every
    // other corner's answer comes from this same batch — never from a
    // re-run, so no extra work and bit-identical results whether or not a
    // batchmate failed.
    DelayLane& lane = std::get<DelayLane>(lanes_);
    const int n = static_cast<int>(lane.pending.size());
    for_each_chunk(n, opts_.threads, [&](int b, int e) {
        tasks.push_back([this, &lane, &forcing, b, e] {
            analysis::TransientBatchRunner::Scratch scratch = transient_->make_scratch();
            {
                util::ResultSlab<DelayResult>::Batch done(lane.slab);
                for (int i = b; i < e; ++i) {
                    auto& query = lane.pending[static_cast<std::size_t>(i)];
                    obs::ScopedSpan span(obs::enabled() ? &query.trace : nullptr,
                                         obs::Stage::kSolve);
                    analysis::TransientBatchRunner::CornerOutcome outcome =
                        transient_->run_corner_captured(query.p, forcing, scratch);
                    try {
                        if (outcome.error) std::rethrow_exception(outcome.error);
                        done.set_value(query.result,
                                       DelayResult{analysis::crossing_time(
                                                       *outcome.result, observe_, level_),
                                                   level_});
                    } catch (...) {
                        query.trace.ok = false;
                        done.set_error(query.result, std::current_exception());
                    }
                }
            }
            if (obs::enabled()) {
                const std::int64_t tf = util::Timer::now_ns();
                for (int i = b; i < e; ++i)
                    finish_trace(lane, lane.pending[static_cast<std::size_t>(i)].trace,
                                 tf);
            }
        });
    });
}

template <class LaneT>
void QueryBatcher::fail_pending(LaneT& lane, const std::exception_ptr& error) {
    {
        typename decltype(lane.slab)::Batch done(lane.slab);
        for (auto& query : lane.pending) {
            query.trace.ok = false;
            done.set_error(query.result, error);
        }
    }
    if (obs::enabled()) {
        const std::int64_t tf = util::Timer::now_ns();
        for (auto& query : lane.pending) finish_trace(lane, query.trace, tf);
    }
}

template <class LaneT>
void QueryBatcher::finish_trace(LaneT& lane, obs::QueryTrace& trace,
                                std::int64_t now_ns) {
    if (!trace.active()) return;
    trace.add(obs::Stage::kFulfil, trace.last_end_ns(), now_ns);
    lane.latency.record(now_ns - trace.submit_ns);
    for (int i = 0; i < trace.num_spans; ++i) {
        const obs::Span& span = trace.spans[i];
        switch (span.stage) {
            case obs::Stage::kQueueWait:
                obs_queue_wait_.record(span.duration_ns());
                break;
            case obs::Stage::kStamp:
                obs_stamp_.record(span.duration_ns());
                break;
            case obs::Stage::kSolve:
                obs_solve_.record(span.duration_ns());
                break;
            case obs::Stage::kFulfil:
                obs_fulfil_.record(span.duration_ns());
                break;
        }
    }
    obs::TraceStore::global().record(trace, lane.name);
}

}  // namespace varmor::service
