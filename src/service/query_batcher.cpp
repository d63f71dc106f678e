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

void bump(std::atomic<long>& counter, long n = 1) {
    counter.fetch_add(n, std::memory_order_relaxed);
}

void raise_max(std::atomic<int>& counter, int n) {
    int seen = counter.load(std::memory_order_relaxed);
    while (n > seen &&
           !counter.compare_exchange_weak(seen, n, std::memory_order_relaxed)) {
    }
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
    const int width = opts_.threads >= 1 ? opts_.threads
                                         : util::ThreadPool::default_threads();
    for (int w = 0; w < width; ++w) servers_.push_back(std::make_unique<Server>());
    try {
        for (auto& server : servers_)
            threads_.emplace_back([this, &server = *server] { serve_loop(server); });
    } catch (...) {
        close();  // joins the threads already started before the members go
        throw;
    }
}

QueryBatcher::QueryBatcher(const mor::RomEvalEngine& engine,
                           const analysis::TransientBatchRunner* transient,
                           analysis::InputFn input, double delay_level,
                           int observe_port, const QueryBatcherOptions& opts)
    : QueryBatcher(&engine, QueryFallbacks{}, transient, std::move(input),
                   delay_level, observe_port, opts) {}

QueryBatcher::~QueryBatcher() { close(); }

void QueryBatcher::close() {
    queue_.close();  // the serving threads drain the tail, then exit
    util::MutexLock lock(close_mutex_);
    for (std::thread& thread : threads_)
        if (thread.joinable()) thread.join();
}

template <class Arg, class Result>
Future<Result> QueryBatcher::admit(Query<Arg, Result> query) {
    util::ResultSlab<Result>& slab = lane_of(query).slab;
    auto opened = slab.open();
    query.result = opened.first;
    // The query's trace is born HERE, on the submitting thread: the mint
    // stamps submit time, and every later stage appends to this one object
    // as it rides through triage and its batch. Inactive (id 0, no clock
    // read) when telemetry is off.
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
    // control (shedding it would deadlock flush()'s caller), but not
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

void QueryBatcher::serve_loop(Server& server) {
    bool served = false;  // spin on the next pop only right after serving
    while (true) {
        std::uint64_t seq = 0;
        {
            util::MutexLock leadership(leader_);
            if (!collect(server, served)) break;  // closed and drained
            seq = ++sealed_;
            server.running.store(seq);
        }

        // Publish the batch's stats BEFORE execution: the first fulfilment
        // below releases a waiting client, and a stats() read right after a
        // ticket resolves (or after flush() returns) must already see the
        // batch that produced it.
        bump(stats_.queries, server.nqueries);
        bump(stats_.batches);
        raise_max(stats_.largest_batch, server.nqueries);

        // The thread survives ANYTHING a batch throws — injected faults
        // included: the failure goes into the affected queries' channels and
        // the loop serves the next batch. A wedged serving thread would wedge
        // every future client; a failed batch only fails its own members.
        try {
            VARMOR_FAULT_POINT("query_batcher.flush");
            execute(server);
        } catch (...) {
            // A whole-batch failure can only be thrown BEFORE the lanes run
            // (their bodies catch internally), so no trace here was finished
            // yet — close them all out as failures.
            bump(stats_.flush_failures);
            const std::exception_ptr error = std::current_exception();
            for_each_lane(server, [&](auto& lane, auto& pending) {
                fail_pending(lane, pending, error);
            });
        }
        for_each_lane(server, [](auto&, auto& pending) { pending.clear(); });
        retire(server);
        served = server.nqueries > 0;
        if (server.ack) {
            // The marker's promise covers every query submitted before it,
            // and those may ride batches other threads still run.
            wait_for_batches_before(seq);
            flush_slab_.set_value(server.ack->done, {});
            server.ack.reset();
        }
    }
}

bool QueryBatcher::collect(Server& server, bool spin) {
    using clock = std::chrono::steady_clock;
    std::optional<Item> first = queue_.pop(spin);
    if (!first) return false;

    server.nqueries = 0;
    // Sorts one popped item (visited once) into the batch; true = flush
    // marker (stop collecting so the marker's "everything before me" promise
    // holds). Deadline triage happens HERE: a query that expired while
    // queued is completed with DeadlineExceeded now instead of riding a
    // batch whose result it can no longer use.
    auto take = [&](auto& query) -> bool {
        if constexpr (std::is_same_v<std::decay_t<decltype(query)>, FlushItem>) {
            server.ack = query;
            return true;
        } else {
            auto& lane = lane_of(query);
            if (!query.deadline.expired()) {
                server.pending_of(lane).push_back(std::move(query));
                ++server.nqueries;
                return false;
            }
            // Count BEFORE failing the channel (same order as admit). The
            // expired query's trace still tells its story: all queue-wait,
            // resolved as a failure, recorded now (it never runs).
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

    const bool stop = std::visit(take, *first);
    if (!stop && server.nqueries > 0) {
        // The deadline half of the policy: collect until max_wait_ms after
        // the batch's FIRST query, or until the size trigger / a flush
        // marker / queue teardown — whichever comes first.
        const auto deadline =
            clock::now() + std::chrono::duration_cast<clock::duration>(
                               std::chrono::duration<double, std::milli>(opts_.max_wait_ms));
        while (server.nqueries < opts_.max_batch) {
            std::optional<Item> item = queue_.pop_until(deadline);
            if (!item) break;  // deadline passed, or closed and drained
            if (std::visit(take, *item)) break;
        }
    }

    // The batch is sealed: every collected query's queue wait — the ingress
    // queue AND the collect window above — ends here, with one clock read
    // for the whole batch.
    if (obs::enabled()) {
        const std::int64_t sealed = util::Timer::now_ns();
        for_each_lane(server, [&](auto&, auto& pending) {
            for (auto& query : pending)
                query.trace.add(obs::Stage::kQueueWait, query.trace.submit_ns, sealed);
        });
    }
    return true;
}

void QueryBatcher::retire(Server& server) {
    server.running.store(kIdle);
    // Pairs with wait_for_batches_before (both sides seq_cst): either the
    // waiter sees this thread idle, or this thread sees the waiter and wakes
    // it under the lock it waits with.
    if (ack_waiters_.load() > 0) {
        { util::MutexLock lock(retire_mutex_); }
        retired_.notify_all();
    }
}

void QueryBatcher::wait_for_batches_before(std::uint64_t seq) {
    ack_waiters_.fetch_add(1);
    {
        util::MutexLock lock(retire_mutex_);
        const auto earlier_running = [&] {
            for (const auto& other : servers_)
                if (other->running.load() < seq) return true;
            return false;
        };
        while (earlier_running()) retired_.wait(retire_mutex_);
    }
    ack_waiters_.fetch_sub(1);
}

void QueryBatcher::execute(Server& server) {
    // Failure isolation contract across all three lanes: a query's outcome —
    // value or exception — must depend on ITS OWN arguments only, never on
    // what else happened to be coalesced with it (the serve-alone purity the
    // header promises). Stamp failures fail a whole point group (stamping
    // depends only on p, so every query at that point fails alone too);
    // everything past the stamp is caught per item, so one lane never stops
    // another.

    // --- transfer lane: stamp (and the engine Hessenberg-prepares) each
    // point once, then answer every coalesced frequency with one O(q^2)
    // solve. In degraded mode the fallback solves the FULL pencil per
    // query — slower, same grouping, same isolation.
    TransferLane& transfers = std::get<TransferLane>(lanes_);
    auto& transfer_queries = server.pending_of(transfers);
    const auto transfer_groups = group_by_point(transfer_queries);
    bump(stats_.transfer_queries, static_cast<long>(transfer_queries.size()));
    bump(stats_.transfer_groups, static_cast<long>(transfer_groups.size()));
    serve_groups(
        transfers, transfer_groups,
        [this](const TransferLane::QueryT& query, mor::RomEvalWorkspace& ws) {
            if (engine_) return engine_->transfer(query.arg, ws);
            if (!fallbacks_.transfer) throw Error("QueryBatcher: no transfer path");
            return fallbacks_.transfer(query.p, query.arg);
        },
        server.ws);

    // --- pole lane: same grouping; the pole kernel is per-sample only.
    PoleLane& poles = std::get<PoleLane>(lanes_);
    serve_groups(
        poles, group_by_point(server.pending_of(poles)),
        [this](const PoleLane::QueryT& query, mor::RomEvalWorkspace& ws) {
            if (engine_) return engine_->poles(ws);
            if (!fallbacks_.poles) throw Error("QueryBatcher: no poles path");
            return fallbacks_.poles(query.p);
        },
        server.ws);

    // --- delay lane: the forcing series is corner-independent, evaluated
    // ONCE per batch; a failure in it would hit every corner served alone
    // too, so it fails every delay channel (the shared-preamble contract).
    DelayLane& delays = std::get<DelayLane>(lanes_);
    auto& delay_queries = server.pending_of(delays);
    if (delay_queries.empty()) return;
    std::vector<la::Vector> forcing;
    try {
        forcing = transient_->make_forcing(input_);
    } catch (...) {
        fail_pending(delays, delay_queries, std::current_exception());
        return;
    }
    serve_delays(server, forcing);
}

template <class LaneT, class Groups, class Solve>
void QueryBatcher::serve_groups(LaneT& lane, const Groups& groups, Solve solve,
                                mor::RomEvalWorkspace& ws) {
    // Batch fulfilment: a group's answers land under ONE slab lock with ONE
    // wake-up, instead of a per-query notify storm across every blocked
    // client; the clients of one group are released before the next group
    // is stamped.
    typename decltype(lane.slab)::Batch done(lane.slab);
    for (const auto& group : groups) {
        bool stamped = true;
        if (engine_) {
            // The stamp is shared by the whole group: ONE timed span, copied
            // into every member's trace.
            const std::int64_t t0 = obs::enabled() ? util::Timer::now_ns() : 0;
            try {
                VARMOR_FAULT_POINT_DETAIL("query_batcher.stamp", point_detail(*group.p));
                engine_->stamp_parameters(*group.p, ws);
            } catch (...) {
                for (auto* query : group.items) {
                    query->trace.ok = false;
                    done.set_error(query->result, std::current_exception());
                }
                stamped = false;
            }
            if (stamped && t0 != 0) {
                const std::int64_t t1 = util::Timer::now_ns();
                for (auto* query : group.items) query->trace.add(obs::Stage::kStamp, t0, t1);
            }
        }
        if (stamped)
            for (auto* query : group.items) {
                obs::ScopedSpan span(obs::enabled() ? &query->trace : nullptr,
                                     obs::Stage::kSolve);
                try {
                    done.set_value(query->result, solve(*query, ws));
                } catch (...) {
                    // e.g. the pencil singular at exactly this s: fails THIS
                    // query only, like serve-alone would.
                    query->trace.ok = false;
                    done.set_error(query->result, std::current_exception());
                }
            }
        done.commit();  // the group's results are visible now
        if (obs::enabled()) {
            const std::int64_t tf = util::Timer::now_ns();
            for (auto* query : group.items) finish_trace(lane, query->trace, tf);
        }
    }
}

void QueryBatcher::serve_delays(Server& server, const std::vector<la::Vector>& forcing) {
    // The batch's corners ARE a TransientBatchRunner corner batch (one
    // refactorization per corner). Per-corner execution keeps the captured-
    // batch isolation: a failing corner fails ITS ticket only, and every
    // other corner's answer comes from this same batch — never from a
    // re-run, so no extra work and bit-identical results whether or not a
    // batchmate failed.
    DelayLane& lane = std::get<DelayLane>(lanes_);
    if (!server.scratch) server.scratch = transient_->make_scratch();
    util::ResultSlab<DelayResult>::Batch done(lane.slab);
    for (auto& query : server.pending_of(lane)) {
        {
            obs::ScopedSpan span(obs::enabled() ? &query.trace : nullptr,
                                 obs::Stage::kSolve);
            analysis::TransientBatchRunner::CornerOutcome outcome =
                transient_->run_corner_captured(query.p, forcing, *server.scratch);
            try {
                if (outcome.error) std::rethrow_exception(outcome.error);
                done.set_value(query.result,
                               DelayResult{analysis::crossing_time(*outcome.result,
                                                                   observe_, level_),
                                           level_});
            } catch (...) {
                query.trace.ok = false;
                done.set_error(query.result, std::current_exception());
            }
        }
        done.commit();
        if (obs::enabled()) finish_trace(lane, query.trace, util::Timer::now_ns());
    }
}

template <class LaneT, class Pending>
void QueryBatcher::fail_pending(LaneT& lane, Pending& pending,
                                const std::exception_ptr& error) {
    {
        typename decltype(lane.slab)::Batch done(lane.slab);
        for (auto& query : pending) {
            query.trace.ok = false;
            done.set_error(query.result, error);
        }
    }
    if (obs::enabled()) {
        const std::int64_t tf = util::Timer::now_ns();
        for (auto& query : pending) finish_trace(lane, query.trace, tf);
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
