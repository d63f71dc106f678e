#pragma once

#include <atomic>
#include <exception>
#include <functional>
#include <memory>
#include <optional>
#include <thread>
#include <tuple>
#include <variant>
#include <vector>

#include "analysis/transient.h"
#include "analysis/transient_batch.h"
#include "la/dense.h"
#include "mor/rom_eval.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "service/errors.h"
#include "util/deadline.h"
#include "util/mpmc_queue.h"
#include "util/result_slab.h"
#include "util/thread_annotations.h"

namespace varmor::service {

/// The serving layer's async result handle: a slab-backed ticket with the
/// std::future surface the call sites rely on (get / wait_for / valid).
/// Submits used to allocate a promise/future pair per query; tickets are
/// recycled slab slots, so a warm query's result round-trip allocates
/// nothing (see util::ResultSlab).
template <class T>
using Future = util::ResultTicket<T>;

/// Answer to a delay query: the 50%-crossing time of the observed port
/// (nullopt if the waveform never crosses inside the simulated window) and
/// the absolute threshold the session used.
struct DelayResult {
    std::optional<double> delay;
    double level = 0.0;
};

struct QueryBatcherOptions {
    /// Flush once this many queries are pending (the size half of the
    /// policy). Batches may exceed coalescing opportunity — correctness
    /// never depends on composition, only throughput does.
    int max_batch = 64;
    /// Flush deadline: at most this long after the first query of a batch
    /// arrives (the latency half of the policy). 0 = flush immediately: the
    /// batch takes what is already queued, with no timed wait.
    double max_wait_ms = 2.0;
    /// Fan-out of batch EXECUTION, SweepOptions convention: 0 = the
    /// process-wide pool, 1 = serial, n > 1 = a dedicated pool of n.
    int threads = 0;
    /// Admission bound: at most this many queries pending in the ingress
    /// queue; past it submits are SHED with an OverloadError future (0 =
    /// unbounded). Overload degrades into fast rejection of the excess, not
    /// into unbounded latency for everyone.
    int max_pending = 0;
};

struct QueryBatcherStats {
    long queries = 0;          ///< accepted point queries
    long batches = 0;          ///< flushes executed (including empty flush() acks)
    int largest_batch = 0;     ///< max queries coalesced into one flush
    long transfer_queries = 0;
    long transfer_groups = 0;  ///< distinct parameter points across transfer
                               ///< batches — the coalescing win is
                               ///< transfer_queries / transfer_groups
    long shed = 0;             ///< submits rejected by admission control (OverloadError)
    long expired = 0;          ///< queries completed with DeadlineExceeded
    long rejected_closed = 0;  ///< submits after close() (ServiceClosed)
    long flush_failures = 0;   ///< batches whose execution itself failed (every
                               ///< member got the failure; the flusher survived)
};

/// Degraded-mode serving paths used when no ROM engine is available (the
/// model build failed and the key is poisoned — see StudySession): per-query
/// full-pencil evaluation. Slower, but answers stay exact and the service
/// stays up.
struct QueryFallbacks {
    std::function<la::ZMatrix(const std::vector<double>& p, la::cplx s)> transfer;
    std::function<std::vector<la::cplx>(const std::vector<double>& p)> poles;
};

/// Coalesces concurrent point queries from many logical clients into the
/// batched engines — the middle piece of the serving subsystem.
///
/// Three query classes are accepted, matching the batched execution lanes
/// underneath:
///
///   transfer(p, s)  ROM transfer value        -> mor::RomEvalEngine, queries
///                                                grouped by parameter point
///                                                (one stamp + Hessenberg
///                                                preparation per group, one
///                                                O(q^2) solve per query)
///   delay(p)        full-system 50%-crossing  -> TransientBatchRunner corner
///                   delay at a corner            batch (one refactorization
///                                                per corner, forcing series
///                                                shared across the batch)
///   poles(p)        ROM poles at a corner     -> engine pole kernel, grouped
///                                                by parameter point
///
/// Queries are enqueued on a util::MpmcQueue and drained by one flusher
/// thread under a size/deadline policy: a batch flushes when `max_batch`
/// queries are pending or `max_wait_ms` after its first query arrived,
/// whichever comes first. flush() forces a drain of everything already
/// submitted.
///
/// Each query class is one Lane (result slab, latency histogram, trace
/// name, pending batch) of a single template; transfer and poles share one
/// grouped-point executor and differ only in the solve they pass it.
///
/// Within one flush the three lanes are OVERLAPPED, not sequential: the
/// transfer lane's dense Hessenberg chunks, the pole lane's sample chunks
/// and the delay lane's sparse transient corners are submitted as ONE task
/// set to the work-stealing util::ThreadPool, so a worker that finishes its
/// dense chunks steals sparse corners (and vice versa) instead of idling at
/// a lane barrier. Results are unaffected — every task computes items
/// independently (the bit-identity contract below).
///
/// Determinism contract (the reason coalescing is safe to hide behind
/// futures): every query's answer is a pure function of its own arguments —
/// each engine computes a batch item independently of batch composition and
/// thread count — so a coalesced batch is BIT-IDENTICAL to serving each
/// query alone, no matter how traffic happens to interleave.
///
/// Failure contract: submit never throws for load, latency, or lifecycle
/// reasons, and NO accepted query's future is ever left unfulfilled — every
/// outcome arrives through the future as a value or as one of the
/// service::errors taxonomy (OverloadError when shed at ingress,
/// DeadlineExceeded when a per-query Deadline passes in the queue,
/// ServiceClosed when racing close()). A failure during batch execution —
/// including injected faults — fails the affected queries' futures and the
/// flusher keeps serving subsequent batches.
class QueryBatcher {
public:
    /// Serves transfer/pole queries on `engine` — or, when `engine` is null,
    /// on the `fallbacks` paths (degraded mode) — and (when `transient` is
    /// non-null) delay queries on `transient` with the given step input and
    /// absolute crossing threshold. All referenced objects must outlive the
    /// batcher. `observe_port` follows TransientStudyOptions (-1 = last).
    QueryBatcher(const mor::RomEvalEngine* engine, QueryFallbacks fallbacks,
                 const analysis::TransientBatchRunner* transient,
                 analysis::InputFn input, double delay_level, int observe_port,
                 const QueryBatcherOptions& opts = {});

    /// Engine-only convenience (the common, non-degraded construction).
    QueryBatcher(const mor::RomEvalEngine& engine,
                 const analysis::TransientBatchRunner* transient,
                 analysis::InputFn input, double delay_level, int observe_port,
                 const QueryBatcherOptions& opts = {});

    /// Drains everything pending, then joins the flusher.
    ~QueryBatcher();

    QueryBatcher(const QueryBatcher&) = delete;
    QueryBatcher& operator=(const QueryBatcher&) = delete;

    // -----------------------------------------------------------------
    // Point queries (safe from any thread; results via slab ticket — see
    // Future above). An unset deadline means "whenever"; a set one bounds
    // queue time — an expired query is completed with DeadlineExceeded,
    // never silently dropped. Tickets share ownership of their slab, so
    // they stay collectible after the batcher is destroyed.
    // -----------------------------------------------------------------

    Future<la::ZMatrix> submit_transfer(std::vector<double> p, la::cplx s,
                                        util::Deadline deadline = {});
    Future<DelayResult> submit_delay(std::vector<double> p,
                                     util::Deadline deadline = {});
    Future<std::vector<la::cplx>> submit_poles(std::vector<double> p,
                                               util::Deadline deadline = {});

    /// Blocks until every query submitted before this call has executed.
    /// After close() this is a no-op (everything was drained by close).
    void flush();

    /// Drains everything already submitted, then stops the flusher
    /// (idempotent; the destructor calls it). Later submits get ServiceClosed
    /// futures — never an exception into the submitting thread.
    void close();

    /// True when serving on the fallback paths (no ROM engine).
    bool degraded() const { return engine_ == nullptr; }

    const QueryBatcherOptions& options() const { return opts_; }
    QueryBatcherStats stats() const;

    /// Occupancy of the per-lane result slabs (bench/ops visibility): after
    /// warm-up, `capacity` plateaus at the concurrency high-water mark and
    /// every further query reuses a recycled slot.
    util::ResultSlabStats transfer_slab_stats() const {
        return std::get<TransferLane>(lanes_).slab.stats();
    }
    util::ResultSlabStats delay_slab_stats() const {
        return std::get<DelayLane>(lanes_).slab.stats();
    }
    util::ResultSlabStats pole_slab_stats() const {
        return std::get<PoleLane>(lanes_).slab.stats();
    }

private:
    // One point query: its parameter point, its kind's argument (the
    // frequency for transfer, std::monostate otherwise) and its result
    // channel. It carries its obs::QueryTrace — minted at submit (admit),
    // queue-wait span ended when its batch is sealed, stamp/solve/fulfil
    // spans in the flush lanes, recorded to the TraceStore at fulfilment.
    // An inactive trace (telemetry off) makes every one of those a no-op.
    template <class Arg, class Result>
    struct Query {
        std::vector<double> p;
        Arg arg;
        util::Deadline deadline;
        obs::QueryTrace trace;
        typename util::ResultSlab<Result>::Channel result;
    };

    /// Everything one query kind owns: its result-channel arena (recycled
    /// per flush epoch: a slot returns to its slab the moment its batch
    /// fulfils it and its client collects), its latency histogram and trace
    /// lane name, and the queries collected into the current batch (touched
    /// by the flusher and its batch tasks only).
    template <class Arg, class Result>
    struct Lane {
        Lane(const char* lane_name, obs::Histogram& lane_latency)
            : name(lane_name), latency(lane_latency) {}

        const char* name;
        obs::Histogram& latency;
        util::ResultSlab<Result> slab;
        std::vector<Query<Arg, Result>> pending;
    };
    using TransferLane = Lane<la::cplx, la::ZMatrix>;
    using DelayLane = Lane<std::monostate, DelayResult>;
    using PoleLane = Lane<std::monostate, std::vector<la::cplx>>;

    struct FlushItem {
        util::ResultSlab<std::monostate>::Channel done;
    };
    using Item =
        std::variant<Query<la::cplx, la::ZMatrix>, Query<std::monostate, DelayResult>,
                     Query<std::monostate, std::vector<la::cplx>>, FlushItem>;

    /// QueryBatcherStats storage: relaxed atomics, bumped without a lock.
    /// Every bump is sequenced before the slab fulfilment (a mutex release)
    /// of the tickets it describes, so a stats() read right after a ticket
    /// resolves already sees it. largest_batch has one writer, the flusher.
    struct Counters {
        std::atomic<long> queries{0};
        std::atomic<long> batches{0};
        std::atomic<int> largest_batch{0};
        std::atomic<long> transfer_queries{0};
        std::atomic<long> transfer_groups{0};
        std::atomic<long> shed{0};
        std::atomic<long> expired{0};
        std::atomic<long> rejected_closed{0};
        std::atomic<long> flush_failures{0};
    };

    template <class Arg, class Result>
    Lane<Arg, Result>& lane_of(const Query<Arg, Result>&) {
        return std::get<Lane<Arg, Result>>(lanes_);
    }

    template <class F>
    void for_each_lane(F&& f) {
        std::apply([&](auto&... lane) { (f(lane), ...); }, lanes_);
    }

    /// Deadline triage + admission control shared by the three submits:
    /// opens a channel on the query's lane and returns its ticket, which is
    /// fulfilled normally, or failed right here when the query is expired /
    /// shed / racing close().
    template <class Arg, class Result>
    Future<Result> admit(Query<Arg, Result> query);

    using Tasks = std::vector<std::function<void()>>;

    void flusher_loop();
    void execute();

    /// The grouped-point executor shared by the transfer and pole lanes:
    /// fans `groups` (the lane's pending queries by parameter point) into
    /// chunk tasks that stamp each point once (engine mode), answer every
    /// member with `solve(query, ws)` and commit one slab batch per chunk.
    template <class LaneT, class Groups, class Solve>
    void add_grouped_tasks(LaneT& lane, const Groups& groups, Solve solve, Tasks& tasks);

    /// The delay lane's chunk tasks: one TransientBatchRunner corner per
    /// query, all sharing the batch's forcing series.
    void add_delay_tasks(const std::vector<la::Vector>& forcing, Tasks& tasks);

    /// Fails every pending query of `lane` with `error` (tolerant: members
    /// that already answered keep their values) and finishes their traces
    /// as failures.
    template <class LaneT>
    void fail_pending(LaneT& lane, const std::exception_ptr& error);

    /// Closes out a query's trace at fulfilment time: fulfil span (last
    /// span end → `now_ns`, i.e. until its chunk's slab batch committed),
    /// per-stage + per-lane latency histograms, TraceStore record. No-op
    /// for inactive traces.
    template <class LaneT>
    void finish_trace(LaneT& lane, obs::QueryTrace& trace, std::int64_t now_ns);

    const mor::RomEvalEngine* engine_;  ///< null = degraded (fallbacks serve)
    QueryFallbacks fallbacks_;
    const analysis::TransientBatchRunner* transient_;
    analysis::InputFn input_;
    double level_ = 0.0;
    int observe_ = 0;
    QueryBatcherOptions opts_;

    util::MpmcQueue<Item> queue_;
    std::tuple<TransferLane, DelayLane, PoleLane> lanes_;
    util::ResultSlab<std::monostate> flush_slab_;
    Counters stats_;
    /// Registry-owned stage latency instruments, resolved once at
    /// construction (instruments are process-global and never move, so the
    /// references stay valid and the hot path never touches the registry
    /// lock).
    obs::Histogram& obs_queue_wait_;
    obs::Histogram& obs_stamp_;
    obs::Histogram& obs_solve_;
    obs::Histogram& obs_fulfil_;
    util::Mutex close_mutex_;  ///< serializes close() callers around the join
    /// Written once in the constructor; joined under close_mutex_ — never
    /// touched concurrently outside that, so deliberately unguarded.
    std::thread flusher_;  ///< last member: joins before the rest tears down
};

}  // namespace varmor::service
