#pragma once

#include <atomic>
#include <cstdint>
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
    /// Serving threads W, SweepOptions convention: 0 = as many as the
    /// process-wide pool, 1 = one thread (collect, then execute, in turn),
    /// n > 1 = n. The threads take turns collecting a batch and each runs
    /// the batch it collected, so batch N+1 is collected while batch N runs.
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
                               ///< member got the failure; its thread survived)
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
/// Queries are enqueued on a util::MpmcQueue and served by W threads (see
/// QueryBatcherOptions::threads) in a leader/followers loop. One thread at
/// a time holds leadership and collects a batch under a size/deadline
/// policy: the batch is sealed when `max_batch` queries are pending or
/// `max_wait_ms` after its first query arrived, whichever comes first. The
/// leader then hands leadership on and runs its batch inline, so the next
/// batch is collected while this one runs. flush() forces a drain of
/// everything already submitted.
///
/// Each query class is one Lane (result slab, latency histogram, trace
/// name) of a single template; transfer and poles share one grouped-point
/// executor and differ only in the solve they pass it. Each serving thread
/// keeps one mor::RomEvalWorkspace and one transient Scratch for its whole
/// life, and answers the batch it collected point group by point group,
/// committing one slab Batch per group. Nothing runs on the
/// util::ThreadPool.
///
/// Waits are spin-then-park: a thread that has just served a batch polls
/// the queue for up to util::kSpinBudget before it sleeps, and so does a
/// client in Future::get(), so a small query skips the futex sleep and
/// wake-up on both sides. A thread that has served nothing parks at once,
/// so an idle batcher costs no CPU.
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
/// serving thread keeps serving subsequent batches.
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

    /// Drains everything pending, then joins the serving threads.
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

    /// Drains everything already submitted, then stops the serving threads
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
    // spans while its batch runs, recorded to the TraceStore at fulfilment.
    // An inactive trace (telemetry off) makes every one of those a no-op.
    template <class Arg, class Result>
    struct Query {
        std::vector<double> p;
        Arg arg;
        util::Deadline deadline;
        obs::QueryTrace trace;
        typename util::ResultSlab<Result>::Channel result;
    };

    /// Everything one query kind shares across the serving threads: its
    /// result-channel arena (a slot returns to its slab the moment its batch
    /// fulfils it and its client collects), its latency histogram and its
    /// trace lane name.
    template <class Arg, class Result>
    struct Lane {
        using QueryT = Query<Arg, Result>;

        Lane(const char* lane_name, obs::Histogram& lane_latency)
            : name(lane_name), latency(lane_latency) {}

        const char* name;
        obs::Histogram& latency;
        util::ResultSlab<Result> slab;
    };
    using TransferLane = Lane<la::cplx, la::ZMatrix>;
    using DelayLane = Lane<std::monostate, DelayResult>;
    using PoleLane = Lane<std::monostate, std::vector<la::cplx>>;

    struct FlushItem {
        util::ResultSlab<std::monostate>::Channel done;
    };
    using Item = std::variant<TransferLane::QueryT, DelayLane::QueryT, PoleLane::QueryT,
                              FlushItem>;

    /// `Server::running` between batches: above every seal number.
    static constexpr std::uint64_t kIdle = ~std::uint64_t{0};

    /// One serving thread's own state, kept for the thread's whole life: the
    /// batch it collected while it held leadership, and the workspace and
    /// transient scratch it answers that batch with. Only its thread touches
    /// it, except `running`.
    struct Server {
        template <class LaneT>
        std::vector<typename LaneT::QueryT>& pending_of(const LaneT&) {
            return std::get<std::vector<typename LaneT::QueryT>>(pending);
        }

        std::tuple<std::vector<TransferLane::QueryT>, std::vector<DelayLane::QueryT>,
                   std::vector<PoleLane::QueryT>>
            pending;
        std::optional<FlushItem> ack;  ///< the flush() marker that ended the batch
        int nqueries = 0;              ///< queries in the batch
        mor::RomEvalWorkspace ws;
        /// Made on the thread's first delay query (transfer-only traffic
        /// never pays for it).
        std::optional<analysis::TransientBatchRunner::Scratch> scratch;
        /// Seal number of the batch this thread runs, kIdle between batches.
        /// Set at seal, under leadership, so seal numbers order every batch;
        /// a thread acking a flush() marker waits on the others' slots.
        std::atomic<std::uint64_t> running{kIdle};
    };

    /// QueryBatcherStats storage: relaxed atomics, bumped without a lock.
    /// Every bump is sequenced before the slab fulfilment (a mutex release)
    /// of the tickets it describes, so a stats() read right after a ticket
    /// resolves already sees it. largest_batch is a CAS max: every serving
    /// thread writes it.
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

    /// Calls f(lane, pending) for each lane and `server`'s batch of it.
    template <class F>
    void for_each_lane(Server& server, F&& f) {
        std::apply([&](auto&... lane) { (f(lane, server.pending_of(lane)), ...); }, lanes_);
    }

    /// Deadline triage + admission control shared by the three submits:
    /// opens a channel on the query's lane and returns its ticket, which is
    /// fulfilled normally, or failed right here when the query is expired /
    /// shed / racing close().
    template <class Arg, class Result>
    Future<Result> admit(Query<Arg, Result> query);

    /// One serving thread: take leadership, collect and seal a batch, hand
    /// leadership on, run the batch, ack its flush() marker; until close().
    void serve_loop(Server& server);

    /// The leader's half: pops into `server`'s batch under the size/deadline
    /// policy, with deadline triage, and ends each query's queue-wait span
    /// at the seal. `spin` = spin before parking on an empty queue. False
    /// once the queue is closed and drained.
    bool collect(Server& server, bool spin) REQUIRES(leader_);

    /// Runs `server`'s sealed batch inline: transfer and pole point groups,
    /// then delay corners.
    void execute(Server& server);

    /// The grouped-point executor shared by the transfer and pole lanes:
    /// stamps each point of `groups` (the batch's queries by parameter
    /// point) once (engine mode), answers every member with
    /// `solve(query, ws)` and commits one slab batch per group.
    template <class LaneT, class Groups, class Solve>
    void serve_groups(LaneT& lane, const Groups& groups, Solve solve,
                      mor::RomEvalWorkspace& ws);

    /// The delay lane: one TransientBatchRunner corner per query, all
    /// sharing the batch's forcing series.
    void serve_delays(Server& server, const std::vector<la::Vector>& forcing);

    /// Marks `server` idle and wakes any thread waiting to ack a flush().
    void retire(Server& server);

    /// Blocks until no serving thread runs a batch sealed before `seq`.
    void wait_for_batches_before(std::uint64_t seq);

    /// Fails every query of `pending` with `error` (tolerant: members that
    /// already answered keep their values) and finishes their traces as
    /// failures.
    template <class LaneT, class Pending>
    void fail_pending(LaneT& lane, Pending& pending, const std::exception_ptr& error);

    /// Closes out a query's trace at fulfilment time: fulfil span (last
    /// span end → `now_ns`, i.e. until its group's slab batch committed),
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
    /// Leadership: held by the one serving thread collecting a batch.
    util::Mutex leader_;
    std::uint64_t sealed_ GUARDED_BY(leader_) = 0;  ///< batches sealed so far
    /// flush() acks park here until the batches sealed before them retire.
    /// `ack_waiters_` lets a retiring thread skip the lock when none wait.
    util::Mutex retire_mutex_;
    util::CondVar retired_;
    std::atomic<int> ack_waiters_{0};
    /// Built in the constructor before any thread starts; never resized.
    std::vector<std::unique_ptr<Server>> servers_;
    util::Mutex close_mutex_;  ///< serializes close() callers around the join
    /// Written once in the constructor; joined under close_mutex_ — never
    /// touched concurrently outside that, so deliberately unguarded.
    std::vector<std::thread> threads_;  ///< last member: joins before the rest tears down
};

}  // namespace varmor::service
