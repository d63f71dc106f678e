// service::QueryBatcher — coalescing must be invisible in the results: a
// batch assembled from whatever traffic happened to interleave is BIT-
// IDENTICAL to serving every query alone, at any serving thread count.
// Also pinned: the size and deadline halves of the flush policy, flush()
// draining (including batches still running on another serving thread),
// idle serving threads parking, and per-query error isolation.

#include <gtest/gtest.h>

#include <sys/resource.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <future>  // std::future_status — the ticket's wait_for vocabulary
#include <string>
#include <thread>
#include <vector>

#include "analysis/transient_batch.h"
#include "mor/lowrank_pmor.h"
#include "mor/rom_eval.h"
#include "mor_test_utils.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "service/query_batcher.h"
#include "util/constants.h"
#include "util/fault_injection.h"

namespace varmor::service {
namespace {

using la::cplx;
using la::ZMatrix;
using varmor::testing::small_parametric_rc;

struct Fixture {
    circuit::ParametricSystem sys;
    mor::ReducedModel model;
    mor::RomEvalEngine engine;
    analysis::TransientBatchRunner runner;
    analysis::InputFn input;
    double level;

    static analysis::TransientOptions transient_opts() {
        analysis::TransientOptions t;
        t.t_stop = 10.0;
        t.dt = 0.5;
        return t;
    }

    Fixture()
        : sys(small_parametric_rc(40, 2, 123)),
          model([this] {
              mor::LowRankPmorOptions o;
              o.s_order = 3;
              o.param_order = 2;
              return mor::lowrank_pmor(sys, o).model;
          }()),
          engine(model),
          runner(sys, transient_opts()),
          input(analysis::step_input(sys.num_ports(), 0, 1.0)) {
        // Fixed absolute threshold (half the nominal settled response of the
        // last port) — what a serving session derives once and reuses.
        const std::vector<double> p0(2, 0.0);
        const analysis::TransientResult nominal = runner.run(p0, input);
        level = 0.5 * nominal.ports.back().back();
    }

    int observe() const { return sys.num_ports() - 1; }

    // The "serve each query alone" references the batcher must match bitwise.
    ZMatrix transfer_alone(const std::vector<double>& p, cplx s) const {
        mor::RomEvalWorkspace ws;
        engine.stamp_parameters(p, ws);
        return engine.transfer(s, ws);
    }
    DelayResult delay_alone(const std::vector<double>& p) const {
        const analysis::TransientResult wave = runner.run(p, input);
        return DelayResult{analysis::crossing_time(wave, observe(), level), level};
    }
    std::vector<cplx> poles_alone(const std::vector<double>& p) const {
        mor::RomEvalWorkspace ws;
        engine.stamp_parameters(p, ws);
        return engine.poles(ws);
    }
};

void expect_bit_identical(const ZMatrix& a, const ZMatrix& b) {
    ASSERT_EQ(a.rows(), b.rows());
    ASSERT_EQ(a.cols(), b.cols());
    for (std::size_t k = 0; k < a.raw().size(); ++k) {
        EXPECT_EQ(a.raw()[k].real(), b.raw()[k].real());
        EXPECT_EQ(a.raw()[k].imag(), b.raw()[k].imag());
    }
}

/// Deterministic per-client query arguments (client index seeds the values).
std::vector<double> corner_of(int client, int j) {
    return {0.05 * client - 0.2, 0.03 * j - 0.1};
}

TEST(QueryBatcher, ThreadedCoalescingBitIdenticalToServingAlone) {
    Fixture fx;
    const int kClients = 8;
    const int kTransfersPer = 6;
    const int kDelaysPer = 2;
    const int kPolesPer = 2;
    const auto s_of = [](int j) { return cplx(0.0, util::two_pi_f(0.01 + 0.05 * j)); };

    // One serving thread, two in leader/followers, and as many as the
    // process-wide pool — the contract is "bit-identical at any thread
    // count".
    for (int exec_threads : {1, 2, 0}) {
        QueryBatcherOptions opts;
        opts.max_batch = 16;
        opts.max_wait_ms = 20.0;
        opts.threads = exec_threads;
        QueryBatcher batcher(fx.engine, &fx.runner, fx.input, fx.level, fx.observe(),
                             opts);

        std::vector<std::vector<Future<ZMatrix>>> tf(kClients);
        std::vector<std::vector<Future<DelayResult>>> df(kClients);
        std::vector<std::vector<Future<std::vector<cplx>>>> pf(kClients);
        std::vector<std::thread> clients;
        for (int c = 0; c < kClients; ++c)
            clients.emplace_back([&, c] {
                // Interleave classes so batches mix heterogeneous queries;
                // transfer corners repeat across clients (c % 2) so grouping
                // has real coalescing opportunities.
                for (int j = 0; j < kTransfersPer; ++j) {
                    tf[c].push_back(batcher.submit_transfer(corner_of(c % 2, j), s_of(j)));
                    if (j < kDelaysPer) df[c].push_back(batcher.submit_delay(corner_of(c, j)));
                    if (j < kPolesPer) pf[c].push_back(batcher.submit_poles(corner_of(j, c)));
                }
            });
        for (std::thread& t : clients) t.join();

        for (int c = 0; c < kClients; ++c) {
            for (int j = 0; j < kTransfersPer; ++j)
                expect_bit_identical(tf[c][static_cast<std::size_t>(j)].get(),
                                     fx.transfer_alone(corner_of(c % 2, j), s_of(j)));
            for (int j = 0; j < kDelaysPer; ++j) {
                const DelayResult got = df[c][static_cast<std::size_t>(j)].get();
                const DelayResult ref = fx.delay_alone(corner_of(c, j));
                EXPECT_EQ(got.delay.has_value(), ref.delay.has_value());
                if (got.delay) EXPECT_EQ(*got.delay, *ref.delay);
                EXPECT_EQ(got.level, ref.level);
            }
            for (int j = 0; j < kPolesPer; ++j) {
                const auto got = pf[c][static_cast<std::size_t>(j)].get();
                const auto ref = fx.poles_alone(corner_of(j, c));
                ASSERT_EQ(got.size(), ref.size());
                for (std::size_t k = 0; k < got.size(); ++k) {
                    EXPECT_EQ(got[k].real(), ref[k].real());
                    EXPECT_EQ(got[k].imag(), ref[k].imag());
                }
            }
        }

        const QueryBatcherStats stats = batcher.stats();
        EXPECT_EQ(stats.queries,
                  kClients * (kTransfersPer + kDelaysPer + kPolesPer));
        EXPECT_GE(stats.batches, 1);
        // Clients share corner_of(c, j) points across transfer queries, so
        // grouping must have coalesced at least some stamps.
        EXPECT_EQ(stats.transfer_queries, kClients * kTransfersPer);
        EXPECT_LE(stats.transfer_groups, stats.transfer_queries);
    }
}

TEST(QueryBatcher, DeadlineFlushesAnUndersizedBatch) {
    Fixture fx;
    QueryBatcherOptions opts;
    opts.max_batch = 1000;  // size trigger unreachable
    opts.max_wait_ms = 5.0;
    opts.threads = 1;
    QueryBatcher batcher(fx.engine, nullptr, {}, 0.0, 0, opts);

    // A single query must be answered after ~max_wait_ms, not held hostage
    // for a full batch.
    auto f = batcher.submit_transfer({0.1, -0.1}, cplx(0.0, 1.0));
    ASSERT_EQ(f.wait_for(std::chrono::seconds(30)), std::future_status::ready);
    expect_bit_identical(f.get(), fx.transfer_alone({0.1, -0.1}, cplx(0.0, 1.0)));
    EXPECT_GE(batcher.stats().batches, 1);
}

TEST(QueryBatcher, QueueWaitSpanCoversTheFlushTimer) {
    // A lone query sits out the whole collect window before the flush timer
    // seals its batch. That wait is queue time: the span must end at the
    // seal, not when the leader popped the query.
    Fixture fx;
    QueryBatcherOptions opts;
    opts.max_batch = 1000;  // size trigger unreachable
    opts.max_wait_ms = 20.0;
    opts.threads = 1;
    QueryBatcher batcher(fx.engine, nullptr, {}, 0.0, 0, opts);

    obs::Histogram& queue_wait = obs::Registry::global().histogram("query.queue_wait_ns");
    const obs::HistogramSnapshot before = queue_wait.snapshot();
    obs::TraceStore::global().clear();
    batcher.submit_transfer({0.1, -0.1}, cplx(0.0, 1.0)).get();
    batcher.flush();  // the trace is finished once its batch is done
    const obs::HistogramSnapshot after = queue_wait.snapshot();

    if (!obs::kCompiledIn) {
        EXPECT_EQ(after.count(), before.count());
        return;
    }
    const long long kWindowNs = 20'000'000;
    ASSERT_EQ(after.count() - before.count(), 1);
    EXPECT_GE(after.sum - before.sum, kWindowNs);
    const std::vector<obs::TraceRecord> traces = obs::TraceStore::global().dump();
    ASSERT_EQ(traces.size(), 1u);
    EXPECT_GE(traces[0].trace.stage_ns(obs::Stage::kQueueWait), kWindowNs);
}

TEST(QueryBatcher, SizeTriggerFlushesWithoutWaitingForDeadline) {
    Fixture fx;
    QueryBatcherOptions opts;
    opts.max_batch = 4;
    opts.max_wait_ms = 60000.0;  // deadline effectively unreachable
    opts.threads = 1;
    QueryBatcher batcher(fx.engine, nullptr, {}, 0.0, 0, opts);

    std::vector<Future<ZMatrix>> fs;
    for (int j = 0; j < 4; ++j)
        fs.push_back(batcher.submit_transfer({0.02 * j, 0.0}, cplx(0.0, 1.0 + j)));
    // If only the (1-minute) deadline could flush, this would time out.
    for (auto& f : fs)
        ASSERT_EQ(f.wait_for(std::chrono::seconds(30)), std::future_status::ready);
    EXPECT_GE(batcher.stats().largest_batch, 4);
}

TEST(QueryBatcher, FlushDrainsEverythingSubmittedBefore) {
    Fixture fx;
    QueryBatcherOptions opts;
    opts.max_batch = 1000;
    opts.max_wait_ms = 60000.0;
    opts.threads = 1;
    QueryBatcher batcher(fx.engine, &fx.runner, fx.input, fx.level, fx.observe(),
                         opts);

    auto t = batcher.submit_transfer({0.1, 0.1}, cplx(0.0, 2.0));
    auto d = batcher.submit_delay({0.1, 0.1});
    batcher.flush();
    EXPECT_EQ(t.wait_for(std::chrono::seconds(0)), std::future_status::ready);
    EXPECT_EQ(d.wait_for(std::chrono::seconds(0)), std::future_status::ready);

    // flush() on an idle batcher returns promptly.
    batcher.flush();
}

TEST(QueryBatcher, FlushWaitsForBatchesSealedBeforeIt) {
    // Two serving threads: the first query's batch stalls in its stamp on
    // one thread while the other serves the second query and then collects
    // the flush marker. That thread must not ack the marker until the
    // stalled batch — sealed before the marker — has finished too.
    Fixture fx;
    QueryBatcherOptions opts;
    opts.max_batch = 16;
    opts.max_wait_ms = 0.0;
    opts.threads = 2;
    QueryBatcher batcher(fx.engine, nullptr, {}, 0.0, 0, opts);

    const std::vector<double> slow_p = {0.1, -0.1};
    std::atomic<bool> stalled{false};
    const util::FaultInjector::Handler stall = util::FaultInjector::sleep_for(300.0);
    util::ScopedFault fault(
        "query_batcher.stamp",
        [&, stall](const std::string& point, const std::string& detail) {
            if (detail != std::to_string(slow_p[0])) return;
            stalled.store(true);
            stall(point, detail);
        });

    auto slow = batcher.submit_transfer(slow_p, cplx(0.0, 1.0));
    while (!stalled.load()) std::this_thread::yield();
    auto fast = batcher.submit_transfer({0.2, -0.1}, cplx(0.0, 1.0));
    batcher.flush();
    EXPECT_EQ(slow.wait_for(std::chrono::seconds(0)), std::future_status::ready);
    EXPECT_EQ(fast.wait_for(std::chrono::seconds(0)), std::future_status::ready);
    expect_bit_identical(slow.get(), fx.transfer_alone(slow_p, cplx(0.0, 1.0)));
}

TEST(QueryBatcher, IdleServingThreadsDoNotSpin) {
    // A batcher that has served nothing parks every serving thread at once:
    // over 100 ms of wall time its four threads add (almost) no CPU time.
    Fixture fx;
    QueryBatcherOptions opts;
    opts.threads = 4;
    QueryBatcher batcher(fx.engine, nullptr, {}, 0.0, 0, opts);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));  // threads settle

    const auto cpu_ms = [] {
        rusage usage{};
        getrusage(RUSAGE_SELF, &usage);
        const auto ms = [](const timeval& tv) { return tv.tv_sec * 1e3 + tv.tv_usec * 1e-3; };
        return ms(usage.ru_utime) + ms(usage.ru_stime);
    };
    const double before = cpu_ms();
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    EXPECT_LT(cpu_ms() - before, 5.0);
}

TEST(QueryBatcher, PerQueryErrorsDoNotPoisonTheBatch) {
    Fixture fx;
    QueryBatcherOptions opts;
    opts.max_batch = 16;
    opts.max_wait_ms = 20.0;
    opts.threads = 1;
    QueryBatcher batcher(fx.engine, &fx.runner, fx.input, fx.level, fx.observe(),
                         opts);

    // Transfer lane: a wrong-arity query fails alone.
    auto good = batcher.submit_transfer({0.1, -0.1}, cplx(0.0, 1.0));
    auto bad = batcher.submit_transfer({0.1}, cplx(0.0, 1.0));  // wrong arity
    // Delay lane: a bad corner coalesced with a good one fails alone too
    // (the batch falls back to per-corner serving on failure).
    auto good_delay = batcher.submit_delay({0.1, -0.1});
    auto bad_delay = batcher.submit_delay({0.1, 0.2, 0.3});  // wrong arity
    // Pole lane likewise.
    auto good_poles = batcher.submit_poles({0.1, -0.1});
    auto bad_poles = batcher.submit_poles({});  // wrong arity
    batcher.flush();

    EXPECT_THROW(bad.get(), Error);
    expect_bit_identical(good.get(), fx.transfer_alone({0.1, -0.1}, cplx(0.0, 1.0)));
    EXPECT_THROW(bad_delay.get(), Error);
    const DelayResult got = good_delay.get();
    const DelayResult ref = fx.delay_alone({0.1, -0.1});
    EXPECT_EQ(got.delay.has_value(), ref.delay.has_value());
    if (got.delay) EXPECT_EQ(*got.delay, *ref.delay);
    EXPECT_THROW(bad_poles.get(), Error);
    EXPECT_EQ(good_poles.get().size(), fx.poles_alone({0.1, -0.1}).size());
}

TEST(QueryBatcher, DelayWithoutRunnerIsRejected) {
    Fixture fx;
    QueryBatcher batcher(fx.engine, nullptr, {}, 0.0, 0, {});
    EXPECT_THROW(batcher.submit_delay({0.0, 0.0}), Error);
}

}  // namespace
}  // namespace varmor::service
