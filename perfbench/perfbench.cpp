// The repository benchmark: one closed-loop run of one workload, printing the
// end-to-end metrics (or, with --trace 1, the per-layer metrics) as the last
// line of standard output. perfbench/run.py builds this program against the
// library sources and forwards its arguments:
//
//   perfbench --workload <mixed_q70|transfer_q14|reduce_cold> --seed <n>
//             --seconds <s> --trace <0|1>
//
// Workloads (see perfbench/README.md for why each exists):
//   mixed_q70     q~70 ROM on the Hessenberg lane; each request is one
//                 Monte-Carlo corner: full sweep + one delay + one pole query.
//   transfer_q14  q~14 ROM on the direct lane; short requests (a few
//                 frequencies of a revisited corner, poles on some).
//   reduce_cold   a stream of distinct nets of the paper's three families,
//                 each opened cold through a short-lived StudyService on one
//                 shared memory-only ModelCache smaller than the net pool.
//
// Every answer is checked: served queries bitwise against serve-alone
// references (transfer_now / delay_now / poles_now), opened models bitwise
// against a direct lowrank_pmor of the same net and, for accuracy, against
// the full model at seeded corners with the 2% bound of bench/fig3_rc_net.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <sys/resource.h>

#include "analysis/freq_sweep.h"
#include "analysis/transient_batch.h"
#include "analysis/variability_study.h"
#include "circuit/generators.h"
#include "circuit/mna.h"
#include "la/hessenberg.h"
#include "la/ops.h"
#include "la/simd.h"
#include "la/small_dense.h"
#include "mor/lowrank_pmor.h"
#include "mor/rom_eval.h"
#include "obs/metrics.h"
#include "service/study_service.h"
#include "sparse/splu.h"
#include "util/constants.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "util/timer.h"

using namespace varmor;
using la::cplx;
using la::ZMatrix;
using Clock = std::chrono::steady_clock;

namespace {

/// Set-up is repeated this many times per run and its median reported, so
/// one scheduler hiccup does not move setup_s.
constexpr int kSetupReps = 31;
/// Closed-loop callers, and the width of the program's pool (the flusher that
/// calls into it plus one worker), each capped by the cores present. Two
/// clients, the flusher and one worker keep the runnable threads within the
/// 4 cores of the reference host, so a run measures the program and not the
/// scheduler of a shared host.
constexpr int kMaxClients = 2;
constexpr int kPoolWidth = 2;
/// ROM accuracy bound of bench/fig3_rc_net, applied to every net.
constexpr double kAccuracyBound = 0.02;

std::int64_t now_ns() { return util::Timer::now_ns(); }

std::uint64_t mix(std::uint64_t seed, std::uint64_t salt) {
    std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + salt + 0x632be59bd9b4e019ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/// Nearest-rank quantile of an unsorted sample.
double quantile(std::vector<double> v, double q) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t k = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(v.size())));
    return v[std::min(v.size() - 1, k == 0 ? 0 : k - 1)];
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double mean(const std::vector<double>& v) {
    double s = 0.0;
    for (double x : v) s += x;
    return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

/// Median wall time in milliseconds of `reps` calls of f.
template <class F>
double median_ms(int reps, F&& f) {
    std::vector<double> ms;
    for (int r = 0; r < reps; ++r) {
        util::Timer t;
        f();
        ms.push_back(t.milliseconds());
    }
    return median(ms);
}

int capped_by_cores(int n) {
    const unsigned hw = std::thread::hardware_concurrency();
    return std::max(1, std::min(n, static_cast<int>(hw ? hw : 1)));
}

int client_count() { return capped_by_cores(kMaxClients); }

double rss_peak_mb() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: kilobytes
}

// ---------------------------------------------------------------------------
// Bitwise comparison of answers.
// ---------------------------------------------------------------------------

template <class T>
bool same_bits(const la::MatrixT<T>& a, const la::MatrixT<T>& b) {
    if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
    if (a.rows() == 0 || a.cols() == 0) return true;
    return std::memcmp(a.col_data(0), b.col_data(0),
                       sizeof(T) * static_cast<std::size_t>(a.rows()) *
                           static_cast<std::size_t>(a.cols())) == 0;
}

bool same_bits(const std::vector<cplx>& a, const std::vector<cplx>& b) {
    return a.size() == b.size() &&
           (a.empty() || std::memcmp(a.data(), b.data(), sizeof(cplx) * a.size()) == 0);
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

bool same_bits(const service::DelayResult& a, const service::DelayResult& b) {
    if (a.delay.has_value() != b.delay.has_value() || !same_bits(a.level, b.level))
        return false;
    return !a.delay || same_bits(*a.delay, *b.delay);
}

bool same_bits(const mor::ReducedModel& a, const mor::ReducedModel& b) {
    if (a.dg.size() != b.dg.size() || a.dc.size() != b.dc.size()) return false;
    for (std::size_t i = 0; i < a.dg.size(); ++i)
        if (!same_bits(a.dg[i], b.dg[i])) return false;
    for (std::size_t i = 0; i < a.dc.size(); ++i)
        if (!same_bits(a.dc[i], b.dc[i])) return false;
    return same_bits(a.g0, b.g0) && same_bits(a.c0, b.c0) && same_bits(a.b, b.b) &&
           same_bits(a.l, b.l);
}

// ---------------------------------------------------------------------------
// Accuracy: the ROM against the full model (VariabilityStudy::sweep).
// ---------------------------------------------------------------------------

/// The vertices of the box [-box, box]^np followed by `random` seeded
/// interior corners: the vertices pin the worst case, the seeded corners
/// sample the inside.
std::vector<std::vector<double>> accuracy_corners(int np, double box, int random,
                                                  util::Rng& rng) {
    std::vector<std::vector<double>> out;
    for (int m = 0; m < (1 << np); ++m) {
        std::vector<double> p(static_cast<std::size_t>(np));
        for (int i = 0; i < np; ++i) p[static_cast<std::size_t>(i)] = (m >> i & 1) ? box : -box;
        out.push_back(std::move(p));
    }
    for (int k = 0; k < random; ++k) {
        std::vector<double> p(static_cast<std::size_t>(np));
        for (double& x : p) x = rng.uniform(-box, box);
        out.push_back(std::move(p));
    }
    return out;
}

/// Largest norm-wise relative error max|H_rom - H| / max|H| over the corners
/// and frequencies.
double rom_rel_err(const circuit::ParametricSystem& sys, const mor::ReducedModel& rom,
                   const std::vector<std::vector<double>>& corners,
                   const std::vector<double>& freqs) {
    analysis::VariabilityStudy study(sys);
    study.set_rom(rom);
    analysis::SweepOptions serial;
    serial.threads = 1;
    double worst = 0.0;
    for (const std::vector<double>& p : corners) {
        const std::vector<ZMatrix> full = study.sweep(p, freqs, serial);
        const std::vector<ZMatrix> red = study.sweep_rom(p, freqs, 1);
        for (std::size_t i = 0; i < freqs.size(); ++i)
            worst = std::max(worst, la::norm_max(red[i] - full[i]) / la::norm_max(full[i]));
    }
    return worst;
}

/// Runs f(i) for i in [0, n) on up to `threads` plain threads (reference
/// answers only — the program's own pool is left to the program).
void parallel_for(int n, int threads, const std::function<void(int)>& f) {
    std::atomic<int> next{0};
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t)
        pool.emplace_back([&] {
            for (int i = next++; i < n; i = next++) f(i);
        });
    for (std::thread& th : pool) th.join();
}

// ---------------------------------------------------------------------------
// Output.
// ---------------------------------------------------------------------------

class Report {
public:
    void add(const std::string& name, double value, const std::string& unit) {
        metrics_.push_back({name, value, unit});
    }

    void print_lines() const {
        for (const Metric& m : metrics_)
            std::printf("metric %-36s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }

    std::string json() const {
        std::string out = "{";
        char buf[128];
        for (std::size_t i = 0; i < metrics_.size(); ++i) {
            std::snprintf(buf, sizeof buf, "%.17g", metrics_[i].value);
            out += (i ? ", \"" : "\"") + metrics_[i].name + "\": {\"value\": " + buf +
                   ", \"unit\": \"" + metrics_[i].unit + "\"}";
        }
        return out + "}";
    }

private:
    struct Metric {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Metric> metrics_;
};

void print_host() {
    const int pool = util::ThreadPool::global().size();
    const unsigned hw = std::thread::hardware_concurrency();
#if defined(VARMOR_SIMD_AVX2)
    const char* simd = "avx2-fma";
#else
    const char* simd = "scalar";
#endif
    std::printf("host {\"nproc\": %u, \"pool_width\": %d, \"effective_width\": %d, "
                "\"simd\": \"%s\", \"telemetry_compiled_in\": %s, \"compiler\": \"%s\", "
                "\"build_type\": \"%s\", \"clients\": %d}\n",
                hw, pool, std::min(pool, static_cast<int>(hw ? hw : 1)), simd,
                obs::kCompiledIn ? "true" : "false", PERFBENCH_COMPILER,
                PERFBENCH_BUILD_TYPE, client_count());
}

// ---------------------------------------------------------------------------
// Benchmark-side spans (traced phase only): kept in memory per client
// thread, summarised when the run ends.
// ---------------------------------------------------------------------------

struct SpanRecord {
    const char* name;
    int parent;  ///< index in the same log; -1 for a root
    std::uint64_t trace;
    std::int64_t begin;
    std::int64_t end;
};

class ScopedSpan {
public:
    ScopedSpan(std::vector<SpanRecord>* log, const char* name, int parent,
               std::uint64_t trace)
        : log_(log) {
        if (!log_) return;
        index_ = static_cast<int>(log_->size());
        log_->push_back({name, parent, trace, now_ns(), 0});
    }
    ~ScopedSpan() {
        if (log_) (*log_)[static_cast<std::size_t>(index_)].end = now_ns();
    }
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

    int index() const { return index_; }

private:
    std::vector<SpanRecord>* log_;
    int index_ = -1;
};

/// Per span name: count, mean duration and mean self time (duration minus
/// the time its child spans cover).
void print_span_summary(const std::vector<std::vector<SpanRecord>>& logs) {
    struct Agg {
        long long count = 0;
        double total = 0.0;
        double self = 0.0;
    };
    std::map<std::string, Agg> agg;
    for (const std::vector<SpanRecord>& log : logs) {
        std::vector<double> child(log.size(), 0.0);
        for (const SpanRecord& s : log)
            if (s.parent >= 0)
                child[static_cast<std::size_t>(s.parent)] += static_cast<double>(s.end - s.begin);
        for (std::size_t i = 0; i < log.size(); ++i) {
            Agg& a = agg[log[i].name];
            const double d = static_cast<double>(log[i].end - log[i].begin);
            ++a.count;
            a.total += d;
            a.self += d - child[i];
        }
    }
    for (const auto& [name, a] : agg)
        std::printf("span %-20s count %-8lld mean %.0f ns  self %.0f ns\n", name.c_str(),
                    a.count, a.total / static_cast<double>(a.count),
                    a.self / static_cast<double>(a.count));
}

// ---------------------------------------------------------------------------
// Closed-loop clients.
// ---------------------------------------------------------------------------

/// Latencies in fixed memory: log-spaced buckets 0.1% wide from 1 ns to
/// ~100 s, so the benchmark's own footprint does not grow with the run and
/// rss_peak_mb measures the program.
class LatencyLog {
public:
    void add(double ns) {
        ++counts_[static_cast<std::size_t>(bucket(ns))];
        ++n_;
        sum_ += ns;
    }
    void merge(const LatencyLog& o) {
        for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += o.counts_[i];
        n_ += o.n_;
        sum_ += o.sum_;
    }
    long long count() const { return n_; }
    double mean() const { return n_ ? sum_ / static_cast<double>(n_) : 0.0; }

    /// Nearest-rank quantile, read as the middle of its bucket.
    double quantile(double q) const {
        if (n_ == 0) return 0.0;
        const long long rank = std::max(1LL, static_cast<long long>(std::ceil(q * static_cast<double>(n_))));
        long long seen = 0;
        for (int i = 0; i < kBuckets; ++i) {
            seen += counts_[static_cast<std::size_t>(i)];
            if (seen >= rank) return std::exp((i + 0.5) * kLogStep);
        }
        return std::exp((kBuckets - 0.5) * kLogStep);
    }

    /// Samples in buckets above the one holding `ns`.
    long long count_above(double ns) const {
        long long n = 0;
        for (int i = bucket(ns) + 1; i < kBuckets; ++i) n += counts_[static_cast<std::size_t>(i)];
        return n;
    }

private:
    static constexpr int kBuckets = 26000;
    static inline const double kLogStep = std::log1p(1.0 / 1024);
    static int bucket(double ns) {
        if (!(ns > 1.0)) return 0;
        return std::min(kBuckets - 1, static_cast<int>(std::log(ns) / kLogStep));
    }
    std::vector<long long> counts_ = std::vector<long long>(kBuckets, 0);
    long long n_ = 0;
    double sum_ = 0.0;
};

struct Tally {
    long long attempted = 0;
    long long failed = 0;      ///< shed, expired, threw, degraded or wrong
    long long mismatched = 0;  ///< answers that differ from the program's own reference
    LatencyLog latency_ns;

    void merge(const Tally& o) {
        attempted += o.attempted;
        failed += o.failed;
        mismatched += o.mismatched;
        latency_ns.merge(o.latency_ns);
    }
};

/// One closed-loop request: sends it, waits for every answer, checks them
/// and records them in the calling client's tally (and spans, when traced).
using ClientStep = std::function<void(Tally& tally, std::vector<SpanRecord>* spans)>;

struct Phase {
    Tally tally;
    double seconds = 0.0;
    std::vector<std::vector<SpanRecord>> spans;

    double ops_per_s() const { return static_cast<double>(tally.attempted) / seconds; }
};

/// Runs `clients` closed-loop callers: each performs requests back to back
/// until `seconds` elapse (or `max_requests` each, when >= 0).
Phase run_clients(int clients, double seconds, int max_requests, bool traced,
                  const ClientStep& step) {
    Phase phase;
    std::vector<Tally> tallies(static_cast<std::size_t>(clients));
    phase.spans.resize(traced ? static_cast<std::size_t>(clients) : 0);
    const Clock::time_point start = Clock::now();
    const Clock::time_point stop =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));
    std::vector<std::thread> threads;
    for (int c = 0; c < clients; ++c)
        threads.emplace_back([&, c] {
            std::vector<SpanRecord>* log =
                traced ? &phase.spans[static_cast<std::size_t>(c)] : nullptr;
            for (int r = 0; max_requests < 0 || r < max_requests; ++r) {
                if (max_requests < 0 && Clock::now() >= stop) break;
                step(tallies[static_cast<std::size_t>(c)], log);
            }
        });
    for (std::thread& t : threads) t.join();
    phase.seconds = std::chrono::duration<double>(Clock::now() - start).count();
    for (const Tally& t : tallies) phase.tally.merge(t);
    return phase;
}

/// The end-to-end report of one untraced phase. `inaccurate` ops returned
/// exactly the reference answer but one that misses the accuracy bound: they
/// count in error_frac and not in the result's `failed`.
void report_end_to_end(const Phase& phase, double setup_s, double rel_err_max,
                       Report& report, long long inaccurate = 0) {
    const Tally& t = phase.tally;
    const double p99 = t.latency_ns.quantile(0.99);
    const long long beyond = t.latency_ns.count_above(p99);
    std::printf("ops attempted %lld failed %lld in %.3f s; latency samples %lld, %lld beyond p99%s\n",
                t.attempted, t.failed, phase.seconds, t.latency_ns.count(), beyond,
                beyond >= 10 ? "" : " (fewer than 10: p99 under-supported)");
    std::printf("metric %-36s %.6g %s\n", "error_frac",
                static_cast<double>(t.failed + inaccurate) /
                    static_cast<double>(std::max(1LL, t.attempted)),
                "1");
    if (inaccurate > 0)
        std::printf("error_frac counts %lld ops whose answer misses the accuracy bound\n",
                    inaccurate);
    report.add("ops_per_s", phase.ops_per_s(), "1/s");
    report.add("latency_p50_ms", t.latency_ns.quantile(0.5) / 1e6, "ms");
    report.add("latency_p99_ms", p99 / 1e6, "ms");
    report.add("setup_s", setup_s, "s");
    report.add("rel_err_max", rel_err_max, "1");
    report.add("rss_peak_mb", rss_peak_mb(), "MB");
}

// ---------------------------------------------------------------------------
// Kernel rows (workload-independent inputs drawn from the seed).
// ---------------------------------------------------------------------------

/// Median ns per call of `call(copy)` over `copies` pre-filled inputs, so
/// restoring the input is never inside the timed loop.
template <class Input, class Fill, class Call>
double kernel_ns(int copies, int rounds, Fill&& fill, Call&& call) {
    std::vector<Input> inputs(static_cast<std::size_t>(copies));
    std::vector<double> per_call;
    for (int r = 0; r < rounds; ++r) {
        for (Input& in : inputs) fill(in);
        const std::int64_t t0 = now_ns();
        for (Input& in : inputs) call(in);
        per_call.push_back(static_cast<double>(now_ns() - t0) / copies);
    }
    return median(per_call);
}

void probe_kernels(std::uint64_t seed, Report& report) {
    util::Rng rng(mix(seed, 0x6b));
    // Fixed-size LU at the padded N the q~14 direct lane dispatches to.
    constexpr int kN = la::small_padded_size(14);
    std::vector<cplx> a0(kN * kN), b0(kN * 2);
    for (int j = 0; j < kN; ++j)
        for (int i = 0; i < kN; ++i)
            a0[static_cast<std::size_t>(j * kN + i)] =
                cplx(rng.uniform(-1, 1) + (i == j ? kN : 0.0), rng.uniform(-1, 1));
    for (cplx& x : b0) x = cplx(rng.uniform(-1, 1), rng.uniform(-1, 1));
    struct SmallIn {
        std::vector<cplx> a, x;
        int perm[kN];
    };
    double sink = 0.0;
    const double small_ns = kernel_ns<SmallIn>(
        64, 41,
        [&](SmallIn& in) {
            in.a = a0;
            in.x.resize(b0.size());
        },
        [&](SmallIn& in) {
            la::small_lu_factor<kN>(in.a.data(), in.perm);
            for (int r = 0; r < 2; ++r)
                for (int i = 0; i < kN; ++i)
                    in.x[static_cast<std::size_t>(r * kN + i)] =
                        b0[static_cast<std::size_t>(r * kN + in.perm[i])];
            la::small_lu_substitute<kN>(in.a.data(), in.x.data(), 2);
            sink += in.x[0].real();
        });

    // Hessenberg solve at q = 70 (the mixed_q70 lane's per-frequency kernel).
    constexpr int kQ = 70;
    ZMatrix mt0(kQ, kQ), x0(kQ, 2);
    for (int j = 0; j < kQ; ++j)
        for (int i = 0; i < kQ; ++i)
            if (i + 1 >= j)  // M upper Hessenberg => MT lower Hessenberg
                mt0(i, j) = cplx(rng.uniform(-1, 1) + (i == j ? kQ : 0.0), rng.uniform(-1, 1));
    for (int r = 0; r < 2; ++r)
        for (int i = 0; i < kQ; ++i) x0(i, r) = cplx(rng.uniform(-1, 1), rng.uniform(-1, 1));
    struct HessIn {
        ZMatrix mt, x;
    };
    const double hess_ns = kernel_ns<HessIn>(
        16, 41,
        [&](HessIn& in) {
            in.mt = mt0;
            in.x = x0;
        },
        [&](HessIn& in) {
            la::hessenberg_solve_t(in.mt, in.x);
            sink += in.x(0, 0).real();
        });
    if (!std::isfinite(sink)) std::printf("kernel rows: non-finite result\n");
    report.add("la.small_lu_ns", small_ns, "ns");
    report.add("la.hessenberg_solve_ns", hess_ns, "ns");
}

// ---------------------------------------------------------------------------
// Layer rows on one net (shared by every workload).
// ---------------------------------------------------------------------------

/// One net the per-layer rows are measured on.
struct ProbeNet {
    std::function<circuit::ParametricSystem()> assemble;
    circuit::ParametricSystem sys;
    service::StudyServiceOptions opts;
    std::vector<std::vector<double>> corners;
    std::vector<double> freqs;
};

/// Accumulates per-net means of the layer rows.
struct LayerRows {
    std::map<std::string, std::vector<double>> rows;
    void add(const std::string& name, double v) { rows[name].push_back(v); }
};

void probe_net(const ProbeNet& net, LayerRows& out) {
    out.add("circuit.assemble_ms", median_ms(5, [&] { (void)net.assemble(); }));
    out.add("sparse.g0_factor_ms", median_ms(5, [&] { sparse::SparseLu lu(net.sys.g0); }));

    mor::LowRankPmorResult red;
    out.add("mor.reduce_ms",
            median_ms(3, [&] { red = mor::lowrank_pmor(net.sys, net.opts.reduction); }));
    out.add("mor.sparse_solves", static_cast<double>(red.sparse_solves));
    out.add("mor.rom_order", red.model.size());

    std::vector<double> cold, warm;
    for (int r = 0; r < 3; ++r) {
        service::ModelCache cache;
        {
            service::StudyService svc(cache, net.opts);
            util::Timer t;
            svc.open(net.sys);
            cold.push_back(t.milliseconds());
        }
        service::StudyService svc(cache, net.opts);
        util::Timer t;
        svc.open(net.sys);
        warm.push_back(t.milliseconds());
    }
    out.add("service.open_cold_ms", median(cold));
    out.add("service.open_warm_ms", median(warm));

    // RomEvalEngine rows on this net's ROM.
    const mor::RomEvalEngine engine(red.model);
    std::vector<double> stamp, first, rest, poles;
    double sink = 0.0;
    for (const std::vector<double>& p : net.corners) {
        mor::RomEvalWorkspace ws;
        std::int64_t t0 = now_ns();
        engine.stamp_parameters(p, ws);
        std::int64_t t1 = now_ns();
        const cplx s0(0.0, util::two_pi_f(net.freqs.front()));
        sink += engine.transfer(s0, ws)(0, 0).real();
        std::int64_t t2 = now_ns();
        stamp.push_back(static_cast<double>(t1 - t0));
        first.push_back(static_cast<double>(t2 - t1));
        for (std::size_t k = 1; k < net.freqs.size(); ++k) {
            const std::int64_t a = now_ns();
            sink += engine.transfer(cplx(0.0, util::two_pi_f(net.freqs[k])), ws)(0, 0).real();
            rest.push_back(static_cast<double>(now_ns() - a));
        }
        const std::int64_t a = now_ns();
        sink += static_cast<double>(engine.poles(ws).size());
        poles.push_back(static_cast<double>(now_ns() - a));
    }
    out.add("mor.engine.stamp_ns", median(stamp));
    out.add("mor.engine.first_transfer_ns", median(first));
    out.add("mor.engine.transfer_ns", median(rest));
    out.add("mor.engine.poles_ns", median(poles));
    std::vector<cplx> s_points;
    for (double f : net.freqs) s_points.emplace_back(0.0, util::two_pi_f(f));
    const double grid_ms = median_ms(3, [&] {
        sink += engine.transfer_grid(net.corners, s_points)[0][0](0, 0).real();
    });
    out.add("mor.engine.grid_ns_per_point",
            grid_ms * 1e6 / static_cast<double>(net.corners.size() * s_points.size()));

    // analysis rows.
    const analysis::TransientBatchRunner runner(net.sys, net.opts.transient.transient);
    const analysis::InputFn input = analysis::step_input(
        net.sys.num_ports(), net.opts.transient.input_port, net.opts.transient.amplitude);
    out.add("analysis.transient_corner_ms", median_ms(3, [&] {
                sink += runner.run(net.corners.front(), input).time.back();
            }));
    analysis::VariabilityStudy study(net.sys);
    study.set_rom(red.model);
    const double sweep_ms = median_ms(5, [&] {
        sink += study.sweep_rom(net.corners.front(), net.freqs)[0](0, 0).real();
    });
    out.add("analysis.study_ns_per_point", sweep_ms * 1e6 / static_cast<double>(net.freqs.size()));
    if (!std::isfinite(sink)) std::printf("layer rows: non-finite result\n");
}

/// One client, one query at a time: the batcher's own round-trip, in ns.
std::vector<double> batcher_roundtrips(service::StudySession& session, const ProbeNet& net) {
    std::vector<double> ns;
    for (int i = 0; i < 200; ++i) {
        const std::vector<double>& p = net.corners[static_cast<std::size_t>(i) % net.corners.size()];
        const cplx s(0.0, util::two_pi_f(net.freqs[static_cast<std::size_t>(i) % net.freqs.size()]));
        const std::int64_t t0 = now_ns();
        session.transfer(p, s).get();
        ns.push_back(static_cast<double>(now_ns() - t0));
    }
    return ns;
}

service::QueryBatcherStats stats_delta(const service::QueryBatcherStats& a,
                                       const service::QueryBatcherStats& b) {
    service::QueryBatcherStats d;
    d.queries = b.queries - a.queries;
    d.batches = b.batches - a.batches;
    d.transfer_queries = b.transfer_queries - a.transfer_queries;
    d.transfer_groups = b.transfer_groups - a.transfer_groups;
    d.shed = b.shed - a.shed;
    d.expired = b.expired - a.expired;
    d.flush_failures = b.flush_failures - a.flush_failures;
    return d;
}

/// What the serving layers did during one untraced phase.
struct ServingObservation {
    service::QueryBatcherStats batcher;
    util::ThreadPool::ProcessCounters pool;
    obs::Snapshot telemetry;
    double external_mean_ns = 0.0;  ///< client-observed submit -> get
    long long slab_capacity = 0;
};

/// Runs one untraced phase on `session`, capturing program telemetry for it.
template <class Run>
ServingObservation observe_serving(service::StudyService& svc,
                                   service::StudySession& session, Run&& run) {
    ServingObservation o;
    const service::QueryBatcherStats before = session.batcher().stats();
    obs::Registry::global().reset();
    util::ThreadPool::reset_process_counters();
    const Phase phase = run();
    o.batcher = stats_delta(before, session.batcher().stats());
    o.pool = util::ThreadPool::process_counters();
    o.telemetry = svc.telemetry();
    o.external_mean_ns = phase.tally.latency_ns.mean();
    o.slab_capacity = static_cast<long long>(session.batcher().transfer_slab_stats().capacity +
                                             session.batcher().delay_slab_stats().capacity +
                                             session.batcher().pole_slab_stats().capacity);
    return o;
}

void report_serving_layers(const ServingObservation& o, const service::ModelCacheStats& cache,
                           double roundtrip_ns, Report& report) {
    const service::QueryBatcherStats& b = o.batcher;
    report.add("service.cache.builds", static_cast<double>(cache.builds), "count");
    report.add("service.cache.memory_hits", static_cast<double>(cache.memory_hits), "count");
    report.add("service.batcher.roundtrip_ns", roundtrip_ns, "ns");
    report.add("service.batcher.queries_per_group",
               b.transfer_groups ? static_cast<double>(b.transfer_queries) /
                                       static_cast<double>(b.transfer_groups)
                                 : 0.0,
               "1");
    report.add("service.batcher.batch_mean",
               b.batches ? static_cast<double>(b.queries) / static_cast<double>(b.batches) : 0.0,
               "1");
    report.add("service.batcher.failed", static_cast<double>(b.shed + b.expired + b.flush_failures),
               "count");

    // Program spans next to the client's own submit -> get time.
    const char* stages[] = {"queue_wait", "stamp", "solve", "fulfil"};
    double stage_sum = 0.0;
    long long queries = 0;
    for (const char* stage : stages) {
        const std::string name = std::string("query.") + stage + "_ns";
        const auto it = o.telemetry.histograms.find(name);
        const obs::HistogramSnapshot h =
            it == o.telemetry.histograms.end() ? obs::HistogramSnapshot{} : it->second;
        report.add("obs." + name + ".p50", h.p50(), "ns");
        report.add("obs." + name + ".p99", h.p99(), "ns");
        stage_sum += static_cast<double>(h.sum);
        if (std::string(stage) == "queue_wait") queries = h.count();
    }
    const double explained = queries ? stage_sum / static_cast<double>(queries) : 0.0;
    report.add("bench.client.submit_get_ns", o.external_mean_ns, "ns");
    report.add("obs.query.explained_ns", explained, "ns");
    report.add("obs.span_gap_ns", o.external_mean_ns - explained, "ns");

    report.add("util.pool.steals", static_cast<double>(o.pool.steals), "count");
    report.add("util.pool.chunks", static_cast<double>(o.pool.chunks), "count");
    report.add("util.slab.capacity", static_cast<double>(o.slab_capacity), "count");
}

void report_layer_rows(const LayerRows& rows, Report& report) {
    static const std::map<std::string, std::string> units = {
        {"circuit.assemble_ms", "ms"},          {"sparse.g0_factor_ms", "ms"},
        {"mor.reduce_ms", "ms"},                {"mor.sparse_solves", "count"},
        {"mor.rom_order", "count"},             {"service.open_cold_ms", "ms"},
        {"service.open_warm_ms", "ms"},         {"mor.engine.stamp_ns", "ns"},
        {"mor.engine.first_transfer_ns", "ns"}, {"mor.engine.transfer_ns", "ns"},
        {"mor.engine.poles_ns", "ns"},          {"mor.engine.grid_ns_per_point", "ns"},
        {"analysis.transient_corner_ms", "ms"}, {"analysis.study_ns_per_point", "ns"}};
    for (const auto& [name, unit] : units) report.add(name, mean(rows.rows.at(name)), unit);
}

void report_trace_overhead(const Phase& untraced, const Phase& traced, Report& report) {
    print_span_summary(traced.spans);
    std::printf("trace overhead: untraced %.1f ops/s, traced %.1f ops/s\n",
                untraced.ops_per_s(), traced.ops_per_s());
    report.add("bench.trace_overhead_pct",
               100.0 * (untraced.ops_per_s() - traced.ops_per_s()) / untraced.ops_per_s(), "%");
}

// ---------------------------------------------------------------------------
// Serving workloads: mixed_q70 and transfer_q14.
// ---------------------------------------------------------------------------

struct ServingConfig {
    mor::LowRankPmorOptions reduction;
    service::QueryBatcherOptions batcher;
    int corners = 0;            ///< distinct corners the traffic draws from
    int freqs = 0;              ///< frequency grid size
    int freqs_per_request = 0;  ///< grid points asked per request (all = full sweep)
    double pole_share = 0.0;    ///< share of requests that also ask for poles
    bool delays = false;        ///< every request also asks for a delay
    double box = 0.25;          ///< corners lie in [-box, box]^np
};

ServingConfig serving_config(const std::string& workload) {
    ServingConfig c;
    c.batcher.max_batch = 64;
    c.batcher.threads = 0;
    c.batcher.max_pending = 4096;
    if (workload == "mixed_q70") {
        // bench/service_throughput's featured configuration (q ~ 70).
        c.reduction.s_order = 6;
        c.reduction.param_order = 4;
        c.reduction.rank = 2;
        c.batcher.max_wait_ms = 2.0;
        c.corners = 96;
        c.freqs = 32;
        c.freqs_per_request = 32;
        c.pole_share = 1.0;
        c.delays = true;
    } else {
        // Its small-model variant (q ~ 14, direct lane). Flushing immediately
        // keeps the closed loop off the 2 ms flush timer, so the per-query
        // machinery is what a request waits for.
        c.reduction.s_order = 2;
        c.reduction.param_order = 1;
        c.reduction.rank = 1;
        c.batcher.max_wait_ms = 0.0;
        c.corners = 32;
        c.freqs = 24;
        c.freqs_per_request = 4;
        c.pole_share = 0.25;
        c.delays = false;
    }
    return c;
}

struct Request {
    int corner = 0;
    std::vector<int> freqs;
    bool pole = false;
};

int run_serving(const std::string& workload, std::uint64_t seed, double seconds, bool traced) {
    const ServingConfig cfg = serving_config(workload);
    const int clients = client_count();

    // The served net is the fixture bench/service_throughput serves (fixed,
    // so accuracy and cost do not drift with the seed); the seed drives the
    // traffic: corners, frequency picks and request order.
    circuit::RandomRcOptions net_opts;
    net_opts.unknowns = 500;
    net_opts.num_params = 3;
    const auto assemble = [net_opts] { return circuit::assemble_mna(circuit::random_rc_net(net_opts)); };

    service::StudyServiceOptions opts;
    opts.reduction = cfg.reduction;
    opts.transient.transient.t_stop = 4e-9;
    opts.transient.transient.dt = 2e-11;
    opts.batcher = cfg.batcher;

    util::Rng rng(mix(seed, 1));
    std::vector<std::vector<double>> corners;
    for (int c = 0; c < cfg.corners; ++c) {
        std::vector<double> p(static_cast<std::size_t>(net_opts.num_params));
        for (double& x : p) x = rng.uniform(-cfg.box, cfg.box);
        corners.push_back(std::move(p));
    }
    const std::vector<double> freqs = analysis::log_frequencies(1e6, 1e10, cfg.freqs);
    std::vector<cplx> s_points;
    for (double f : freqs) s_points.emplace_back(0.0, util::two_pi_f(f));

    // A seeded request stream, consumed in order by whichever client is free.
    // Its first requests are the set-up's warm-up, sent again by every set-up
    // repetition; they all take every lane the workload uses, so setup_s does
    // not depend on which kinds of request the seed happened to draw first.
    constexpr int kWarmupPerClient = 2;
    const std::size_t warmup = static_cast<std::size_t>(kWarmupPerClient * clients);
    std::vector<Request> requests(4096);
    for (std::size_t i = 0; i < requests.size(); ++i) {
        Request& r = requests[i];
        r.corner = rng.below(cfg.corners);
        if (cfg.freqs_per_request >= cfg.freqs) {
            for (int k = 0; k < cfg.freqs; ++k) r.freqs.push_back(k);
        } else {
            while (static_cast<int>(r.freqs.size()) < cfg.freqs_per_request) {
                const int k = rng.below(cfg.freqs);
                if (std::find(r.freqs.begin(), r.freqs.end(), k) == r.freqs.end())
                    r.freqs.push_back(k);
            }
        }
        r.pole = i < warmup ? cfg.pole_share > 0.0 : rng.uniform() < cfg.pole_share;
    }
    std::atomic<std::size_t> next_request{0};

    circuit::ParametricSystem sys;
    std::unique_ptr<service::ModelCache> cache;
    std::unique_ptr<service::StudyService> svc;
    service::StudySession* session = nullptr;

    // Reference answers (filled after set-up), checked inside the loop.
    std::vector<std::vector<ZMatrix>> ref_transfer;
    std::vector<service::DelayResult> ref_delay;
    std::vector<std::vector<cplx>> ref_poles;
    bool have_refs = false;

    const ClientStep request = [&](Tally& tally, std::vector<SpanRecord>* spans) {
        const std::size_t id = next_request++;
        const Request& req = requests[id % requests.size()];
        const std::vector<double>& p = corners[static_cast<std::size_t>(req.corner)];
        ScopedSpan root(spans, "client.request", -1, id);
        std::vector<std::pair<int, service::Future<ZMatrix>>> tf;
        std::vector<std::int64_t> t_submit;
        std::optional<service::Future<service::DelayResult>> df;
        std::optional<service::Future<std::vector<cplx>>> pf;
        for (int k : req.freqs) {
            ScopedSpan s(spans, "service.submit", root.index(), id);
            t_submit.push_back(now_ns());
            tf.emplace_back(k, session->transfer(p, s_points[static_cast<std::size_t>(k)]));
        }
        if (cfg.delays) {
            ScopedSpan s(spans, "service.submit", root.index(), id);
            t_submit.push_back(now_ns());
            df = session->delay(p);
        }
        if (req.pole) {
            ScopedSpan s(spans, "service.submit", root.index(), id);
            t_submit.push_back(now_ns());
            pf = session->poles(p);
        }
        std::size_t op = 0;
        const auto collect = [&](auto& future, auto&& check) {
            ++tally.attempted;
            try {
                ScopedSpan s(spans, "service.get", root.index(), id);
                auto value = future.get();
                tally.latency_ns.add(static_cast<double>(now_ns() - t_submit[op]));
                if (have_refs && !check(value)) {
                    ++tally.failed;
                    ++tally.mismatched;
                }
            } catch (const std::exception&) {
                ++tally.failed;
            }
            ++op;
        };
        const std::size_t c = static_cast<std::size_t>(req.corner);
        for (auto& [k, f] : tf)
            collect(f, [&](const ZMatrix& h) {
                return same_bits(h, ref_transfer[c][static_cast<std::size_t>(k)]);
            });
        if (df) collect(*df, [&](const service::DelayResult& d) { return same_bits(d, ref_delay[c]); });
        if (pf) collect(*pf, [&](const std::vector<cplx>& v) { return same_bits(v, ref_poles[c]); });
    };

    // Set-up: assemble, open cold (one reduction), warm the serving path.
    std::vector<double> setup_times;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        svc.reset();
        cache.reset();
        next_request = 0;
        util::Timer t;
        sys = assemble();
        cache = std::make_unique<service::ModelCache>();
        svc = std::make_unique<service::StudyService>(*cache, opts);
        session = &svc->open(sys);
        run_clients(clients, 0.0, kWarmupPerClient, false, request);
        setup_times.push_back(t.seconds());
    }
    const double setup_s = median(setup_times);
    std::printf("served model: n = %d, q = %d (%s lane)\n", sys.size(),
                session->study().cached_rom().size(),
                session->study().cached_rom().size() < mor::RomEvalEngine::kDirectPathOrder
                    ? "direct"
                    : "Hessenberg");

    // Serve-alone references, once per distinct point, outside any timing.
    ref_transfer.assign(corners.size(), std::vector<ZMatrix>(freqs.size()));
    ref_delay.resize(corners.size());
    ref_poles.resize(corners.size());
    parallel_for(static_cast<int>(corners.size()), clients, [&](int c) {
        const std::size_t i = static_cast<std::size_t>(c);
        for (std::size_t k = 0; k < s_points.size(); ++k)
            ref_transfer[i][k] = session->transfer_now(corners[i], s_points[k]);
        if (cfg.delays) ref_delay[i] = session->delay_now(corners[i]);
        if (cfg.pole_share > 0.0) ref_poles[i] = session->poles_now(corners[i]);
    });
    have_refs = true;
    util::Rng acc_rng(mix(seed, 2));
    const double rel_err = rom_rel_err(
        sys, session->study().cached_rom(),
        accuracy_corners(sys.num_params(), cfg.box, 4, acc_rng), freqs);

    Report report;
    long long attempted = 0, failed = 0, mismatched = 0;
    const auto count = [&](const Phase& ph) {
        attempted += ph.tally.attempted;
        failed += ph.tally.failed;
        mismatched += ph.tally.mismatched;
    };
    if (!traced) {
        next_request = 0;
        const Phase phase = run_clients(clients, seconds, -1, false, request);
        count(phase);
        report_end_to_end(phase, setup_s, rel_err, report);
    } else {
        next_request = 0;
        Phase untraced;
        const ServingObservation obs_run = observe_serving(*svc, *session, [&] {
            untraced = run_clients(clients, seconds / 2, -1, false, request);
            return untraced;
        });
        count(untraced);
        const Phase traced_phase = run_clients(clients, seconds / 2, -1, true, request);
        count(traced_phase);
        report_trace_overhead(untraced, traced_phase, report);

        ProbeNet net{assemble, sys, opts, {}, freqs};
        net.corners.assign(corners.begin(), corners.begin() + 8);
        LayerRows rows;
        probe_net(net, rows);
        report_layer_rows(rows, report);
        probe_kernels(seed, report);
        report_serving_layers(obs_run, cache->stats(),
                              median(batcher_roundtrips(*session, net)), report);
    }
    report.print_lines();
    std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": %s}\n",
                mismatched == 0 ? "true" : "false", attempted, failed, report.json().c_str());
    return 0;
}

// ---------------------------------------------------------------------------
// reduce_cold: the write side of the model cache.
// ---------------------------------------------------------------------------

enum class Family { random_rc, rlc_bus, rcnet_a, rcnet_b };

const char* family_name(Family f) {
    switch (f) {
        case Family::random_rc: return "random_rc";
        case Family::rlc_bus: return "rlc_bus";
        case Family::rcnet_a: return "rcnet_a";
        case Family::rcnet_b: return "rcnet_b";
    }
    return "";
}

struct NetSpec {
    Family family = Family::random_rc;
    int size = 0;  ///< unknowns (RC) or segments per line (RLC); clock trees use presets
    std::uint64_t seed = 0;
};

/// Net pool: the family and size ladder is fixed, so every seed sees the
/// same mix of work; the seed picks each net's generator seed. Nine nets of
/// each family and size keep the p99 (the slowest nets' opens) from hanging
/// on one or two instances the seed drew.
std::vector<NetSpec> net_pool(std::uint64_t seed) {
    constexpr int kNets = 108;
    const int rc_sizes[] = {300, 500, 767};
    const int rlc_segments[] = {60, 120, 180};
    std::vector<NetSpec> pool;
    for (int i = 0; i < kNets; ++i) {
        NetSpec n;
        n.family = static_cast<Family>(i % 4);
        const int rung = (i / 4) % 3;
        n.size = n.family == Family::random_rc ? rc_sizes[rung]
                 : n.family == Family::rlc_bus ? rlc_segments[rung]
                                               : 0;
        n.seed = mix(seed, 100 + static_cast<std::uint64_t>(i));
        pool.push_back(n);
    }
    return pool;
}

circuit::ParametricSystem assemble_net(const NetSpec& n) {
    switch (n.family) {
        case Family::random_rc: {
            circuit::RandomRcOptions o;
            o.unknowns = n.size;
            o.num_params = 2;
            o.seed = n.seed;
            return circuit::assemble_mna(circuit::random_rc_net(o));
        }
        case Family::rlc_bus: {
            circuit::RlcBusOptions o;
            o.segments_per_line = n.size;
            o.seed = n.seed;
            return circuit::assemble_mna(circuit::coupled_rlc_bus(o));
        }
        case Family::rcnet_a:
        case Family::rcnet_b: {
            circuit::ClockTreeOptions o = n.family == Family::rcnet_a ? circuit::rcnet_a_options()
                                                                      : circuit::rcnet_b_options();
            o.seed = n.seed;
            return circuit::assemble_mna(circuit::clock_tree(o));
        }
    }
    return {};
}

/// Each family reduced with the options of its paper figure (fig3..fig6).
service::StudyServiceOptions family_options(Family f) {
    service::StudyServiceOptions o;
    mor::LowRankPmorOptions& r = o.reduction;
    switch (f) {
        case Family::random_rc: r.s_order = 4; r.param_order = 4; r.rank = 2; break;
        case Family::rlc_bus: r.s_order = 12; r.param_order = 12; r.rank = 1; break;
        case Family::rcnet_a: r.s_order = 4; r.param_order = 2; r.rank = 2; break;
        case Family::rcnet_b: r.s_order = 3; r.param_order = 3; r.rank = 3; break;
    }
    o.transient.transient.t_stop = 2e-9;
    o.transient.transient.dt = 2e-11;
    return o;
}

/// Variation box of each family: fig3's +-1 for the random RC net, the
/// paper's "maximum 30%" for the bus and the clock trees.
double family_box(Family f) { return f == Family::random_rc ? 1.0 : 0.3; }

std::vector<double> family_freqs(Family f) {
    return f == Family::rlc_bus ? analysis::linear_frequencies(0.5e10, 4.5e10, 12)
                                : analysis::log_frequencies(1e7, 1e10, 12);
}

int run_reduce_cold(std::uint64_t seed, double seconds, bool traced) {
    const int clients = client_count();
    const std::vector<NetSpec> pool = net_pool(seed);
    std::vector<circuit::ParametricSystem> systems;

    // Smaller than the pool, and one LRU order, so cycling through the pool
    // evicts every net before it comes round again: each open is a build.
    service::ModelCacheOptions cache_opts;
    cache_opts.memory_capacity = 8;
    cache_opts.memory_shards = 1;
    std::unique_ptr<service::ModelCache> cache;

    std::vector<mor::ReducedModel> ref_rom;
    std::vector<char> accurate;
    bool have_refs = false;
    std::atomic<std::size_t> next_net{0};
    // Opens of nets whose ROM misses the accuracy bound. The miss belongs to
    // the reduction of the net, not to the open (which returned exactly the
    // ROM of a direct reduction), so it counts in error_frac and shows in
    // rel_err_max, but not in the result's `failed`.
    std::atomic<long long> over_bound_opens{0};

    const ClientStep open_net = [&](Tally& tally, std::vector<SpanRecord>* spans) {
        const std::size_t id = next_net++;
        const std::size_t i = id % pool.size();
        ScopedSpan root(spans, "client.open", -1, id);
        ++tally.attempted;
        try {
            const std::int64_t t0 = now_ns();
            std::optional<service::StudyService> svc;
            {
                ScopedSpan s(spans, "service.construct", root.index(), id);
                svc.emplace(*cache, family_options(pool[i].family));
            }
            service::StudySession* session = nullptr;
            {
                ScopedSpan s(spans, "service.open", root.index(), id);
                session = &svc->open(systems[i]);
            }
            tally.latency_ns.add(static_cast<double>(now_ns() - t0));
            if (session->degraded()) {
                ++tally.failed;
            } else if (have_refs) {
                if (!same_bits(session->study().cached_rom(), ref_rom[i])) {
                    ++tally.failed;
                    ++tally.mismatched;
                } else if (!accurate[i]) {
                    over_bound_opens.fetch_add(1, std::memory_order_relaxed);
                }
            }
            ScopedSpan s(spans, "service.teardown", root.index(), id);
            svc.reset();
        } catch (const std::exception&) {
            ++tally.failed;
        }
    };

    // Set-up: assemble the pool, create the shared cache, and warm the open
    // path on a throwaway cache (so the shared one starts cold).
    std::vector<double> setup_times;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        util::Timer t;
        systems.clear();
        for (const NetSpec& n : pool) systems.push_back(assemble_net(n));
        cache = std::make_unique<service::ModelCache>(cache_opts);
        service::ModelCache warm_cache(cache_opts);
        for (std::size_t i = 0; i < 4; ++i) {
            service::StudyService svc(warm_cache, family_options(pool[i].family));
            svc.open(systems[i]);
        }
        setup_times.push_back(t.seconds());
    }
    const double setup_s = median(setup_times);

    // References: a direct reduction of every net, and its accuracy against
    // the full model at seeded corners.
    ref_rom.resize(pool.size());
    accurate.assign(pool.size(), 0);
    std::vector<double> errors(pool.size(), 0.0);
    parallel_for(static_cast<int>(pool.size()), clients, [&](int k) {
        const std::size_t i = static_cast<std::size_t>(k);
        const Family f = pool[i].family;
        ref_rom[i] = mor::lowrank_pmor(systems[i], family_options(f).reduction).model;
        util::Rng rng(mix(seed, 200 + i));
        errors[i] = rom_rel_err(systems[i], ref_rom[i],
                                accuracy_corners(systems[i].num_params(), family_box(f), 4, rng),
                                family_freqs(f));
        accurate[i] = errors[i] <= kAccuracyBound;
    });
    have_refs = true;
    std::map<std::string, std::pair<int, double>> by_family;  // nets over bound, worst error
    for (std::size_t i = 0; i < pool.size(); ++i) {
        auto& [over, worst] = by_family[family_name(pool[i].family)];
        over += !accurate[i];
        worst = std::max(worst, errors[i]);
    }
    for (const auto& [name, fw] : by_family)
        std::printf("accuracy %-10s %d of %zu nets over the %.0f%% bound, worst %.3e\n",
                    name.c_str(), fw.first, pool.size() / 4, 100 * kAccuracyBound, fw.second);
    const double rel_err = *std::max_element(errors.begin(), errors.end());

    Report report;
    long long attempted = 0, failed = 0, mismatched = 0;
    const auto count = [&](const Phase& ph) {
        attempted += ph.tally.attempted;
        failed += ph.tally.failed;
        mismatched += ph.tally.mismatched;
    };
    if (!traced) {
        const Phase phase = run_clients(clients, seconds, -1, false, open_net);
        count(phase);
        report_end_to_end(phase, setup_s, rel_err, report, over_bound_opens.load());
        const service::ModelCacheStats cs = cache->stats();
        std::printf("cache: %ld builds, %ld memory hits, %ld evictions\n", cs.builds,
                    cs.memory_hits, cs.evictions);
    } else {
        const Phase untraced = run_clients(clients, seconds / 2, -1, false, open_net);
        count(untraced);
        const service::ModelCacheStats cs = cache->stats();
        const Phase traced_phase = run_clients(clients, seconds / 2, -1, true, open_net);
        count(traced_phase);
        report_trace_overhead(untraced, traced_phase, report);

        // Layer rows: mean over one net of each family.
        LayerRows rows;
        std::vector<ProbeNet> nets;
        for (std::size_t i = 0; i < 4; ++i) {
            const Family f = pool[i].family;
            util::Rng rng(mix(seed, 300 + i));
            ProbeNet net{[&pool, i] { return assemble_net(pool[i]); }, systems[i],
                         family_options(f),
                         accuracy_corners(systems[i].num_params(), family_box(f), 4, rng),
                         family_freqs(f)};
            probe_net(net, rows);
            nets.push_back(std::move(net));
        }
        report_layer_rows(rows, report);
        probe_kernels(seed, report);

        // Serving is idle on this workload: the serving rows come from a
        // probe session on the first net, one client at a time.
        service::ModelCache probe_cache;
        service::StudyService probe_svc(probe_cache, nets[0].opts);
        service::StudySession& probe = probe_svc.open(nets[0].sys);
        std::vector<double> roundtrips;
        const ServingObservation o = observe_serving(probe_svc, probe, [&] {
            util::Timer t;
            Phase ph;
            roundtrips = batcher_roundtrips(probe, nets[0]);
            for (double ns : roundtrips) ph.tally.latency_ns.add(ns);
            ph.seconds = t.seconds();
            return ph;
        });
        report_serving_layers(o, cs, median(roundtrips), report);
    }
    report.print_lines();
    std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": %s}\n",
                mismatched == 0 ? "true" : "false", attempted, failed, report.json().c_str());
    return 0;
}

int usage() {
    std::fprintf(stderr,
                 "usage: perfbench --workload <mixed_q70|transfer_q14|reduce_cold> "
                 "--seed <n> --seconds <s> --trace <0|1>\n");
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool traced = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const char* value = argv[i + 1];
        if (key == "--workload") workload = value;
        else if (key == "--seed") seed = std::strtoull(value, nullptr, 10);
        else if (key == "--seconds") seconds = std::strtod(value, nullptr);
        else if (key == "--trace") traced = std::strcmp(value, "1") == 0;
        else return usage();
    }
    if (argc % 2 == 0 || !(seconds > 0.0)) return usage();
    // The pool is sized from VARMOR_NUM_THREADS on first use (here, in
    // print_host), so this fixes its width for the whole run.
    setenv("VARMOR_NUM_THREADS", std::to_string(capped_by_cores(kPoolWidth)).c_str(), 1);
    print_host();
    std::printf("workload %s seed %llu seconds %g trace %d\n", workload.c_str(),
                static_cast<unsigned long long>(seed), seconds, traced ? 1 : 0);
    std::fflush(stdout);
    try {
        if (workload == "mixed_q70" || workload == "transfer_q14")
            return run_serving(workload, seed, seconds, traced);
        if (workload == "reduce_cold") return run_reduce_cold(seed, seconds, traced);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
    return usage();
}
