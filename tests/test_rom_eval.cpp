#include <gtest/gtest.h>

#include <complex>
#include <vector>

#include "analysis/freq_sweep.h"
#include "la/ops.h"
#include "mor/prima.h"
#include "mor/reduced_model.h"
#include "mor/rom_eval.h"
#include "mor_test_utils.h"
#include "test_helpers.h"
#include "util/constants.h"

namespace varmor::mor {
namespace {

using la::cplx;
using la::ZMatrix;

/// A reduced parametric model of a small random RC tree (q = blocks * ports).
ReducedModel make_model(int nodes = 40, int num_params = 3, std::uint64_t seed = 7,
                        int blocks = 6) {
    const circuit::ParametricSystem sys =
        testing::small_parametric_rc(nodes, num_params, seed);
    PrimaOptions popts;
    popts.blocks = blocks;
    const la::Matrix v =
        prima_basis_at(sys, std::vector<double>(static_cast<std::size_t>(num_params), 0.0),
                       popts);
    return project(sys, v);
}

std::vector<std::vector<double>> make_samples(int count, int num_params,
                                              std::uint64_t seed) {
    util::Rng rng(seed);
    std::vector<std::vector<double>> samples;
    for (int k = 0; k < count; ++k) {
        std::vector<double> p(static_cast<std::size_t>(num_params));
        for (double& x : p) x = rng.uniform(-0.2, 0.2);
        samples.push_back(std::move(p));
    }
    // Include the nominal point: its skip-zero stamping path must agree too.
    samples.push_back(std::vector<double>(static_cast<std::size_t>(num_params), 0.0));
    return samples;
}

std::vector<cplx> make_s_points(int count) {
    std::vector<cplx> s;
    for (double f : analysis::log_frequencies(1e6, 1e10, count))
        s.emplace_back(0.0, util::two_pi_f(f));
    return s;
}

double max_grid_deviation(const std::vector<std::vector<ZMatrix>>& a,
                          const std::vector<std::vector<ZMatrix>>& b) {
    double dev = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i)
        for (std::size_t j = 0; j < a[i].size(); ++j)
            dev = std::max(dev, la::norm_max(a[i][j] - b[i][j]));
    return dev;
}

TEST(RomEvalEngine, GridBitIdenticalToLoopedTransfer) {
    const ReducedModel model = make_model();
    const RomEvalEngine engine(model);
    const auto samples = make_samples(5, model.num_params(), 11);
    const auto s_points = make_s_points(7);

    std::vector<std::vector<ZMatrix>> looped;
    for (const auto& p : samples) {
        std::vector<ZMatrix> row;
        for (const cplx& s : s_points) row.push_back(model.transfer(s, p));
        looped.push_back(std::move(row));
    }

    for (int threads : {1, 8}) {
        const auto grid = engine.transfer_grid(samples, s_points, threads);
        EXPECT_EQ(max_grid_deviation(grid, looped), 0.0)
            << "engine grid deviates from looped transfer() at threads=" << threads;
    }
}

TEST(RomEvalEngine, SensitivityBitIdenticalToLooped) {
    const ReducedModel model = make_model();
    const RomEvalEngine engine(model);
    const auto samples = make_samples(3, model.num_params(), 13);
    const cplx s(0.0, util::two_pi_f(3e8));

    RomEvalWorkspace ws;
    for (const auto& p : samples) {
        engine.stamp_parameters(p, ws);
        for (int i = 0; i < model.num_params(); ++i) {
            const ZMatrix looped = model.transfer_sensitivity(s, p, i);
            const ZMatrix batched = engine.transfer_sensitivity(s, i, ws);
            EXPECT_EQ(la::norm_max(batched - looped), 0.0) << "param " << i;
        }
    }
}

TEST(RomEvalEngine, SensitivityHessenbergLaneMatchesDirectFactorization) {
    // q = 24 >= kDirectPathOrder: sensitivities route through the per-sample
    // Hessenberg form (two O(q^2) solves) instead of factoring the complex
    // pencil per frequency. Validate against the explicit direct formula
    // -L~^T K^-1 dK K^-1 B~ with tolerance (mathematically equal, different
    // factorization), and pin looped-vs-batched bitwise (one code path).
    const ReducedModel model = make_model(80, 3, 7, 12);  // q = 24
    ASSERT_GE(model.size(), RomEvalEngine::kDirectPathOrder);
    const RomEvalEngine engine(model);
    const cplx s(0.0, util::two_pi_f(5e8));

    RomEvalWorkspace ws;
    for (const auto& p : make_samples(2, model.num_params(), 61)) {
        engine.stamp_parameters(p, ws);
        (void)engine.transfer(s, ws);
        ASSERT_FALSE(ws.direct_path);

        const la::Matrix gp = model.g_at(p);
        const la::Matrix cp = model.c_at(p);
        la::ZMatrix k(gp.rows(), gp.cols());
        for (std::size_t e = 0; e < k.raw().size(); ++e)
            k.raw()[e] = gp.raw()[e] + s * cp.raw()[e];
        const la::DenseLu<cplx> klu(k);
        const ZMatrix x = klu.solve(la::to_complex(model.b));
        const la::ZMatrix lt = la::transpose(la::to_complex(model.l));

        for (int i = 0; i < model.num_params(); ++i) {
            const ZMatrix batched = engine.transfer_sensitivity(s, i, ws);
            const ZMatrix looped = model.transfer_sensitivity(s, p, i);
            EXPECT_EQ(la::norm_max(batched - looped), 0.0) << "param " << i;

            const auto ui = static_cast<std::size_t>(i);
            la::ZMatrix dk(gp.rows(), gp.cols());
            for (std::size_t e = 0; e < dk.raw().size(); ++e)
                dk.raw()[e] = model.dg[ui].raw()[e] + s * model.dc[ui].raw()[e];
            ZMatrix ref = la::matmul(lt, klu.solve(la::matmul(dk, x)));
            for (cplx& v : ref.raw()) v = -v;
            EXPECT_LE(la::norm_max(batched - ref), 1e-9 * (1.0 + la::norm_max(ref)))
                << "param " << i;
        }
    }
}

TEST(RomEvalEngine, SensitivityWithoutPriorTransferPreparesItself) {
    // transfer_sensitivity as the FIRST per-sample call must trigger the
    // same preparation transfer() would — and agree bitwise with the
    // sensitivity computed after a transfer() warmed the workspace.
    const ReducedModel model = make_model(80, 3, 7, 12);  // q = 24
    const RomEvalEngine engine(model);
    const cplx s(0.0, util::two_pi_f(1e9));
    const std::vector<double> p{0.05, -0.1, 0.15};

    RomEvalWorkspace cold, warm;
    engine.stamp_parameters(p, cold);
    engine.stamp_parameters(p, warm);
    (void)engine.transfer(s, warm);
    for (int i = 0; i < model.num_params(); ++i)
        EXPECT_EQ(la::norm_max(engine.transfer_sensitivity(s, i, cold) -
                               engine.transfer_sensitivity(s, i, warm)),
                  0.0)
            << "param " << i;
}

TEST(RomEvalEngine, PolesBitIdenticalToModelPoles) {
    const ReducedModel model = make_model();
    const RomEvalEngine engine(model);
    RomEvalWorkspace ws;
    for (const auto& p : make_samples(4, model.num_params(), 17)) {
        engine.stamp_parameters(p, ws);
        const auto batched = engine.poles(ws);
        const auto looped = model.poles(p);
        ASSERT_EQ(batched.size(), looped.size());
        for (std::size_t k = 0; k < batched.size(); ++k)
            EXPECT_EQ(batched[k], looped[k]) << "pole " << k;
    }
}

TEST(RomEvalEngine, WorkspaceReuseIsDeterministic) {
    // One workspace across samples of different character (zero / nonzero
    // parameters) must give the same answers as a fresh workspace per call.
    const ReducedModel model = make_model();
    const RomEvalEngine engine(model);
    const auto samples = make_samples(4, model.num_params(), 19);
    const cplx s(0.0, util::two_pi_f(1e9));

    RomEvalWorkspace reused;
    for (const auto& p : samples) {
        RomEvalWorkspace fresh;
        engine.stamp_parameters(p, reused);
        engine.stamp_parameters(p, fresh);
        EXPECT_EQ(la::norm_max(engine.transfer(s, reused) - engine.transfer(s, fresh)),
                  0.0);
    }
}

TEST(RomEvalEngine, TransferRequiresStamp) {
    const ReducedModel model = make_model(20, 2, 3, 4);
    const RomEvalEngine engine(model);
    RomEvalWorkspace ws;
    EXPECT_THROW(engine.transfer(cplx(0, 1), ws), Error);
    engine.stamp_parameters({0.1, -0.1}, ws);
    EXPECT_NO_THROW(engine.transfer(cplx(0, 1), ws));
    EXPECT_THROW(engine.transfer_sensitivity(cplx(0, 1), 2, ws), Error);
    EXPECT_THROW(engine.stamp_parameters({0.1}, ws), Error);
}

TEST(RomEvalEngine, SweepReducedMatchesLoopAtAnyThreadCount) {
    const ReducedModel model = make_model();
    const std::vector<double> p{0.05, -0.1, 0.15};
    const auto freqs = analysis::log_frequencies(1e6, 1e10, 12);

    std::vector<ZMatrix> looped;
    for (double f : freqs)
        looped.push_back(model.transfer(cplx(0.0, util::two_pi_f(f)), p));

    for (int threads : {1, 8}) {
        const auto swept = analysis::sweep_reduced(model, p, freqs, threads);
        ASSERT_EQ(swept.size(), looped.size());
        for (std::size_t i = 0; i < swept.size(); ++i)
            EXPECT_EQ(la::norm_max(swept[i] - looped[i]), 0.0)
                << "frequency " << i << " at threads=" << threads;
    }
}

TEST(RomEvalEngine, SmallModelsTakeTheDirectFastLane) {
    // Below kDirectPathOrder the one-shot path must skip the per-sample
    // Hessenberg preparation and use the direct dense-pencil kernel — while
    // staying bit-identical between looped transfer() and engine grids (the
    // threshold depends only on q, so both sides take the same branch).
    const ReducedModel model = make_model(30, 2, 23, 4);  // q = 8 < 20
    ASSERT_LT(model.size(), RomEvalEngine::kDirectPathOrder);
    const RomEvalEngine engine(model);
    RomEvalWorkspace ws;
    engine.stamp_parameters({0.1, -0.05}, ws);
    const cplx s(0.0, util::two_pi_f(1e9));
    const ZMatrix h = engine.transfer(s, ws);
    EXPECT_TRUE(ws.direct_path);

    // The fast lane computes the same transfer function: compare against an
    // explicit dense pencil solve L~^T (G~ + sC~)^-1 B~.
    const la::Matrix gp = model.g_at({0.1, -0.05});
    const la::Matrix cp = model.c_at({0.1, -0.05});
    la::ZMatrix k(gp.rows(), gp.cols());
    for (std::size_t e = 0; e < k.raw().size(); ++e)
        k.raw()[e] = gp.raw()[e] + s * cp.raw()[e];
    const ZMatrix ref = la::matmul(la::transpose(la::to_complex(model.l)),
                                   la::DenseLu<cplx>(k).solve(la::to_complex(model.b)));
    EXPECT_LE(la::norm_max(h - ref), 1e-12 * (1.0 + la::norm_max(ref)));

    // Grid == loop stays bitwise on the fast lane.
    const auto samples = make_samples(3, model.num_params(), 29);
    const auto s_points = make_s_points(5);
    std::vector<std::vector<ZMatrix>> looped;
    for (const auto& p : samples) {
        std::vector<ZMatrix> row;
        for (const cplx& sp : s_points) row.push_back(model.transfer(sp, p));
        looped.push_back(std::move(row));
    }
    for (int threads : {1, 8})
        EXPECT_EQ(max_grid_deviation(engine.transfer_grid(samples, s_points, threads),
                                     looped), 0.0);
}

TEST(RomEvalEngine, LargeModelsKeepTheHessenbergPath) {
    // Above the threshold the per-sample Hessenberg reduction stays in play
    // (the batched O(q^2)-per-frequency claim), and grids remain bitwise
    // equal to looped transfer() calls.
    const ReducedModel model = make_model(80, 3, 7, 12);  // q = 24 >= 20
    ASSERT_GE(model.size(), RomEvalEngine::kDirectPathOrder);
    const RomEvalEngine engine(model);
    RomEvalWorkspace ws;
    engine.stamp_parameters({0.05, -0.1, 0.0}, ws);
    (void)engine.transfer(cplx(0.0, util::two_pi_f(1e9)), ws);
    EXPECT_FALSE(ws.direct_path);

    const auto samples = make_samples(3, model.num_params(), 37);
    const auto s_points = make_s_points(5);
    std::vector<std::vector<ZMatrix>> looped;
    for (const auto& p : samples) {
        std::vector<ZMatrix> row;
        for (const cplx& sp : s_points) row.push_back(model.transfer(sp, p));
        looped.push_back(std::move(row));
    }
    for (int threads : {1, 8})
        EXPECT_EQ(max_grid_deviation(engine.transfer_grid(samples, s_points, threads),
                                     looped), 0.0);
}

TEST(RomEvalEngine, SingularGFallsBackToDirectPencil) {
    // G~ singular but the pencil G~ + sC~ invertible at s != 0: a pure
    // capacitor. At q = 1 the small-q lane answers before G~ is ever
    // factored, so this pins the direct solve on a singular G~ and its
    // agreement with the looped transfer() path; the Hessenberg lane's
    // fallback (q >= kDirectPathOrder) is SingularGFallbackAtHessenbergOrder.
    ReducedModel m;
    m.g0 = la::Matrix{{0.0}};
    m.c0 = la::Matrix{{1.0}};
    m.b = la::Matrix{{1.0}};
    m.l = la::Matrix{{1.0}};
    const cplx s(0.0, 2.0);
    const RomEvalEngine engine(m);
    RomEvalWorkspace ws;
    engine.stamp_parameters({}, ws);
    const ZMatrix h = engine.transfer(s, ws);
    EXPECT_LE(std::abs(h(0, 0) - cplx(0.0, -0.5)), 1e-14);  // 1/(2i)
    EXPECT_EQ(h(0, 0), m.transfer(s, {})(0, 0));
}

TEST(RomEvalEngine, SingularGFallbackAtHessenbergOrder) {
    // q = 24 >= kDirectPathOrder, so prepare_transfer tries to factor G~(p)
    // for the Hessenberg split. Row and column 0 of every G~ term are zero,
    // so G~(p) is exactly singular at every sample while G~ + sC~ (C~
    // diagonally dominant) stays invertible: the engine must fall back to
    // the direct pencil solve for transfers AND sensitivities, agree with an
    // explicit DenseLu solve of the pencil, and keep grid == loop bitwise.
    constexpr int q = 24;
    ASSERT_GE(q, RomEvalEngine::kDirectPathOrder);
    util::Rng rng(97);
    auto zero_first = [](la::Matrix a) {
        for (int i = 0; i < a.rows(); ++i) a(0, i) = a(i, 0) = 0.0;
        return a;
    };
    ReducedModel model;
    model.g0 = zero_first(testing::random_dd_matrix(q, rng));
    model.c0 = testing::random_dd_matrix(q, rng);
    for (int i = 0; i < 2; ++i) {
        model.dg.push_back(zero_first(testing::random_matrix(q, q, rng)));
        model.dc.push_back(testing::random_matrix(q, q, rng));
    }
    model.b = testing::random_matrix(q, 2, rng);
    model.l = testing::random_matrix(q, 2, rng);
    const RomEvalEngine engine(model);
    const auto samples = make_samples(3, model.num_params(), 101);
    const std::vector<cplx> s_points = {cplx(0.0, 0.5), cplx(0.1, 2.0), cplx(0.0, 7.0)};
    const ZMatrix lt = la::transpose(la::to_complex(model.l));

    RomEvalWorkspace ws;
    for (const auto& p : samples) {
        engine.stamp_parameters(p, ws);
        const la::Matrix gp = model.g_at(p);
        const la::Matrix cp = model.c_at(p);
        for (const cplx& s : s_points) {
            const ZMatrix h = engine.transfer(s, ws);
            ASSERT_TRUE(ws.direct_path);

            la::ZMatrix k(q, q);
            for (std::size_t e = 0; e < k.raw().size(); ++e)
                k.raw()[e] = gp.raw()[e] + s * cp.raw()[e];
            const la::DenseLu<cplx> klu(k);
            const ZMatrix x = klu.solve(la::to_complex(model.b));
            const ZMatrix ref = la::matmul(lt, x);
            EXPECT_LE(la::norm_max(h - ref), 1e-12 * la::norm_max(ref));

            for (int i = 0; i < model.num_params(); ++i) {
                const auto ui = static_cast<std::size_t>(i);
                la::ZMatrix dk(q, q);
                for (std::size_t e = 0; e < dk.raw().size(); ++e)
                    dk.raw()[e] = model.dg[ui].raw()[e] + s * model.dc[ui].raw()[e];
                ZMatrix dref = la::matmul(lt, klu.solve(la::matmul(dk, x)));
                for (cplx& v : dref.raw()) v = -v;
                EXPECT_LE(la::norm_max(engine.transfer_sensitivity(s, i, ws) - dref),
                          1e-12 * la::norm_max(dref))
                    << "param " << i;
            }
        }
    }

    std::vector<std::vector<ZMatrix>> looped;
    for (const auto& p : samples) {
        std::vector<ZMatrix> row;
        for (const cplx& s : s_points) row.push_back(model.transfer(s, p));
        looped.push_back(std::move(row));
    }
    for (int threads : {1, 8})
        EXPECT_EQ(max_grid_deviation(engine.transfer_grid(samples, s_points, threads),
                                     looped), 0.0)
            << "threads=" << threads;
}

TEST(RomEvalEngine, EmptyGridDimensions) {
    const ReducedModel model = make_model(20, 2, 5, 4);
    const RomEvalEngine engine(model);
    EXPECT_TRUE(engine.transfer_grid({}, make_s_points(3)).empty());
    const auto grid = engine.transfer_grid({{0.0, 0.0}}, {});
    ASSERT_EQ(grid.size(), 1u);
    EXPECT_TRUE(grid[0].empty());
}

/// Builds a model, checks which dispatch lane it takes, and pins the engine
/// grid bitwise against looped transfer() calls at 1 and 8 threads.
void expect_grid_bitwise_on_lane(const ReducedModel& model, bool expect_direct,
                                 std::uint64_t sample_seed) {
    const RomEvalEngine engine(model);
    RomEvalWorkspace ws;
    const auto samples = make_samples(3, model.num_params(), sample_seed);
    engine.stamp_parameters(samples[0], ws);
    (void)engine.transfer(cplx(0.0, util::two_pi_f(1e9)), ws);
    EXPECT_EQ(ws.direct_path, expect_direct);

    const auto s_points = make_s_points(5);
    std::vector<std::vector<ZMatrix>> looped;
    for (const auto& p : samples) {
        std::vector<ZMatrix> row;
        for (const cplx& sp : s_points) row.push_back(model.transfer(sp, p));
        looped.push_back(std::move(row));
    }
    for (int threads : {1, 8})
        EXPECT_EQ(max_grid_deviation(engine.transfer_grid(samples, s_points, threads),
                                     looped), 0.0)
            << "threads=" << threads;
}

TEST(RomEvalEngine, DispatchBoundaryJustBelowDirectLimit) {
    // q = 18 < kDirectPathOrder = 20: the LAST reduced order on the direct
    // lane, padded up to the 20-wide fixed-size kernel.
    const ReducedModel model = make_model(60, 2, 41, 9);  // q = 18
    ASSERT_EQ(model.size(), RomEvalEngine::kDirectPathOrder - 2);
    expect_grid_bitwise_on_lane(model, /*expect_direct=*/true, 43);
}

TEST(RomEvalEngine, DispatchBoundaryAtDirectLimit) {
    // q = 20 == kDirectPathOrder: the FIRST reduced order on the Hessenberg
    // path. Both dispatch arms must hold the loop-vs-grid bitwise contract.
    const ReducedModel model = make_model(60, 2, 41, 10);  // q = 20
    ASSERT_EQ(model.size(), RomEvalEngine::kDirectPathOrder);
    expect_grid_bitwise_on_lane(model, /*expect_direct=*/false, 47);
}

TEST(RomEvalEngine, SampleMajorChunkingBitIdenticalToLoop) {
    // ns >= nf flips transfer_grid into by-sample chunking (one Hessenberg
    // preparation per sample per chunk); the values must not notice. 17
    // samples x 2 frequencies exercises uneven chunk splits at 8 threads.
    const ReducedModel model = make_model();
    const RomEvalEngine engine(model);
    const auto samples = make_samples(16, model.num_params(), 53);  // +nominal = 17
    const auto s_points = make_s_points(2);
    ASSERT_GE(samples.size(), s_points.size());

    std::vector<std::vector<ZMatrix>> looped;
    for (const auto& p : samples) {
        std::vector<ZMatrix> row;
        for (const cplx& sp : s_points) row.push_back(model.transfer(sp, p));
        looped.push_back(std::move(row));
    }
    for (int threads : {1, 8})
        EXPECT_EQ(max_grid_deviation(engine.transfer_grid(samples, s_points, threads),
                                     looped), 0.0)
            << "threads=" << threads;
}

}  // namespace
}  // namespace varmor::mor
