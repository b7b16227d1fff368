/**
 * @file
 * ModelExecutor tests: compiled-plan inference must agree with the
 * layer-by-layer reference walk on real backbones (all rings, fused
 * and unfused), reuse its activation arena, track in-place weight
 * mutations, and batch consistently.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "models/backbones.h"
#include "nn/executor.h"
#include "tensor/image_ops.h"

namespace ringcnn {
namespace {

models::ErnetConfig
small_cfg()
{
    models::ErnetConfig cfg;
    cfg.channels = 8;
    cfg.blocks = 1;
    cfg.pump_ratio = 2;
    cfg.extra_pump = 0;
    return cfg;
}

class ExecutorAllRings : public ::testing::TestWithParam<std::string>
{
};

TEST_P(ExecutorAllRings, MatchesLayerWalkOnDenoisingBackbone)
{
    const Ring& ring = get_ring(GetParam());
    const models::Algebra alg = models::Algebra::with_fcw(ring.name);
    nn::Model model = models::build_dn_ernet_pu(alg, small_cfg());

    std::mt19937 rng(41);
    Tensor x({3, 16, 16});
    x.rand_uniform(rng, 0.0f, 1.0f);

    const Tensor want = model.forward(x, false);  // layer-by-layer
    const Tensor got = model.infer(x);            // compiled + fused
    ASSERT_EQ(got.shape(), want.shape());
    EXPECT_LT(max_abs_diff(got, want), 1e-4) << ring.name;
}

INSTANTIATE_TEST_SUITE_P(AllRings, ExecutorAllRings,
                         ::testing::ValuesIn(all_ring_names()),
                         [](const auto& info) {
                             std::string n = info.param;
                             for (char& c : n) {
                                 if (c == '-') c = '_';
                             }
                             return n;
                         });

TEST(ModelExecutor, MatchesLayerWalkWithDirectionalFusion)
{
    // (RI4, fH): the directional ReLU is fused into the conv epilogue.
    const models::Algebra alg = models::Algebra::with_fh("RI4");
    nn::Model model = models::build_dn_ernet_pu(alg, small_cfg());

    std::mt19937 rng(42);
    Tensor x({3, 16, 16});
    x.rand_uniform(rng, 0.0f, 1.0f);

    const Tensor want = model.forward(x, false);
    const Tensor got = model.infer(x);
    ASSERT_EQ(got.shape(), want.shape());
    EXPECT_LT(max_abs_diff(got, want), 1e-4);

    // The fused plan must have consumed the nonlinearity steps: fewer
    // steps than layers in the flattened graph, and a small recycled
    // arena rather than one buffer per layer.
    nn::ModelExecutor exec(model, {3, 16, 16});
    EXPECT_LE(exec.slot_count(), 6);
}

TEST(ModelExecutor, DirectionalFusionBitIdenticalToUnfusedAndLayerWalk)
{
    // The fused fH epilogue and the unfused DirectionalReLU step run the
    // same simd::dir_relu_f32 kernel, so fusing never moves a bit — on
    // odd shapes (whose rows end in partial 8-column blocks) and under
    // any thread count.
    for (const char* ring : {"RI2", "RI4", "RI8", "RH4"}) {
        const models::Algebra alg = models::Algebra::with_fh(ring);
        nn::Model model = models::build_dn_ernet_pu(alg, small_cfg());
        std::mt19937 rng(49);
        Tensor x({3, 34, 46});
        x.rand_uniform(rng, -0.5f, 1.0f);
        const Tensor ref = model.forward(x, false);
        for (const int threads : {1, 3}) {
            for (const bool fuse : {true, false}) {
                nn::ExecutorOptions eo;
                eo.threads = threads;
                eo.fuse_epilogues = fuse;
                nn::ModelExecutor exec(model, x.shape(), eo);
                const Tensor got = exec.run(x);
                ASSERT_EQ(got.shape(), ref.shape());
                for (int64_t i = 0; i < ref.numel(); ++i) {
                    ASSERT_EQ(got[i], ref[i])
                        << ring << " threads=" << threads
                        << " fuse=" << fuse << " flat " << i;
                }
            }
        }
    }
}

TEST(ModelExecutor, FusesConv2dReluOnRealBaselines)
{
    // n=1 real-algebra models: every Conv2d followed by a ReLU must
    // compile into one fused step, and fusion must not change a bit
    // (the rectifier sees exactly the values the separate step saw).
    nn::Model model =
        models::build_dn_ernet_pu(models::Algebra::real(), small_cfg());

    nn::ModelExecutor fused(model, {3, 16, 16});
    EXPECT_GT(fused.fused_conv_relu_count(), 0);

    nn::ExecutorOptions unfused_opt;
    unfused_opt.fuse_epilogues = false;
    nn::ModelExecutor unfused(model, {3, 16, 16}, unfused_opt);
    EXPECT_EQ(unfused.fused_conv_relu_count(), 0);
    EXPECT_GT(unfused.step_count(), fused.step_count());

    std::mt19937 rng(48);
    Tensor x({3, 16, 16});
    x.rand_uniform(rng, 0.0f, 1.0f);
    const Tensor want = unfused.run(x);
    const Tensor got = fused.run(x);
    ASSERT_EQ(got.shape(), want.shape());
    for (int64_t i = 0; i < want.numel(); ++i) {
        ASSERT_EQ(got[i], want[i]) << "flat " << i;
    }

    // And the fused plan still matches the layer-by-layer walk.
    const Tensor ref = model.forward(x, false);
    for (int64_t i = 0; i < ref.numel(); ++i) {
        ASSERT_EQ(got[i], ref[i]) << "flat " << i;
    }
}

TEST(ModelExecutor, BatchedRunMatchesSingleRuns)
{
    const models::Algebra alg = models::Algebra::with_fh("RI4");
    nn::Model model = models::build_dn_ernet_pu(alg, small_cfg());

    std::mt19937 rng(44);
    std::vector<Tensor> xs;
    for (int i = 0; i < 3; ++i) {
        Tensor x({3, 16, 16});
        x.rand_uniform(rng, 0.0f, 1.0f);
        xs.push_back(std::move(x));
    }
    nn::ModelExecutor exec(model, {3, 16, 16});
    const std::vector<Tensor> batched = exec.run(xs);
    ASSERT_EQ(batched.size(), xs.size());
    for (size_t i = 0; i < xs.size(); ++i) {
        const Tensor single = exec.run(xs[i]);
        ASSERT_EQ(batched[i].shape(), single.shape());
        for (int64_t j = 0; j < single.numel(); ++j) {
            ASSERT_EQ(batched[i][j], single[j])
                << "image " << i << " flat " << j;
        }
    }
}

TEST(ModelExecutor, TracksInPlaceWeightMutation)
{
    const models::Algebra alg = models::Algebra::with_fh("RI4");
    nn::Model model = models::build_dn_ernet_pu(alg, small_cfg());

    std::mt19937 rng(45);
    Tensor x({3, 16, 16});
    x.rand_uniform(rng, 0.0f, 1.0f);

    const Tensor before = model.infer(x);
    // Optimizer-style in-place update through ParamRef.
    for (auto& p : model.params()) {
        for (auto& v : *p.value) v += 0.0625f;
        p.mark_dirty();
    }
    const Tensor after = model.infer(x);  // cached plan, refreshed weights
    EXPECT_GT(mse(before, after), 0.0);

    // A freshly compiled executor agrees with the refreshed one.
    nn::ModelExecutor fresh(model, {3, 16, 16});
    const Tensor want = fresh.run(x);
    for (int64_t i = 0; i < want.numel(); ++i) {
        ASSERT_EQ(after[i], want[i]) << "flat " << i;
    }
}

TEST(ModelExecutor, SupportsTwoBranchSuperResolutionModels)
{
    nn::Model model =
        models::build_srresnet(models::Algebra::with_fh("RI4"), 8, 1);
    std::mt19937 rng(46);
    Tensor x({3, 8, 8});
    x.rand_uniform(rng, 0.0f, 1.0f);

    const Tensor want = model.forward(x, false);
    const Tensor got = model.infer(x);
    ASSERT_EQ(got.shape(), want.shape());
    EXPECT_EQ(got.shape(), (Shape{3, 32, 32}));
    EXPECT_LT(max_abs_diff(got, want), 1e-4);
}

TEST(ModelExecutor, CompilesDepthwiseAndUpsampleSteps)
{
    // DepthwiseConv2d and UpsampleBilinearLayer previously fell through
    // the allocating Layer::forward fallback; they must now compile to
    // arena steps (no fallbacks left) and match the layer walk bit for
    // bit.
    std::mt19937 rng(49);
    auto seq = std::make_unique<nn::Sequential>();
    seq->add(std::make_unique<nn::DepthwiseConv2d>(6, 3, rng));
    seq->add(std::make_unique<nn::UpsampleBilinearLayer>(2));
    seq->add(std::make_unique<nn::DepthwiseConv2d>(6, 3, rng));
    nn::Model model("dw-up", std::move(seq));

    nn::ModelExecutor exec(model, {6, 9, 7});
    EXPECT_EQ(exec.fallback_step_count(), 0);

    Tensor x({6, 9, 7});
    x.randn(rng);
    const Tensor want = model.forward(x, false);
    const Tensor got = exec.run(x);
    ASSERT_EQ(got.shape(), want.shape());
    EXPECT_EQ(got.shape(), (Shape{6, 18, 14}));
    for (int64_t i = 0; i < want.numel(); ++i) {
        ASSERT_EQ(got[i], want[i]) << "flat " << i;
    }

    // Repeat runs reuse the plan (steady state) and stay identical.
    const Tensor again = exec.run(x);
    for (int64_t i = 0; i < want.numel(); ++i) {
        ASSERT_EQ(again[i], want[i]) << "rerun flat " << i;
    }
}

TEST(ModelExecutor, RebindRecompilesForNewShapeInPlace)
{
    const models::Algebra alg = models::Algebra::with_fh("RI4");
    nn::Model model = models::build_dn_ernet_pu(alg, small_cfg());

    std::mt19937 rng(50);
    nn::ModelExecutor exec(model, {3, 16, 16});
    Tensor a({3, 16, 16});
    a.rand_uniform(rng, 0.0f, 1.0f);
    const Tensor want_a = exec.run(a);

    // Rebind to a different spatial size: same executor object, new
    // plan, results identical to a fresh compile.
    exec.rebind({3, 12, 20});
    EXPECT_EQ(exec.in_shape(), (Shape{3, 12, 20}));
    Tensor b({3, 12, 20});
    b.rand_uniform(rng, 0.0f, 1.0f);
    const Tensor got_b = exec.run(b);
    nn::ModelExecutor fresh(model, {3, 12, 20});
    const Tensor want_b = fresh.run(b);
    ASSERT_EQ(got_b.shape(), want_b.shape());
    for (int64_t i = 0; i < want_b.numel(); ++i) {
        ASSERT_EQ(got_b[i], want_b[i]) << "flat " << i;
    }

    // And back: the old shape still computes the old answer.
    exec.rebind({3, 16, 16});
    const Tensor again_a = exec.run(a);
    for (int64_t i = 0; i < want_a.numel(); ++i) {
        ASSERT_EQ(again_a[i], want_a[i]) << "flat " << i;
    }

    // The batch-into entry point moves results out without copies.
    const Tensor* px = &a;
    Tensor out;
    exec.run_into(&px, &out, 1);
    for (int64_t i = 0; i < want_a.numel(); ++i) {
        ASSERT_EQ(out[i], want_a[i]) << "run_into flat " << i;
    }
}

TEST(ModelExecutor, RejectsWrongInputShape)
{
    const models::Algebra alg = models::Algebra::with_fcw("RI4");
    nn::Model model = models::build_dn_ernet_pu(alg, small_cfg());
    nn::ModelExecutor exec(model, {3, 16, 16});
    Tensor wrong({3, 12, 12});
    EXPECT_THROW(exec.run(wrong), std::invalid_argument);
}

}  // namespace
}  // namespace ringcnn
