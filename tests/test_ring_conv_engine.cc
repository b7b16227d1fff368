/**
 * @file
 * Equivalence and robustness tests for RingConvEngine.
 *
 * The engine promises results bit-identical to the original (seed)
 * ring_conv_fast loop nest, invariant under thread count, row banding,
 * and batching. To prove that against the original numerics — and not
 * against the engine-backed wrapper ring_conv_fast() now is — this file
 * keeps a verbatim copy of the seed per-pixel implementation as the
 * oracle.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <stdexcept>
#include <string>

#include "core/ring_conv_engine.h"
#include "nn/layer.h"
#include "tensor/image_ops.h"

namespace ringcnn {
namespace {

/** The seed FRCONV implementation, kept verbatim as the bit-exactness
 *  oracle for the engine. */
Tensor
seed_frconv(const Ring& ring, const Tensor& x, const RingConvWeights& w,
            const std::vector<float>& bias)
{
    const int n = ring.n;
    const int m = ring.fast.m();
    const int ci_t = x.dim(0) / n;
    const int h = x.dim(1), wd = x.dim(2);
    const Matd& tg = ring.fast.tg;
    const Matd& tx = ring.fast.tx;
    const Matd& tz = ring.fast.tz;
    const int pad = w.k / 2;

    Tensor xt({ci_t * m, h, wd});
    for (int t = 0; t < ci_t; ++t) {
        for (int r = 0; r < m; ++r) {
            for (int y = 0; y < h; ++y) {
                for (int xx = 0; xx < wd; ++xx) {
                    double acc = 0.0;
                    for (int j = 0; j < n; ++j) {
                        const double c = tx.at(r, j);
                        if (c != 0.0) acc += c * x.at(t * n + j, y, xx);
                    }
                    xt.at(t * m + r, y, xx) = static_cast<float>(acc);
                }
            }
        }
    }

    std::vector<double> gt(static_cast<size_t>(w.co_t) * ci_t * w.k * w.k * m);
    auto gt_at = [&](int co, int ci, int ky, int kx, int r) -> double& {
        return gt[(((static_cast<size_t>(co) * ci_t + ci) * w.k + ky) * w.k +
                   kx) * m + r];
    };
    for (int co = 0; co < w.co_t; ++co) {
        for (int ci = 0; ci < ci_t; ++ci) {
            for (int ky = 0; ky < w.k; ++ky) {
                for (int kx = 0; kx < w.k; ++kx) {
                    for (int r = 0; r < m; ++r) {
                        double acc = 0.0;
                        for (int k = 0; k < n; ++k) {
                            acc += tg.at(r, k) * w.at(co, ci, ky, kx, k);
                        }
                        gt_at(co, ci, ky, kx, r) = acc;
                    }
                }
            }
        }
    }

    Tensor out({w.co_t * n, h, wd});
    std::vector<double> acc(static_cast<size_t>(m));
    for (int co = 0; co < w.co_t; ++co) {
        for (int y = 0; y < h; ++y) {
            for (int xx = 0; xx < wd; ++xx) {
                std::fill(acc.begin(), acc.end(), 0.0);
                for (int ci = 0; ci < ci_t; ++ci) {
                    for (int ky = 0; ky < w.k; ++ky) {
                        const int iy = y + ky - pad;
                        if (iy < 0 || iy >= h) continue;
                        for (int kx = 0; kx < w.k; ++kx) {
                            const int ix = xx + kx - pad;
                            if (ix < 0 || ix >= wd) continue;
                            for (int r = 0; r < m; ++r) {
                                acc[static_cast<size_t>(r)] +=
                                    gt_at(co, ci, ky, kx, r) *
                                    xt.at(ci * m + r, iy, ix);
                            }
                        }
                    }
                }
                for (int i = 0; i < n; ++i) {
                    double z = bias.empty()
                                   ? 0.0
                                   : bias[static_cast<size_t>(co * n + i)];
                    for (int r = 0; r < m; ++r) {
                        z += tz.at(i, r) * acc[static_cast<size_t>(r)];
                    }
                    out.at(co * n + i, y, xx) = static_cast<float>(z);
                }
            }
        }
    }
    return out;
}

RingConvWeights
random_weights(int co, int ci, int k, int n, std::mt19937& rng)
{
    RingConvWeights w(co, ci, k, n);
    std::normal_distribution<float> dist(0.0f, 0.5f);
    for (auto& v : w.w) v = dist(rng);
    return w;
}

std::vector<float>
random_bias(int count, std::mt19937& rng)
{
    std::vector<float> b(static_cast<size_t>(count));
    std::normal_distribution<float> dist(0.0f, 0.1f);
    for (auto& v : b) v = dist(rng);
    return b;
}

void
expect_bit_identical(const Tensor& a, const Tensor& b, const std::string& tag)
{
    ASSERT_EQ(a.shape(), b.shape()) << tag;
    for (int64_t i = 0; i < a.numel(); ++i) {
        ASSERT_EQ(a[i], b[i]) << tag << " flat index " << i;
    }
}

class EngineAllRings : public ::testing::TestWithParam<std::string>
{
};

TEST_P(EngineAllRings, StrictFp64BitIdenticalToSeedFrconv)
{
    const Ring& ring = get_ring(GetParam());
    std::mt19937 rng(91);
    RingConvEngineOptions strict;
    strict.strict_fp64 = true;
    // Odd and even spatial sizes, both kernel sizes, with/without bias.
    const int sizes[2][2] = {{7, 6}, {8, 9}};
    for (const auto& hw : sizes) {
        for (const int k : {1, 3}) {
            for (const bool with_bias : {false, true}) {
                const int co = 2, ci = 3;
                const RingConvWeights w =
                    random_weights(co, ci, k, ring.n, rng);
                Tensor x({ci * ring.n, hw[0], hw[1]});
                x.randn(rng);
                const std::vector<float> bias =
                    with_bias ? random_bias(co * ring.n, rng)
                              : std::vector<float>{};
                const std::string tag = ring.name + " k=" +
                    std::to_string(k) + " h=" + std::to_string(hw[0]) +
                    (with_bias ? " bias" : " nobias");

                const Tensor seed = seed_frconv(ring, x, w, bias);
                const RingConvEngine engine(ring, w, bias, strict);
                expect_bit_identical(engine.run(x), seed, "engine " + tag);
                // The free function must stay a faithful wrapper.
                expect_bit_identical(ring_conv_fast(ring, x, w, bias), seed,
                                     "wrapper " + tag);
                // The default fp32 SIMD path tracks the fp64 oracle to
                // normal float rounding.
                const RingConvEngine fast(ring, w, bias);
                EXPECT_FALSE(fast.strict_fp64());
                EXPECT_LT(max_abs_diff(fast.run(x), seed), 1e-4)
                    << "fp32 " << tag;
                // And FRCONV still matches RCONV up to float rounding.
                EXPECT_LT(mse(seed, ring_conv_reference(ring, x, w, bias)),
                          1e-9)
                    << tag;
            }
        }
    }
}

TEST_P(EngineAllRings, InvariantUnderThreadCountAndBanding)
{
    const Ring& ring = get_ring(GetParam());
    std::mt19937 rng(92);
    const RingConvWeights w = random_weights(3, 2, 3, ring.n, rng);
    Tensor x({2 * ring.n, 13, 11});
    x.randn(rng);
    const std::vector<float> bias = random_bias(3 * ring.n, rng);

    // Both kernel sets must be deterministic and banding-invariant.
    for (const bool strict : {false, true}) {
        RingConvEngineOptions ref_opt;
        ref_opt.threads = 1;
        ref_opt.row_band = 13;  // single band, single thread
        ref_opt.strict_fp64 = strict;
        const Tensor ref = RingConvEngine(ring, w, bias, ref_opt).run(x);
        for (const int threads : {2, 5, 0}) {
            for (const int band : {1, 4, 0}) {
                RingConvEngineOptions opt;
                opt.threads = threads;
                opt.row_band = band;
                opt.strict_fp64 = strict;
                const Tensor got = RingConvEngine(ring, w, bias, opt).run(x);
                expect_bit_identical(
                    got, ref,
                    ring.name + (strict ? " fp64" : " fp32") +
                        " threads=" + std::to_string(threads) +
                        " band=" + std::to_string(band));
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(AllRings, EngineAllRings,
                         ::testing::ValuesIn(all_ring_names()),
                         [](const auto& info) {
                             std::string n = info.param;
                             for (char& c : n) {
                                 if (c == '-') c = '_';
                             }
                             return n;
                         });

TEST(RingConvEngine, WideRingsNeedStrictFp64)
{
    // RI8 zero-padded to m = 17 multiplications: the same ring with
    // nine dead components. The fp32 band pass keeps tuple rows in
    // 16-entry arrays, so an fp32 engine must refuse it with a typed
    // error; the strict fp64 oracle accepts any m and must not move a
    // bit.
    const Ring& ri8 = get_ring("RI8");
    constexpr int kWideM = 17;
    Ring wide = ri8;
    wide.name = "RI8-pad17";
    const auto pad_rows = [](const Matd& a) {
        Matd p(kWideM, a.cols());
        for (int r = 0; r < a.rows(); ++r) {
            for (int c = 0; c < a.cols(); ++c) p.at(r, c) = a.at(r, c);
        }
        return p;
    };
    wide.fast.tg = pad_rows(ri8.fast.tg);
    wide.fast.tx = pad_rows(ri8.fast.tx);
    wide.fast.tz = pad_rows(ri8.fast.tz.transposed()).transposed();
    ASSERT_EQ(wide.fast.m(), kWideM);

    std::mt19937 rng(96);
    const RingConvWeights w = random_weights(2, 2, 3, ri8.n, rng);
    const std::vector<float> bias = random_bias(2 * ri8.n, rng);
    Tensor x({2 * ri8.n, 7, 6});
    x.randn(rng);

    try {
        RingConvEngine fp32(wide, w, bias);
        FAIL() << "fp32 engine accepted m=17";
    } catch (const std::invalid_argument& e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("RI8-pad17"), std::string::npos) << msg;
        EXPECT_NE(msg.find("m=17"), std::string::npos) << msg;
        EXPECT_NE(msg.find("n=8"), std::string::npos) << msg;
    }

    RingConvEngineOptions strict;
    strict.strict_fp64 = true;
    const Tensor want = RingConvEngine(ri8, w, bias, strict).run(x);
    expect_bit_identical(RingConvEngine(wide, w, bias, strict).run(x), want,
                         "strict RI8 padded to m=17");
    // ring_conv_fast builds a strict engine, so it keeps accepting it.
    expect_bit_identical(ring_conv_fast(wide, x, w, bias), want,
                         "ring_conv_fast RI8 padded to m=17");
}

TEST(RingConvEngine, BatchedRunMatchesSingleRuns)
{
    const Ring& ring = get_ring("RH4");
    std::mt19937 rng(93);
    const RingConvWeights w = random_weights(2, 2, 3, ring.n, rng);
    const std::vector<float> bias = random_bias(2 * ring.n, rng);
    const RingConvEngine engine(ring, w, bias);

    // Different spatial sizes in one batch.
    std::vector<Tensor> xs;
    for (const int side : {6, 9, 12}) {
        Tensor x({2 * ring.n, side, side + 1});
        x.randn(rng);
        xs.push_back(x);
    }
    const std::vector<Tensor> outs = engine.run(xs);
    ASSERT_EQ(outs.size(), xs.size());
    for (size_t i = 0; i < xs.size(); ++i) {
        expect_bit_identical(outs[i], engine.run(xs[i]),
                             "batch image " + std::to_string(i));
    }
}

TEST(RingConvEngine, SetWeightsRederivesCache)
{
    const Ring& ring = get_ring("C");
    std::mt19937 rng(94);
    const RingConvWeights w1 = random_weights(2, 2, 3, ring.n, rng);
    const RingConvWeights w2 = random_weights(2, 2, 3, ring.n, rng);
    Tensor x({2 * ring.n, 8, 8});
    x.randn(rng);

    RingConvEngine engine(ring, w1, {});
    const Tensor first = engine.run(x);
    // Repeated runs against the cached transforms are deterministic.
    expect_bit_identical(engine.run(x), first, "repeat run");

    engine.set_weights(w2, {});
    expect_bit_identical(engine.run(x), RingConvEngine(ring, w2, {}).run(x),
                         "after set_weights");
}

TEST(RingConvEngine, ShapeMismatchesThrow)
{
    const Ring& ring = get_ring("RH4");
    std::mt19937 rng(95);
    const RingConvWeights w = random_weights(2, 2, 3, ring.n, rng);
    const RingConvEngine engine(ring, w, {});

    Tensor wrong_rank({2 * ring.n * 6 * 6});  // flattened buffer
    EXPECT_THROW(engine.run(wrong_rank), std::invalid_argument);

    Tensor wrong_channels({2 * ring.n + 1, 6, 6});
    EXPECT_THROW(engine.run(wrong_channels), std::invalid_argument);
    EXPECT_THROW(ring_conv_fast(ring, wrong_channels, w, {}),
                 std::invalid_argument);
    EXPECT_THROW(ring_conv_reference(ring, wrong_channels, w, {}),
                 std::invalid_argument);

    Tensor x({2 * ring.n, 6, 6});
    x.randn(rng);
    EXPECT_THROW(RingConvEngine(ring, w, std::vector<float>(3, 0.0f)),
                 std::invalid_argument);

    // Weights built for another tuple size must be rejected everywhere.
    const RingConvWeights w2 = random_weights(2, 2, 3, 2, rng);
    EXPECT_THROW(RingConvEngine(ring, w2, {}), std::invalid_argument);
    EXPECT_THROW(expand_to_real(ring, w2), std::invalid_argument);

    // Even kernels are not "same"-padding convolutions.
    const RingConvWeights weven = random_weights(2, 2, 2, ring.n, rng);
    EXPECT_THROW(RingConvEngine(ring, weven, {}), std::invalid_argument);
}

TEST(RingConvEngine, DirectionalReluChecksTupleAlignment)
{
    const auto [u, v] = fh_transforms(4);
    Tensor x({6, 4, 4});  // 6 channels is not a multiple of n=4
    EXPECT_THROW(directional_relu(u, v, x), std::invalid_argument);
}

TEST(RingConvEngine, LayerInferenceTracksWeightMutation)
{
    const Ring& ring = get_ring("RH4");
    std::mt19937 rng(96);
    nn::RingConv2d layer(ring, 2, 2, 3, rng);
    Tensor x({2 * ring.n, 8, 8});
    x.randn(rng);

    // Layer inference rides the default fp32 engine.
    const Tensor direct =
        RingConvEngine(ring, layer.weights(), layer.bias()).run(x);
    expect_bit_identical(layer.forward(x, false), direct, "layer inference");

    // Mutate parameters in place through the optimizer interface; the
    // version bump (ParamRef::mark_dirty) must rebuild the cached
    // engine.
    std::vector<nn::ParamRef> params;
    layer.collect_params(params);
    for (auto& p : params) {
        ASSERT_NE(p.version, nullptr) << p.name;
        for (auto& v : *p.value) v += 0.125f;
        p.mark_dirty();
    }
    const Tensor updated =
        RingConvEngine(ring, layer.weights(), layer.bias()).run(x);
    expect_bit_identical(layer.forward(x, false), updated,
                         "layer inference after in-place update");
    EXPECT_GT(mse(direct, updated), 0.0);
}

TEST(RingConvEngine, FusedEpiloguesMatchSeparateApplication)
{
    const Ring& ring = get_ring("RI4");
    std::mt19937 rng(97);
    const RingConvWeights w = random_weights(2, 2, 3, ring.n, rng);
    const std::vector<float> bias = random_bias(2 * ring.n, rng);
    Tensor x({2 * ring.n, 9, 7});
    x.randn(rng);

    const RingConvEngine plain(ring, w, bias);
    const Tensor conv = plain.run(x);

    // ReLU epilogue == clamping the unfused output.
    RingConvEngine fused_relu(ring, w, bias);
    fused_relu.set_epilogue(ConvEpilogue::kRelu);
    const Tensor got_relu = fused_relu.run(x);
    ASSERT_EQ(got_relu.shape(), conv.shape());
    for (int64_t i = 0; i < conv.numel(); ++i) {
        const float want = conv[i] > 0.0f ? conv[i] : 0.0f;
        ASSERT_EQ(got_relu[i], want) << "relu epilogue flat " << i;
    }

    // Directional epilogue == the fH transform pair applied per tuple,
    // in the same float arithmetic.
    const auto [u, v] = fh_transforms(ring.n);
    RingConvEngine fused_dir(ring, w, bias);
    fused_dir.set_epilogue(ConvEpilogue::kDirectional, &u, &v);
    const Tensor got_dir = fused_dir.run(x);
    const Tensor want_dir = directional_relu(u, v, conv);
    ASSERT_EQ(got_dir.shape(), want_dir.shape());
    EXPECT_LT(max_abs_diff(got_dir, want_dir), 1e-4);

    // Epilogues are an fp32-path feature; strict engines refuse them.
    RingConvEngineOptions strict;
    strict.strict_fp64 = true;
    RingConvEngine se(ring, w, bias, strict);
    EXPECT_THROW(se.set_epilogue(ConvEpilogue::kRelu),
                 std::invalid_argument);
}

}  // namespace
}  // namespace ringcnn
