/**
 * @file
 * Equivalence and robustness tests for RingConvEngine.
 *
 * The fp32 engine must track the fp64 FRCONV oracle ring_conv_fast()
 * (the seed's serial loop nest, which shares only its argument checks
 * with the engine) to float rounding on every ring, stay bit-identical
 * under thread count, row banding, and batching, and match a scalar
 * oracle of its own band-pass arithmetic float for float.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <stdexcept>
#include <string>

#include "core/ring_conv_engine.h"
#include "core/simd.h"
#include "nn/layer.h"
#include "tensor/image_ops.h"

namespace ringcnn {
namespace {

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

TEST_P(EngineAllRings, Fp32TracksFp64Oracle)
{
    const Ring& ring = get_ring(GetParam());
    std::mt19937 rng(91);
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

                // The fp32 SIMD engine tracks the fp64 oracle to normal
                // float rounding.
                const Tensor oracle = ring_conv_fast(ring, x, w, bias);
                const RingConvEngine engine(ring, w, bias);
                EXPECT_LT(max_abs_diff(engine.run(x), oracle), 1e-4)
                    << "fp32 " << tag;
                // And FRCONV still matches RCONV up to float rounding.
                EXPECT_LT(mse(oracle, ring_conv_reference(ring, x, w, bias)),
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

    RingConvEngineOptions ref_opt;
    ref_opt.threads = 1;
    ref_opt.row_band = 13;  // single band, single thread
    const Tensor ref = RingConvEngine(ring, w, bias, ref_opt).run(x);
    for (const int threads : {2, 5, 0}) {
        for (const int band : {1, 4, 0}) {
            RingConvEngineOptions opt;
            opt.threads = threads;
            opt.row_band = band;
            const Tensor got = RingConvEngine(ring, w, bias, opt).run(x);
            expect_bit_identical(got, ref,
                                 ring.name + " threads=" +
                                     std::to_string(threads) +
                                     " band=" + std::to_string(band));
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

TEST(RingConvEngine, WideRingsNeedTheFp64Oracle)
{
    // RI8 zero-padded to m = 17 multiplications: the same ring with
    // nine dead components. The band pass keeps tuple rows in 16-entry
    // arrays, so an engine must refuse it with a typed error; the fp64
    // oracle ring_conv_fast accepts any m and must not move a bit.
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

    expect_bit_identical(ring_conv_fast(wide, x, w, bias),
                         ring_conv_fast(ri8, x, w, bias),
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
    EXPECT_THROW(ring_conv_fast(ring, wrong_rank, w, {}),
                 std::invalid_argument);

    Tensor wrong_channels({2 * ring.n + 1, 6, 6});
    EXPECT_THROW(engine.run(wrong_channels), std::invalid_argument);
    EXPECT_THROW(ring_conv_fast(ring, wrong_channels, w, {}),
                 std::invalid_argument);
    EXPECT_THROW(ring_conv_reference(ring, wrong_channels, w, {}),
                 std::invalid_argument);

    // The remaining cases pass the input-shape checks, so each one is
    // caught by its own weight or bias check.
    Tensor x({2 * ring.n, 6, 6});
    x.randn(rng);
    const std::vector<float> bad_bias(3, 0.0f);
    EXPECT_THROW(RingConvEngine(ring, w, bad_bias), std::invalid_argument);
    EXPECT_THROW(ring_conv_fast(ring, x, w, bad_bias), std::invalid_argument);

    // Weights built for another tuple size must be rejected everywhere.
    const RingConvWeights w2 = random_weights(2, 2, 3, 2, rng);
    EXPECT_THROW(RingConvEngine(ring, w2, {}), std::invalid_argument);
    EXPECT_THROW(expand_to_real(ring, w2), std::invalid_argument);
    EXPECT_THROW(ring_conv_fast(ring, x, w2, {}), std::invalid_argument);

    // Even kernels are not "same"-padding convolutions.
    const RingConvWeights weven = random_weights(2, 2, 2, ring.n, rng);
    EXPECT_THROW(RingConvEngine(ring, weven, {}), std::invalid_argument);
    EXPECT_THROW(ring_conv_fast(ring, x, weven, {}), std::invalid_argument);
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
}


// ---- fp32 row kernels: generic vs dispatched ------------------------------

/** Mostly unit-scale normals, with +-0, subnormals, +-Inf and NaN mixed
 *  in rarely enough that most outputs stay finite. */
float
kernel_operand(std::mt19937& rng)
{
    std::uniform_int_distribution<int> pick(0, 63);
    std::normal_distribution<float> d(0.0f, 1.0f);
    switch (pick(rng)) {
    case 0: return 0.0f;
    case 1: return -0.0f;
    case 2: return 3.0e-40f;   // subnormal
    case 3: return -1.0e-42f;  // subnormal
    case 4: return std::numeric_limits<float>::infinity();
    case 5: return -std::numeric_limits<float>::infinity();
    case 6: return std::numeric_limits<float>::quiet_NaN();
    default: return d(rng);
    }
}

/** Equal bits, or NaN on both sides. */
bool
same_float(float a, float b)
{
    if (std::isnan(a) || std::isnan(b)) return std::isnan(a) && std::isnan(b);
    uint32_t ua, ub;
    std::memcpy(&ua, &a, sizeof ua);
    std::memcpy(&ub, &b, sizeof ub);
    return ua == ub;
}

TEST(SimdF32Rows, GenericAndDispatchedAgreeBitForBit)
{
    std::mt19937 rng(2016);
    std::vector<int64_t> lens;
    for (int64_t l = 1; l <= 17; ++l) lens.push_back(l);
    for (int64_t l = 55; l <= 66; ++l) lens.push_back(l);
    for (int64_t l = 120; l <= 130; ++l) lens.push_back(l);
    for (const int64_t len : lens) {
        for (const int ntaps : {1, 2, 4, 27, 72, 96, 97}) {
            // The sources sit at random offsets of one buffer, so loads
            // are unaligned and sources overlap.
            std::vector<float> pool(static_cast<size_t>((ntaps + 1) *
                                                        (len + 7)));
            for (float& v : pool) v = kernel_operand(rng);
            std::vector<const float*> srcs(static_cast<size_t>(ntaps));
            std::vector<float> coeffs(static_cast<size_t>(ntaps));
            std::uniform_int_distribution<int64_t> at(
                0, static_cast<int64_t>(pool.size()) - len);
            for (int t = 0; t < ntaps; ++t) {
                srcs[static_cast<size_t>(t)] = pool.data() + at(rng);
                coeffs[static_cast<size_t>(t)] = kernel_operand(rng);
            }
            // Five guard lanes past the row must stay untouched.
            std::vector<float> init(static_cast<size_t>(len + 5));
            for (float& v : init) v = kernel_operand(rng);
            for (const bool accumulate : {false, true}) {
                std::vector<float> g = init, d = init;
                if (accumulate) {
                    simd::detail::axpy_rows_f32_generic(
                        g.data(), srcs.data(), coeffs.data(), ntaps, len);
                    simd::axpy_rows_f32(d.data(), srcs.data(), coeffs.data(),
                                        ntaps, len);
                } else {
                    simd::detail::matvec_rows_f32_generic(
                        g.data(), srcs.data(), coeffs.data(), ntaps, len);
                    simd::matvec_rows_f32(d.data(), srcs.data(),
                                          coeffs.data(), ntaps, len);
                }
                for (size_t i = 0; i < g.size(); ++i) {
                    ASSERT_TRUE(same_float(g[i], d[i]))
                        << simd::active_isa() << " len=" << len
                        << " taps=" << ntaps << " accumulate=" << accumulate
                        << " at " << i << ": " << g[i] << " vs " << d[i];
                }
            }
        }
    }
}

TEST(SimdF32Rows, DirectionalGenericAndDispatchedAgreeBitForBit)
{
    std::mt19937 rng(2017);
    std::normal_distribution<float> d(0.0f, 0.6f);
    std::vector<int64_t> lens;
    for (int64_t l = 1; l <= 17; ++l) lens.push_back(l);
    for (int64_t l = 55; l <= 66; ++l) lens.push_back(l);
    for (int64_t l = 120; l <= 130; ++l) lens.push_back(l);
    for (const int n : {1, 2, 3, 4, 8, 16}) {
        // Dense random transforms, fH and fO4 at n = 4.
        const auto flat = [n](const Matd& m) {
            std::vector<float> f(static_cast<size_t>(n) * n);
            for (int i = 0; i < n; ++i) {
                for (int j = 0; j < n; ++j) {
                    f[static_cast<size_t>(i) * n + j] =
                        static_cast<float>(m.at(i, j));
                }
            }
            return f;
        };
        std::vector<float> ur(static_cast<size_t>(n) * n),
            vr(static_cast<size_t>(n) * n);
        for (float& v : ur) v = d(rng);
        for (float& v : vr) v = d(rng);
        std::vector<std::vector<float>> us = {ur}, vs = {vr};
        if ((n & (n - 1)) == 0) {
            const auto [u, v] = fh_transforms(n);
            us.push_back(flat(u));
            vs.push_back(flat(v));
        }
        if (n == 4) {
            const auto [u, v] = fo4_transforms();
            us.push_back(flat(u));
            vs.push_back(flat(v));
        }
        for (size_t tf = 0; tf < us.size(); ++tf) {
            for (const int64_t len : lens) {
                std::vector<std::vector<float>> x(static_cast<size_t>(n));
                for (auto& row : x) {
                    row.resize(static_cast<size_t>(len));
                    for (float& v : row) v = kernel_operand(rng);
                }
                for (const bool with_mask : {false, true}) {
                    for (const bool in_place : {false, true}) {
                        std::vector<std::vector<float>> og = x, od = x;
                        std::vector<std::vector<uint8_t>> mg(
                            static_cast<size_t>(n),
                            std::vector<uint8_t>(static_cast<size_t>(len), 7));
                        auto md = mg;
                        std::vector<std::vector<float>> yg(
                            static_cast<size_t>(n),
                            std::vector<float>(static_cast<size_t>(len), 9.0f));
                        auto yd = yg;
                        std::vector<const float*> sg, sd;
                        std::vector<float*> dg, dd;
                        std::vector<uint8_t*> kg, kd;
                        for (int j = 0; j < n; ++j) {
                            const size_t J = static_cast<size_t>(j);
                            sg.push_back(og[J].data());
                            sd.push_back(od[J].data());
                            dg.push_back(in_place ? og[J].data()
                                                  : yg[J].data());
                            dd.push_back(in_place ? od[J].data()
                                                  : yd[J].data());
                            kg.push_back(mg[J].data());
                            kd.push_back(md[J].data());
                        }
                        simd::detail::dir_relu_f32_generic(
                            dg.data(), sg.data(), n, us[tf].data(),
                            vs[tf].data(), len,
                            with_mask ? kg.data() : nullptr);
                        simd::dir_relu_f32(dd.data(), sd.data(), n,
                                           us[tf].data(), vs[tf].data(), len,
                                           with_mask ? kd.data() : nullptr);
                        for (int j = 0; j < n; ++j) {
                            const size_t J = static_cast<size_t>(j);
                            for (int64_t i = 0; i < len; ++i) {
                                const size_t I = static_cast<size_t>(i);
                                const float a = in_place ? og[J][I] : yg[J][I];
                                const float b = in_place ? od[J][I] : yd[J][I];
                                ASSERT_TRUE(same_float(a, b))
                                    << simd::active_isa() << " n=" << n
                                    << " transform " << tf << " len=" << len
                                    << " in_place=" << in_place << " row " << j
                                    << " col " << i << ": " << a << " vs " << b;
                                ASSERT_EQ(mg[J][I], md[J][I])
                                    << "mask n=" << n << " transform " << tf
                                    << " len=" << len << " row " << j
                                    << " col " << i;
                            }
                        }
                    }
                }
            }
        }
    }
}

// ---- fp32 band pass vs a scalar oracle, float == -------------------------

/**
 * The fp32 band pass's arithmetic, written out per output value for the
 * rings whose Tx and Tz are the identity (RI2, RI4, RI8): component r of
 * output tuple co convolves component r of every input tuple. The
 * transformed taps are the engine's (a double sum over Tg, cast to
 * float; exactly-zero taps dropped), taken in compiled (ci, ky, kx)
 * order, a tap whose row leaves the image skipped. Where every tap of
 * the row falls inside the image the accumulator starts from the first
 * product; elsewhere it starts from +0 and skips the taps that fall
 * outside. Then the bias add (only when some bias is nonzero), then the
 * ReLU or the directional ReLU (V products, rectify, U products, each
 * multiply then ascending adds) — the pre-epilogue value is returned
 * too.
 */
struct BandOracle
{
    Tensor conv, relu, dir;
};

BandOracle
band_pass_oracle(const Ring& ring, const Tensor& x, const RingConvWeights& w,
                 const std::vector<float>& bias, const Matd& u, const Matd& v)
{
    const int n = ring.n, k = w.k, pad = k / 2;
    const int h = x.dim(1), wd = x.dim(2);
    std::vector<float> gt(static_cast<size_t>(w.co_t) * n * w.ci_t * k * k);
    const auto gt_at = [&](int co, int r, int ci, int ky, int kx) -> float& {
        return gt[(((static_cast<size_t>(co) * n + r) * w.ci_t + ci) * k + ky) *
                      k + kx];
    };
    for (int co = 0; co < w.co_t; ++co) {
        for (int r = 0; r < n; ++r) {
            for (int ci = 0; ci < w.ci_t; ++ci) {
                for (int ky = 0; ky < k; ++ky) {
                    for (int kx = 0; kx < k; ++kx) {
                        double acc = 0.0;
                        for (int q = 0; q < n; ++q) {
                            acc += ring.fast.tg.at(r, q) *
                                   w.at(co, ci, ky, kx, q);
                        }
                        gt_at(co, r, ci, ky, kx) = static_cast<float>(acc);
                    }
                }
            }
        }
    }
    bool bias_zero = true;
    for (const float b : bias) bias_zero = bias_zero && b == 0.0f;

    BandOracle o;
    o.conv = Tensor({w.co_t * n, h, wd});
    struct Tap
    {
        int ci, ky, kx;
        float w;
    };
    std::vector<Tap> taps;
    for (int co = 0; co < w.co_t; ++co) {
        for (int r = 0; r < n; ++r) {
            for (int y = 0; y < h; ++y) {
                taps.clear();
                int lx = 0, rx = wd;
                for (int ci = 0; ci < w.ci_t; ++ci) {
                    for (int ky = 0; ky < k; ++ky) {
                        for (int kx = 0; kx < k; ++kx) {
                            const float g = gt_at(co, r, ci, ky, kx);
                            const int yy = y + ky - pad;
                            if (g == 0.0f || yy < 0 || yy >= h) continue;
                            taps.push_back({ci, ky, kx, g});
                            lx = std::max(lx, pad - kx);
                            rx = std::min(rx, wd + pad - kx);
                        }
                    }
                }
                const float b = bias.empty()
                                    ? 0.0f
                                    : bias[static_cast<size_t>(co * n + r)];
                for (int xx = 0; xx < wd; ++xx) {
                    const auto term = [&](const Tap& t) {
                        return t.w * x.at(t.ci * n + r, y + t.ky - pad,
                                          xx + t.kx - pad);
                    };
                    float acc = 0.0f;
                    if (!taps.empty() && xx >= lx && xx < rx) {
                        acc = term(taps[0]);
                        for (size_t t = 1; t < taps.size(); ++t) {
                            acc += term(taps[t]);
                        }
                    } else {
                        for (const Tap& t : taps) {
                            const int ix = xx + t.kx - pad;
                            if (ix >= 0 && ix < wd) acc += term(t);
                        }
                    }
                    if (!bias_zero) acc = b + acc;
                    o.conv.at(co * n + r, y, xx) = acc;
                }
            }
        }
    }

    o.relu = o.conv;
    for (int64_t i = 0; i < o.relu.numel(); ++i) {
        o.relu[i] = o.relu[i] > 0.0f ? o.relu[i] : 0.0f;
    }
    o.dir = o.conv;
    std::vector<float> uf(static_cast<size_t>(n) * n),
        vf(static_cast<size_t>(n) * n);
    for (int i = 0; i < n; ++i) {
        for (int j = 0; j < n; ++j) {
            uf[static_cast<size_t>(i) * n + j] = static_cast<float>(u.at(i, j));
            vf[static_cast<size_t>(i) * n + j] = static_cast<float>(v.at(i, j));
        }
    }
    std::vector<float> in(static_cast<size_t>(n)), t(static_cast<size_t>(n));
    for (int co = 0; co < w.co_t; ++co) {
        for (int y = 0; y < h; ++y) {
            for (int xx = 0; xx < wd; ++xx) {
                for (int j = 0; j < n; ++j) {
                    in[static_cast<size_t>(j)] = o.conv.at(co * n + j, y, xx);
                }
                for (int i = 0; i < n; ++i) {
                    const float* vi = vf.data() + static_cast<size_t>(i) * n;
                    float acc = vi[0] * in[0];
                    for (int j = 1; j < n; ++j) {
                        acc += vi[j] * in[static_cast<size_t>(j)];
                    }
                    t[static_cast<size_t>(i)] = acc > 0.0f ? acc : 0.0f;
                }
                for (int i = 0; i < n; ++i) {
                    const float* ui = uf.data() + static_cast<size_t>(i) * n;
                    float acc = ui[0] * t[0];
                    for (int j = 1; j < n; ++j) {
                        acc += ui[j] * t[static_cast<size_t>(j)];
                    }
                    o.dir.at(co * n + i, y, xx) = acc;
                }
            }
        }
    }
    return o;
}

TEST(EngineBandOracle, IdentityTransformRingsMatchScalarOracleExactly)
{
    std::mt19937 rng(2018);
    std::normal_distribution<float> d(0.0f, 1.0f);
    std::uniform_int_distribution<int> pick(0, 9);
    // Many exact zeros of both signs: sums of zero products are where
    // the accumulator's start (first product or +0) shows in the sign.
    const auto operand = [&]() {
        const int p = pick(rng);
        return p < 3 ? 0.0f : p < 5 ? -0.0f : d(rng);
    };
    constexpr int kCo = 3, kCi = 3, kBatch = 4;
    const int widths[] = {1, 2, 7, 8, 9, 15, 16, 17, 62, 63, 64, 65, 130};
    const int heights[] = {1, 2, 3, 17};
    for (const char* name : {"RI2", "RI4", "RI8"}) {
        const Ring& ring = get_ring(name);
        const int n = ring.n;
        for (int i = 0; i < n; ++i) {
            for (int j = 0; j < n; ++j) {
                ASSERT_EQ(ring.fast.tx.at(i, j), i == j ? 1.0 : 0.0) << name;
                ASSERT_EQ(ring.fast.tz.at(i, j), i == j ? 1.0 : 0.0) << name;
            }
        }
        const auto [u, v] = fh_transforms(n);
        for (const int k : {1, 3}) {
            for (const bool pruned : {false, true}) {
                RingConvWeights w(kCo, kCi, k, n);
                for (float& val : w.w) val = 0.5f * d(rng);
                if (pruned) {
                    // Ring-DOF pruning zeroes whole tuples. Tuple 0 loses
                    // every kx = 0 tap and tuple 1 every kx = k-1 tap, so
                    // lx and rx move; half the rest go at random.
                    for (int co = 0; co < kCo; ++co) {
                        for (int ci = 0; ci < kCi; ++ci) {
                            for (int ky = 0; ky < k; ++ky) {
                                for (int kx = 0; kx < k; ++kx) {
                                    const bool drop =
                                        (co == 0 && kx == 0) ||
                                        (co == 1 && kx == k - 1) ||
                                        pick(rng) < 5;
                                    if (!drop) continue;
                                    for (int q = 0; q < n; ++q) {
                                        w.at(co, ci, ky, kx, q) = 0.0f;
                                    }
                                }
                            }
                        }
                    }
                }
                for (const bool with_bias : {false, true}) {
                    // The zero bias includes -0 entries: every bias that
                    // compares equal to 0 skips the add.
                    std::vector<float> bias(static_cast<size_t>(kCo * n));
                    for (size_t i = 0; i < bias.size(); ++i) {
                        bias[i] = with_bias ? 0.1f * d(rng)
                                            : (i % 2 == 0 ? 0.0f : -0.0f);
                    }
                    for (const int hgt : heights) {
                        for (const int wdt : widths) {
                            std::vector<Tensor> xs;
                            std::vector<BandOracle> want;
                            for (int b = 0; b < kBatch; ++b) {
                                Tensor x({kCi * n, hgt, wdt});
                                for (int64_t i = 0; i < x.numel(); ++i) {
                                    x[i] = operand();
                                }
                                want.push_back(
                                    band_pass_oracle(ring, x, w, bias, u, v));
                                xs.push_back(std::move(x));
                            }
                            for (const int threads : {1, 3}) {
                                for (const ConvEpilogue ep :
                                     {ConvEpilogue::kNone, ConvEpilogue::kRelu,
                                      ConvEpilogue::kDirectional}) {
                                    RingConvEngineOptions eo;
                                    eo.threads = threads;
                                    RingConvEngine engine(ring, w, bias, eo);
                                    engine.set_epilogue(ep, &u, &v);
                                    const std::vector<Tensor> got =
                                        engine.run(xs);
                                    for (int b = 0; b < kBatch; ++b) {
                                        const BandOracle& o =
                                            want[static_cast<size_t>(b)];
                                        const Tensor& ref =
                                            ep == ConvEpilogue::kNone ? o.conv
                                            : ep == ConvEpilogue::kRelu
                                                ? o.relu
                                                : o.dir;
                                        const Tensor& g =
                                            got[static_cast<size_t>(b)];
                                        ASSERT_EQ(g.shape(), ref.shape());
                                        for (int64_t i = 0; i < g.numel();
                                             ++i) {
                                            // float ==, and the sign of a
                                            // zero must agree as well.
                                            ASSERT_TRUE(
                                                g[i] == ref[i] &&
                                                std::signbit(g[i]) ==
                                                    std::signbit(ref[i]))
                                                << name << " k=" << k
                                                << " pruned=" << pruned
                                                << " bias=" << with_bias
                                                << " " << hgt << "x" << wdt
                                                << " threads=" << threads
                                                << " epilogue="
                                                << static_cast<int>(ep)
                                                << " image " << b
                                                << " flat " << i << ": "
                                                << g[i] << " vs " << ref[i];
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}

}  // namespace
}  // namespace ringcnn
