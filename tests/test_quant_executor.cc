/**
 * @file
 * Bit-exactness suite for the quantized engine path: the compiled
 * QuantExecutor (int16 activation codes, int8 weights packed as
 * paired taps through simd::madd_rows_i16, int32 accumulators, fused
 * Fig. 8 epilogues on int32 lanes) must reproduce the scalar QNode
 * oracle walk raw integer by raw integer — never tolerance-compared —
 * across every registered ring, odd/even image sizes, k in {1, 3}, the
 * on-the-fly vs quantize-first directional-ReLU pipelines,
 * component-wise vs uniform Q-formats, and thread counts, plus 100
 * seeded random (weights, Q-format, feature width, input) draws, the
 * full ERNet-PU (odd widths included), SRResNet and SR4ERNet graphs
 * (pad/crop/shuffle/residual/two-branch/bilinear nodes) including the
 * served SR4ERNet configuration, a shuffle + bilinear two-branch graph
 * over tiny sizes and shifts on both sides of the upsampler's int32
 * bound, and the boundary of the static int32 epilogue proof.
 */
#include <gtest/gtest.h>

#include <cstdlib>
#include <random>
#include <stdexcept>
#include <string>

#include "core/ring_conv.h"
#include "data/synthetic.h"
#include "models/backbones.h"
#include "nn/layer.h"
#include "nn/model.h"
#include "quant/quant_executor.h"
#include "quant/quant_model.h"

namespace ringcnn::quant {
namespace {

/** RAII override of RINGCNN_THREADS (POSIX setenv). */
class ThreadsEnv
{
  public:
    explicit ThreadsEnv(int n)
    {
        const char* old = std::getenv("RINGCNN_THREADS");
        if (old != nullptr) saved_ = old;
        had_ = old != nullptr;
        setenv("RINGCNN_THREADS", std::to_string(n).c_str(), 1);
    }
    ~ThreadsEnv()
    {
        if (had_) {
            setenv("RINGCNN_THREADS", saved_.c_str(), 1);
        } else {
            unsetenv("RINGCNN_THREADS");
        }
    }

  private:
    std::string saved_;
    bool had_ = false;
};

/** Ring conv + fH directional ReLU backbone over `layers` layers. */
nn::Model
ring_backbone(const Ring& ring, int tuple_channels, int layers, int k,
              unsigned seed)
{
    std::mt19937 rng(seed);
    const auto [u, v] = fh_transforms(ring.n);
    auto seq = std::make_unique<nn::Sequential>();
    for (int l = 0; l < layers; ++l) {
        seq->add(std::make_unique<nn::RingConv2d>(ring, tuple_channels,
                                                  tuple_channels, k, rng));
        seq->add(std::make_unique<nn::DirectionalReLU>(u, v));
    }
    return nn::Model("quant-exec-backbone", std::move(seq));
}

/** Raw-integer equality, with a readable location on failure. */
void
expect_bit_identical(const QAct& oracle, const QAct& got,
                     const std::string& what)
{
    ASSERT_EQ(oracle.shape, got.shape) << what;
    ASSERT_EQ(oracle.frac, got.frac) << what;
    ASSERT_EQ(oracle.v.size(), got.v.size()) << what;
    for (size_t i = 0; i < oracle.v.size(); ++i) {
        ASSERT_EQ(oracle.v[i], got.v[i])
            << what << " first mismatch at flat index " << i;
    }
}

class QuantExecAllRings : public ::testing::TestWithParam<std::string>
{
};

TEST_P(QuantExecAllRings, BitExactAcrossSizesOptionsAndThreads)
{
    const Ring& ring = get_ring(GetParam());
    std::mt19937 rng(901);
    for (const int k : {1, 3}) {
        // Odd and even spatial sizes exercise every border band shape.
        for (const auto& [h, w] : {std::pair{13, 11}, std::pair{16, 12}}) {
            nn::Model m = ring_backbone(ring, 2, 2, k, 77 + k);
            std::vector<Tensor> calib;
            for (int i = 0; i < 2; ++i) {
                calib.push_back(data::synthetic_image(2 * ring.n, h, w, rng));
            }
            const Tensor x = data::synthetic_image(2 * ring.n, h, w, rng);
            for (const bool otf : {true, false}) {
                for (const bool cw : {true, false}) {
                    QuantOptions qo;
                    qo.onthefly_dir_relu = otf;
                    qo.componentwise_q = cw;
                    const QuantizedModel qm(m, calib, qo);
                    const QAct in = qm.quantize_input(x);
                    const QAct oracle = qm.root()->forward(in);
                    for (const int threads : {1, 2, 7}) {
                        ThreadsEnv env(threads);
                        QuantExecutor ex(qm);
                        EXPECT_GT(ex.fast_conv_count(), 0);
                        const QAct got = ex.run(in);
                        expect_bit_identical(
                            oracle, got,
                            ring.name + " k=" + std::to_string(k) + " " +
                                std::to_string(h) + "x" + std::to_string(w) +
                                " otf=" + std::to_string(otf) +
                                " cw=" + std::to_string(cw) +
                                " threads=" + std::to_string(threads));
                    }
                }
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(AllRings, QuantExecAllRings,
                         ::testing::ValuesIn(all_ring_names()),
                         [](const auto& info) {
                             std::string n = info.param;
                             for (char& c : n) {
                                 if (c == '-') c = '_';
                             }
                             return n;
                         });

TEST(QuantExecutorModel, ErnetPuGraphBitExact)
{
    // Full denoising graph: pad, pixel-unshuffle, convs with fused
    // directional ReLUs, residual blocks, pixel-shuffle, crop.
    models::ErnetConfig mc;
    mc.channels = 8;
    mc.blocks = 1;
    nn::Model m = models::build_dn_ernet_pu(models::Algebra::with_fh("RI4"),
                                            mc);
    std::mt19937 rng(902);
    std::vector<Tensor> calib;
    for (int i = 0; i < 2; ++i) {
        calib.push_back(data::synthetic_image(3, 16, 16, rng));
    }
    const QuantizedModel qm(m, calib);
    const Tensor x = data::synthetic_image(3, 16, 16, rng);
    const QAct in = qm.quantize_input(x);
    const QAct oracle = qm.root()->forward(in);
    QuantExecutor ex(qm);
    expect_bit_identical(oracle, ex.run(in), "dn_ernet_pu RI4");

    // QuantizedModel::forward rides the same executor; dequantizing
    // identical integers must give identical floats.
    const Tensor ye = qm.forward(x);
    const Tensor ys = QuantizedModel::dequantize(oracle);
    ASSERT_EQ(ye.shape(), ys.shape());
    for (int64_t i = 0; i < ye.numel(); ++i) {
        ASSERT_EQ(ye[i], ys[i]) << "flat index " << i;
    }
}

TEST(QuantExecutorModel, ErnetPuOddWidthsBitExact)
{
    // PixelUnshuffle(2) over sizes r does not divide: the floored
    // output must read the source with the input's row stride, and the
    // oracle must size its output to its shape.
    models::ErnetConfig mc;
    mc.channels = 8;
    mc.blocks = 1;
    nn::Model m = models::build_dn_ernet_pu(models::Algebra::with_fh("RI4"),
                                            mc);
    std::mt19937 rng(907);
    std::vector<Tensor> calib{data::synthetic_image(3, 16, 16, rng)};
    const QuantizedModel qm(m, calib);
    QuantExecutor ex(qm);
    for (const auto& [h, w] : {std::pair{17, 23}, std::pair{18, 23},
                               std::pair{33, 47}}) {
        const QAct in =
            qm.quantize_input(data::synthetic_image(3, h, w, rng));
        expect_bit_identical(qm.root()->forward(in), ex.run(in),
                             "dn_ernet_pu " + std::to_string(h) + "x" +
                                 std::to_string(w));
    }
}

TEST(QuantExecutorModel, Sr4ErnetGraphBitExact)
{
    models::ErnetConfig mc;
    mc.channels = 8;
    mc.blocks = 1;
    nn::Model m =
        models::build_sr4_ernet(models::Algebra::with_fh("RI4"), mc);
    std::mt19937 rng(908);
    std::vector<Tensor> calib{data::synthetic_image(3, 12, 9, rng)};
    const QuantizedModel qm(m, calib);
    QuantExecutor ex(qm);
    EXPECT_EQ(ex.scalar_conv_count(), 0);
    const QAct in = qm.quantize_input(data::synthetic_image(3, 11, 13, rng));
    expect_bit_identical(qm.root()->forward(in), ex.run(in), "sr4_ernet RI4");
}

TEST(QuantExecutorModel, Sr4ErnetServedConfigBitExact)
{
    // The configuration screen_sr serves: default ErnetConfig, RI4 fH,
    // one 64x64 tile, every conv on the paired-tap kernels.
    nn::Model m = models::build_sr4_ernet(models::Algebra::with_fh("RI4"),
                                          models::ErnetConfig{});
    std::mt19937 rng(909);
    std::vector<Tensor> calib;
    for (int i = 0; i < 2; ++i) {
        calib.push_back(data::synthetic_image(3, 64, 64, rng));
    }
    const QuantizedModel qm(m, calib);
    ThreadsEnv env(4);
    QuantExecutor ex(qm);
    EXPECT_EQ(ex.scalar_conv_count(), 0);
    const Tensor x = data::synthetic_image(3, 64, 64, rng);
    const QAct in = qm.quantize_input(x);
    const QAct oracle = qm.root()->forward(in);
    expect_bit_identical(oracle, ex.run(in), "sr4_ernet served config");
    const Tensor y = ex.forward(x);
    const Tensor want = QuantizedModel::dequantize(oracle);
    ASSERT_EQ(y.shape(), want.shape());
    for (int64_t i = 0; i < y.numel(); ++i) {
        ASSERT_EQ(y[i], want[i]) << "flat index " << i;
    }
}

TEST(QuantExecutorModel, ShuffleAndBilinearBranchesBitExact)
{
    // PixelShuffle(r) added to a bilinear x r upsample of the first
    // channels — SR4ERNet's tail — over tiny, one-row, one-column and
    // odd sizes, with input formats that give the upsampler and both
    // add operands negative, zero and positive shifts. At shift -12 the
    // upsampler's bound |code| * (2r)^2 * 2^12 passes 2^31 - 1, so that
    // step takes the QBilinearNode oracle.
    for (const int r : {2, 4}) {
        const int c = 2;
        auto skip = std::make_unique<nn::Sequential>();
        skip->add(std::make_unique<nn::CropChannels>(c));
        skip->add(std::make_unique<nn::UpsampleBilinearLayer>(r));
        nn::Model m("shuffle-plus-bilinear",
                    std::make_unique<nn::TwoBranchAdd>(
                        std::make_unique<nn::PixelShuffle>(r),
                        std::move(skip)));
        std::mt19937 rng(910 + r);
        const int ci = c * r * r;
        std::vector<Tensor> calib{data::synthetic_image(ci, 6, 5, rng)};
        const QuantizedModel qm(m, calib);
        QuantExecutor ex(qm);
        const QBilinearNode* up = nullptr;
        for (const plan::OpIR& op : ex.plan().ops) {
            if (op.kind == plan::OpKind::kUpsample) {
                up = static_cast<const QBilinearNode*>(op.node);
            }
        }
        ASSERT_NE(up, nullptr);
        const int wbits = 2 * ceil_log2(2 * r);
        std::uniform_int_distribution<int> code(-128, 127);
        for (const auto& [h, w] :
             {std::pair{1, 1}, std::pair{1, 9}, std::pair{9, 1},
              std::pair{2, 3}, std::pair{13, 17}}) {
            for (const int shift : {-12, -9, -3, 0, 2, 7}) {
                QAct in;
                in.shape = {ci, h, w};
                in.v.resize(static_cast<size_t>(ci) * h * w);
                for (size_t i = 0; i < in.v.size(); ++i) {
                    in.v[i] = i % 7 == 0 ? (i % 2 != 0 ? 127 : -128)
                                         : code(rng);
                }
                // Channel ch of the upsampled branch shifts by `shift`;
                // the shuffled branch's fracs spread around it.
                in.frac.resize(static_cast<size_t>(ci));
                for (int ch = 0; ch < ci; ++ch) {
                    in.frac[static_cast<size_t>(ch)] =
                        ch < c ? up->target[static_cast<size_t>(ch)] - wbits +
                                     shift
                               : up->target[0] + shift + ch % 5 - 2;
                }
                expect_bit_identical(
                    qm.root()->forward(in), ex.run(in),
                    "r=" + std::to_string(r) + " " + std::to_string(h) + "x" +
                        std::to_string(w) +
                        " shift=" + std::to_string(shift));
            }
        }
    }
}

TEST(QuantExecutorModel, SrresnetWithBilinearSkipBitExact)
{
    // Two-branch graph with the fixed-point bilinear upsampler skip.
    nn::Model m = models::build_srresnet(models::Algebra::with_fh("RI2"), 8,
                                         1);
    std::mt19937 rng(903);
    std::vector<Tensor> calib;
    for (int i = 0; i < 2; ++i) {
        calib.push_back(data::synthetic_image(3, 8, 8, rng));
    }
    const QuantizedModel qm(m, calib);
    const Tensor x = data::synthetic_image(3, 8, 8, rng);
    const QAct in = qm.quantize_input(x);
    const QAct oracle = qm.root()->forward(in);
    QuantExecutor ex(qm);
    expect_bit_identical(oracle, ex.run(in), "srresnet RI2");
}

TEST(QuantExecutorModel, BatchedRunMatchesPerImageOracle)
{
    const Ring& ring = get_ring("RI4");
    nn::Model m = ring_backbone(ring, 2, 2, 3, 55);
    std::mt19937 rng(904);
    std::vector<Tensor> calib{data::synthetic_image(2 * ring.n, 12, 12, rng)};
    const QuantizedModel qm(m, calib);

    // Different spatial sizes within one batch.
    std::vector<QAct> ins;
    for (const auto& [h, w] : {std::pair{12, 12}, std::pair{9, 7},
                               std::pair{16, 5}}) {
        ins.push_back(
            qm.quantize_input(data::synthetic_image(2 * ring.n, h, w, rng)));
    }
    ThreadsEnv env(4);  // conv tasks split across workers
    QuantExecutor ex(qm);
    EXPECT_TRUE(ex.run(std::vector<QAct>{}).empty());
    const std::vector<QAct> got = ex.run(ins);
    ASSERT_EQ(got.size(), ins.size());
    for (size_t i = 0; i < ins.size(); ++i) {
        expect_bit_identical(qm.root()->forward(ins[i]), got[i],
                             "batched image " + std::to_string(i));
    }

    // The model-level batched entry point rides the same engine.
    const std::vector<QAct> via_model = qm.infer(ins);
    ASSERT_EQ(via_model.size(), ins.size());
    for (size_t i = 0; i < ins.size(); ++i) {
        expect_bit_identical(got[i], via_model[i],
                             "QuantizedModel::infer image " +
                                 std::to_string(i));
    }
}

TEST(QuantExecutorModel, TwoBranchInsideResidualBitExact)
{
    // Regression: compiling QTwoBranchNode used to release its input
    // arena slot one time too many. With the surrounding residual's
    // skip connection still holding that slot, a later conv step
    // acquired and overwrote it, corrupting the residual add. The
    // graph below reproduces exactly that nesting.
    const Ring& ring = get_ring("RI4");
    const auto [u, v] = fh_transforms(ring.n);
    auto block = [&](unsigned seed) {
        std::mt19937 r(seed);
        auto s = std::make_unique<nn::Sequential>();
        s->add(std::make_unique<nn::RingConv2d>(ring, 2, 2, 3, r));
        s->add(std::make_unique<nn::DirectionalReLU>(u, v));
        return s;
    };
    auto body = std::make_unique<nn::Sequential>();
    body->add(std::make_unique<nn::TwoBranchAdd>(block(1), block(2)));
    {
        std::mt19937 r(3);
        body->add(std::make_unique<nn::RingConv2d>(ring, 2, 2, 3, r));
        body->add(std::make_unique<nn::DirectionalReLU>(u, v));
    }
    auto root = std::make_unique<nn::Sequential>();
    root->add(std::make_unique<nn::Residual>(std::move(body)));
    nn::Model m("twobranch-in-residual", std::move(root));

    std::mt19937 rng(906);
    std::vector<Tensor> calib{data::synthetic_image(2 * ring.n, 12, 12, rng)};
    const QuantizedModel qm(m, calib);
    const QAct in = qm.quantize_input(
        data::synthetic_image(2 * ring.n, 12, 12, rng));
    QuantExecutor ex(qm);
    expect_bit_identical(qm.root()->forward(in), ex.run(in),
                         "two-branch inside residual");
}

TEST(QuantExecutorModel, WideWeightsFallBackToScalarAndStayExact)
{
    // 12-bit weights exceed the int8 kernel cache: the planner must
    // compile those convs onto the scalar oracle and stay bit-exact.
    const Ring& ring = get_ring("RI4");
    nn::Model m = ring_backbone(ring, 2, 1, 3, 56);
    std::mt19937 rng(905);
    std::vector<Tensor> calib{data::synthetic_image(2 * ring.n, 10, 10, rng)};
    QuantOptions qo;
    qo.weight_bits = 12;
    const QuantizedModel qm(m, calib, qo);
    const QAct in = qm.quantize_input(
        data::synthetic_image(2 * ring.n, 10, 10, rng));
    QuantExecutor ex(qm);
    EXPECT_GT(ex.scalar_conv_count(), 0);
    expect_bit_identical(qm.root()->forward(in), ex.run(in),
                         "12-bit-weight fallback");
}

TEST(QuantExecutorProperty, HundredRandomDrawsBitExact)
{
    // 100 seeded random (weights, Q-formats via input scaling, feature
    // width, inputs) draws: quantize -> infer -> dequantize through the
    // engine and the scalar walk must agree bit for bit. On failure the
    // seed and the minimal (ring, shape, k, feature_bits) tuple
    // identify the reproduction.
    const auto& rings = all_ring_names();
    for (unsigned seed = 0; seed < 100; ++seed) {
        std::mt19937 rng(seed);
        const Ring& ring =
            get_ring(rings[rng() % rings.size()]);
        const int k = (rng() % 2) == 0 ? 1 : 3;
        const int h = 5 + static_cast<int>(rng() % 9);
        // Odd, prime and vector-block-edge widths (the conv rows run in
        // 32- and 8-lane blocks with a masked tail).
        static const int kWidths[] = {1, 2, 3, 5, 7, 8, 9, 11, 13,
                                      16, 17, 23, 31, 32, 33, 37};
        const int w = kWidths[rng() % 16];
        static const int kFeatureBits[] = {4, 8, 12, 16};
        const int fbits = kFeatureBits[rng() % 4];
        const int ct = 1 + static_cast<int>(rng() % 2);
        const int layers = 1 + static_cast<int>(rng() % 2);
        // Scale activations across several octaves so the per-layer /
        // per-component Q-format search lands on varied frac widths,
        // including ones that force left and right align shifts.
        const float scale = std::ldexp(1.0f, static_cast<int>(rng() % 9) - 4);
        const std::string what =
            "seed=" + std::to_string(seed) + " ring=" + ring.name +
            " shape=[" + std::to_string(ct * ring.n) + ", " +
            std::to_string(h) + ", " + std::to_string(w) + "] k=" +
            std::to_string(k) + " feature_bits=" + std::to_string(fbits);
        SCOPED_TRACE(what);

        nn::Model m = ring_backbone(ring, ct, layers, k, seed * 31 + 7);
        std::vector<Tensor> calib;
        for (int i = 0; i < 2; ++i) {
            Tensor t = data::synthetic_image(ct * ring.n, h, w, rng);
            t *= scale;
            calib.push_back(std::move(t));
        }
        QuantOptions qo;
        qo.feature_bits = fbits;
        qo.onthefly_dir_relu = (rng() % 2) == 0;
        qo.componentwise_q = (rng() % 2) == 0;
        const QuantizedModel qm(m, calib, qo);

        Tensor x = data::synthetic_image(ct * ring.n, h, w, rng);
        x *= scale;
        const QAct in = qm.quantize_input(x);
        const QAct oracle = qm.root()->forward(in);
        QuantExecutor ex(qm);
        const QAct got = ex.run(in);
        expect_bit_identical(oracle, got, what);

        // Dequantized floats of identical integers are identical bits.
        const Tensor fo = QuantizedModel::dequantize(oracle);
        const Tensor fg = QuantizedModel::dequantize(got);
        for (int64_t i = 0; i < fo.numel(); ++i) {
            ASSERT_EQ(fo[i], fg[i]) << what << " flat index " << i;
        }
    }
}

TEST(QuantExecutorModel, FeatureWidthBeyondInt16ArenaIsTypedError)
{
    nn::Model m = ring_backbone(get_ring("RI2"), 1, 1, 3, 57);
    std::mt19937 rng(909);
    std::vector<Tensor> calib{data::synthetic_image(2, 6, 6, rng)};
    QuantOptions qo;
    qo.feature_bits = 17;
    const QuantizedModel qm(m, calib, qo);
    try {
        QuantExecutor ex(qm);
        FAIL() << "17-bit features must not compile onto the int16 arena";
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("got 17"), std::string::npos)
            << e.what();
    }
}

/**
 * A one-conv RI2 graph (1x1, n = 2, on-the-fly directional ReLU) edited
 * in place so the static epilogue proof sits exactly at its boundary.
 * Component 1 accumulates at 3 fewer fractional bits, so the epilogue
 * aligns it << 3 before the butterflies; its bias sets the bound:
 *
 *   S = B0 + 2^3 * B1,  B_i = |bias_i| + sum|w_i| * 2^(8-1),
 *
 * and the int32 lanes are proven exact iff 2 * S + 2^(10-1) (second
 * butterfly, then the rounding add of the final >> 10) <= INT32_MAX.
 * The executor and the oracle both read the edited nodes.
 */
struct EdgeGraph
{
    std::unique_ptr<QuantizedModel> qm;
    QConvNode* conv = nullptr;

    explicit EdgeGraph(int64_t bias1)
    {
        nn::Model m = ring_backbone(get_ring("RI2"), 1, 1, 1, 58);
        std::mt19937 rng(910);
        std::vector<Tensor> calib{data::synthetic_image(2, 4, 4, rng)};
        qm = std::make_unique<QuantizedModel>(m, calib);
        auto* seq = const_cast<QSeq*>(dynamic_cast<const QSeq*>(qm->root()));
        conv = dynamic_cast<QConvNode*>(seq->nodes.at(0).get());
        auto* dir = dynamic_cast<QDirReluNode*>(seq->nodes.at(1).get());
        if (conv == nullptr || dir == nullptr || !dir->onthefly ||
            dir->n != 2) {
            throw std::logic_error("unexpected RI2 graph");
        }
        conv->w = {100, 0, 0, 100};  // [co][ci][1][1]
        conv->out_frac = {10, 7};
        conv->bias = {1000, bias1};
        dir->out_frac = {1, 1};  // final shift: 10 + log2(2) - 1 = 10
    }
};

TEST(QuantExecutorProof, DirReluAlignBoundJustInsideStaysFastOutsideFallsBack)
{
    constexpr int64_t kWeightPart = 100 * 128;
    const int64_t b0 = 1000 + kWeightPart;
    const int64_t s_max = (INT64_C(2147483647) - (1 << 9)) / 2;
    const int64_t bias_in = (s_max - b0) / 8 - kWeightPart;
    ASSERT_LE(2 * (b0 + 8 * (bias_in + kWeightPart)) + (1 << 9),
              INT64_C(2147483647));
    ASSERT_GT(2 * (b0 + 8 * (bias_in + 1 + kWeightPart)) + (1 << 9),
              INT64_C(2147483647));

    for (const int64_t bias1 : {bias_in, bias_in + 1}) {
        const EdgeGraph g(bias1);
        QuantExecutor ex(*g.qm);
        const bool inside = bias1 == bias_in;
        EXPECT_EQ(ex.scalar_conv_count(), inside ? 0 : 1) << bias1;
        EXPECT_EQ(ex.fast_conv_count(), inside ? 1 : 0) << bias1;
        // Inputs at both code rims drive the shifted component's
        // accumulator to within sum|w| of its bound.
        QAct in;
        in.shape = {2, 3, 4};
        in.frac = {0, 0};
        in.v = {127, -128, 127, 127, -128, -128, 0, 127, 1, -1, 127, -128,
                127, 127, -128, 127, 127, -128, -128, 0, 127, 127, 3, -3};
        expect_bit_identical(g.qm->root()->forward(in), ex.run(in),
                             inside ? "just inside" : "just outside");
    }
}

}  // namespace
}  // namespace ringcnn::quant
