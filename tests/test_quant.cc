/**
 * @file
 * Tests for the fixed-point machinery: Q-format selection/rounding, the
 * bit-exact on-the-fly directional ReLU (Fig. 8) against the float
 * reference, and end-to-end quantized inference staying close to float
 * for trained and untrained models.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <random>
#include <stdexcept>
#include <vector>

#include "core/ring_conv.h"
#include "core/ring_conv_engine.h"
#include "core/simd.h"
#include "data/tasks.h"
#include "models/backbones.h"
#include "nn/layer.h"
#include "nn/model.h"
#include "nn/trainer.h"
#include "quant/quant_model.h"
#include "tensor/image_ops.h"

namespace ringcnn::quant {
namespace {

TEST(QFormat, ForAbsMaxFits)
{
    for (double m : {0.1, 0.5, 0.99, 1.0, 3.7, 100.0}) {
        const QFormat f = QFormat::for_abs_max(m, 8);
        EXPECT_LE(f.quantize(m), f.max_int());
        EXPECT_GE(f.quantize(-m), f.min_int());
        // One more frac bit would overflow.
        const QFormat tight{8, f.frac + 1};
        EXPECT_GT(std::llround(m * std::ldexp(1.0, tight.frac)),
                  tight.max_int());
    }
}

TEST(QFormat, QuantizeRoundTripError)
{
    const QFormat f = QFormat::for_abs_max(1.0, 8);
    std::mt19937 rng(81);
    std::uniform_real_distribution<double> dist(-1.0, 1.0);
    for (int i = 0; i < 200; ++i) {
        const double x = dist(rng);
        const double back = f.dequantize(f.quantize(x));
        EXPECT_LE(std::fabs(back - x), f.scale() * 0.5 + 1e-12);
    }
}

TEST(ShiftRoundSaturate, Behaviour)
{
    EXPECT_EQ(shift_round_saturate(10, 2, 8), 3);    // 10/4 = 2.5 -> 3
    EXPECT_EQ(shift_round_saturate(-10, 2, 8), -2);  // round half up
    EXPECT_EQ(shift_round_saturate(1000, 0, 8), 127);
    EXPECT_EQ(shift_round_saturate(-1000, 0, 8), -128);
    EXPECT_EQ(shift_round_saturate(3, -2, 8), 12);   // left shift
}

TEST(ShiftRoundSaturate, Int32ExtremesAndHalfTies)
{
    // Accumulators at the int32 rim, untouched and requantized.
    EXPECT_EQ(shift_round_saturate(INT32_MAX, 0, 32), INT32_MAX);
    EXPECT_EQ(shift_round_saturate(INT32_MIN, 0, 32), INT32_MIN);
    EXPECT_EQ(shift_round_saturate(INT32_MAX, 24, 8), 127);   // saturates
    EXPECT_EQ(shift_round_saturate(INT32_MIN, 24, 8), -128);
    EXPECT_EQ(shift_round_saturate(INT32_MAX, 25, 8), 64);    // 63.99 -> 64
    // Inputs exactly on the round-to-nearest tie: half rounds UP
    // (toward +inf), for negatives too — the hardware convention the
    // row kernels and the oracle must share.
    EXPECT_EQ(shift_round_saturate(1, 1, 8), 1);     //  0.5 ->  1
    EXPECT_EQ(shift_round_saturate(-1, 1, 8), 0);    // -0.5 ->  0
    EXPECT_EQ(shift_round_saturate(3, 1, 8), 2);     //  1.5 ->  2
    EXPECT_EQ(shift_round_saturate(-3, 1, 8), -1);   // -1.5 -> -1
    EXPECT_EQ(shift_round_saturate(5, 1, 8), 3);     //  2.5 ->  3
    EXPECT_EQ(shift_round_saturate(6, 2, 8), 2);     //  1.5 ->  2
    EXPECT_EQ(shift_round_saturate(-6, 2, 8), -1);   // -1.5 -> -1
}

TEST(QFormat, ExtremesSurviveQuantizeDequantizeRoundTrip)
{
    // Regression for the double round-trip in QFormat::quantize: int8
    // extremes and large-frac formats must come back bit-identical.
    for (const int frac : {0, 4, 7, 20, 40, 200}) {
        const QFormat f{8, frac};
        for (const int64_t v : {INT64_C(-128), INT64_C(-127), INT64_C(-1),
                                INT64_C(0), INT64_C(1), INT64_C(126),
                                INT64_C(127)}) {
            EXPECT_EQ(f.quantize(f.dequantize(v)), v)
                << "frac=" << frac << " v=" << v;
        }
    }
    for (const int frac : {0, 10, 31, 40}) {
        const QFormat f{32, frac};
        for (const int64_t v :
             {static_cast<int64_t>(INT32_MIN), INT64_C(-1), INT64_C(0),
              INT64_C(1), static_cast<int64_t>(INT32_MAX)}) {
            EXPECT_EQ(f.quantize(f.dequantize(v)), v)
                << "frac=" << frac << " v=" << v;
        }
    }
}

TEST(QFormat, HugeFracSaturatesInsteadOfOverflowing)
{
    // frac far beyond the double exponent range: the scaled value is
    // infinite, where llround would be UB — quantize must saturate.
    const QFormat f{8, 1000};
    EXPECT_EQ(f.quantize(1.0), 127);
    EXPECT_EQ(f.quantize(-1.0), -128);
    EXPECT_EQ(f.quantize(0.0), 0);
    // Format search over a subnormal magnitude must stay finite and
    // still fit the value.
    const QFormat g = QFormat::for_abs_max(1e-310, 8);
    EXPECT_LE(g.quantize(1e-310), g.max_int());
    EXPECT_GE(g.quantize(-1e-310), g.min_int());
    EXPECT_EQ(g.quantize(g.dequantize(100)), 100);
}

TEST(SimdInt16Rows, MaddRowsGenericAndDispatchedAgreeAtInt16Rims)
{
    // The paired-tap conv row kernel against an int64 reference reduced
    // mod 2^32, for the generic build and the dispatched one (AVX2 where
    // the CPU has it): lengths through the 32-wide blocks, the 8-wide
    // body and the masked tail, tap counts 1, 2 and 37, and -32768 /
    // 32767 in both halves of source and weight words — where one
    // vpmaddwd lane's pair sum itself wraps (2 * (-32768)^2 = 2^31).
    std::mt19937 rng(87);
    std::uniform_int_distribution<int> any16(INT16_MIN, INT16_MAX);
    std::uniform_int_distribution<int32_t> any32(INT32_MIN, INT32_MAX);
    const int16_t rims[] = {INT16_MIN, INT16_MAX, INT16_MIN, -1, INT16_MAX};
    auto pick = [&](int64_t i) {
        return i % 3 == 0 ? rims[static_cast<size_t>(i / 3) % 5]
                          : static_cast<int16_t>(any16(rng));
    };
    for (const int ntaps : {1, 2, 37}) {
        for (const int64_t len : {1, 7, 8, 9, 31, 32, 33, 65}) {
            // Tap t reads pair words [3t, 3t + len): overlapping windows
            // of one exactly-sized source row.
            const int64_t words = 3 * (ntaps - 1) + len;
            std::vector<int16_t> src(static_cast<size_t>(2 * words));
            for (int64_t i = 0; i < 2 * words; ++i) {
                src[static_cast<size_t>(i)] = pick(i);
            }
            std::vector<int64_t> offsets(static_cast<size_t>(ntaps));
            std::vector<int16_t> coeffs(static_cast<size_t>(2 * ntaps));
            for (int t = 0; t < ntaps; ++t) {
                offsets[static_cast<size_t>(t)] = 3 * t;
                coeffs[static_cast<size_t>(2 * t)] = pick(2 * t);
                coeffs[static_cast<size_t>(2 * t + 1)] = pick(2 * t + 1);
            }
            coeffs[0] = INT16_MIN;  // both rims in both halves
            coeffs[1] = ntaps > 1 ? INT16_MAX : INT16_MIN;
            std::vector<int32_t> dst(static_cast<size_t>(len));
            for (auto& d : dst) d = any32(rng);
            dst[0] = INT32_MAX;

            std::vector<int32_t> want(dst.size());
            for (int64_t i = 0; i < len; ++i) {
                int64_t acc = dst[static_cast<size_t>(i)];
                for (int t = 0; t < ntaps; ++t) {
                    const size_t w = static_cast<size_t>(
                        2 * (offsets[static_cast<size_t>(t)] + i));
                    acc += static_cast<int64_t>(src[w]) *
                               coeffs[static_cast<size_t>(2 * t)] +
                           static_cast<int64_t>(src[w + 1]) *
                               coeffs[static_cast<size_t>(2 * t + 1)];
                }
                want[static_cast<size_t>(i)] = static_cast<int32_t>(
                    static_cast<uint32_t>(static_cast<uint64_t>(acc)));
            }
            std::vector<int32_t> generic = dst, dispatched = dst;
            simd::detail::madd_rows_i16_generic(generic.data(), src.data(),
                                                offsets.data(), coeffs.data(),
                                                ntaps, len);
            simd::madd_rows_i16(dispatched.data(), src.data(),
                                offsets.data(), coeffs.data(), ntaps, len);
            EXPECT_EQ(generic, want) << "len=" << len << " taps=" << ntaps;
            EXPECT_EQ(dispatched, generic)
                << simd::active_isa() << " len=" << len
                << " taps=" << ntaps;
        }
    }
}

TEST(SimdEpilogues, GenericAndDispatchedMatchInt64Oracle)
{
    // The int32-lane requant and directional-ReLU epilogues against the
    // int64 oracle arithmetic (shift_round_saturate, wht_inplace) over
    // accumulators bounded so the lanes cannot overflow — the bound
    // QuantExecutor proves before picking these kernels — with both
    // builds compared element for element, across every tuple width,
    // left and right shifts, and tails shorter than one vector.
    std::mt19937 rng(88);
    for (const int bits : {4, 8, 12, 16}) {
        for (const int64_t len : {1, 7, 8, 9, 33}) {
            // Requant: |acc| <= 2^20 and shifts in [-10, 10].
            std::uniform_int_distribution<int32_t> acc(-(1 << 20), 1 << 20);
            for (const int shift : {-10, -1, 0, 1, 7, 10}) {
                for (const bool relu : {false, true}) {
                    std::vector<int32_t> src(static_cast<size_t>(len));
                    for (auto& v : src) v = acc(rng);
                    src[0] = -(1 << 20);
                    std::vector<int16_t> g(src.size()), d(src.size());
                    simd::detail::requant_i32_i16_generic(
                        g.data(), src.data(), len, shift, bits, relu);
                    simd::requant_i32_i16(d.data(), src.data(), len, shift,
                                          bits, relu);
                    for (int64_t i = 0; i < len; ++i) {
                        int64_t v = src[static_cast<size_t>(i)];
                        if (relu && v < 0) v = 0;
                        EXPECT_EQ(g[static_cast<size_t>(i)],
                                  shift_round_saturate(v, shift, bits))
                            << "requant bits=" << bits << " shift=" << shift;
                    }
                    EXPECT_EQ(d, g) << simd::active_isa();
                }
            }
            // Directional ReLU, both pipelines: per-component shifts.
            for (const int n : {1, 2, 4, 8, 16}) {
                std::uniform_int_distribution<int32_t> small(-(1 << 16),
                                                             1 << 16);
                std::uniform_int_distribution<int> align(0, 6), sh(-3, 12);
                std::vector<std::vector<int32_t>> rows(
                    static_cast<size_t>(n),
                    std::vector<int32_t>(static_cast<size_t>(len)));
                std::vector<int> e1(static_cast<size_t>(n)), e2(e1), e3(e1);
                std::vector<const int32_t*> srcs;
                for (int j = 0; j < n; ++j) {
                    for (auto& v : rows[static_cast<size_t>(j)]) v = small(rng);
                    srcs.push_back(rows[static_cast<size_t>(j)].data());
                    e1[static_cast<size_t>(j)] = align(rng);
                    e2[static_cast<size_t>(j)] = sh(rng);
                    e3[static_cast<size_t>(j)] = sh(rng);
                }
                for (const bool otf : {true, false}) {
                    std::vector<std::vector<int16_t>> g(
                        static_cast<size_t>(n),
                        std::vector<int16_t>(static_cast<size_t>(len)));
                    auto d = g;
                    std::vector<int16_t*> gp, dp;
                    for (int j = 0; j < n; ++j) {
                        gp.push_back(g[static_cast<size_t>(j)].data());
                        dp.push_back(d[static_cast<size_t>(j)].data());
                    }
                    if (otf) {
                        simd::detail::dir_relu_otf_i32_i16_generic(
                            gp.data(), srcs.data(), n, e1.data(), e2.data(),
                            bits, len);
                        simd::dir_relu_otf_i32_i16(dp.data(), srcs.data(), n,
                                                   e1.data(), e2.data(), bits,
                                                   len);
                    } else {
                        simd::detail::dir_relu_qfirst_i32_i16_generic(
                            gp.data(), srcs.data(), n, e1.data(), e2.data(),
                            e3.data(), bits, len);
                        simd::dir_relu_qfirst_i32_i16(
                            dp.data(), srcs.data(), n, e1.data(), e2.data(),
                            e3.data(), bits, len);
                    }
                    for (int64_t i = 0; i < len; ++i) {
                        int64_t t[16];
                        for (int j = 0; j < n; ++j) {
                            const int64_t v =
                                rows[static_cast<size_t>(j)]
                                    [static_cast<size_t>(i)];
                            t[j] = otf ? v * (INT64_C(1)
                                              << e1[static_cast<size_t>(j)])
                                       : shift_round_saturate(
                                             v, e1[static_cast<size_t>(j)],
                                             bits);
                        }
                        wht_inplace(t, n);
                        for (int j = 0; j < n; ++j) {
                            if (!otf) {
                                t[j] = shift_round_saturate(
                                    t[j], e2[static_cast<size_t>(j)], bits);
                            }
                            if (t[j] < 0) t[j] = 0;
                        }
                        wht_inplace(t, n);
                        for (int j = 0; j < n; ++j) {
                            const int shift = otf ? e2[static_cast<size_t>(j)]
                                                  : e3[static_cast<size_t>(j)];
                            EXPECT_EQ(g[static_cast<size_t>(j)]
                                       [static_cast<size_t>(i)],
                                      shift_round_saturate(t[j], shift, bits))
                                << (otf ? "otf" : "q-first") << " n=" << n
                                << " bits=" << bits << " len=" << len;
                        }
                    }
                    EXPECT_EQ(d, g) << simd::active_isa() << " n=" << n;
                }
            }
        }
    }
}

TEST(SimdNonConvSteps, LerpColsGenericAndDispatchedMatchInt64Oracle)
{
    // The bilinear upsampler's horizontal pass: gathered code pairs
    // times weight pairs, against int64 products reduced mod 2^32, over
    // every pair of an exactly-sized row (the last pair ends on the
    // row's last element), codes at the int16 rims, the weights the
    // column table uses at r = 4 and arbitrary int16 weights (where a
    // pair sum wraps), and tails shorter than a vector.
    std::mt19937 rng(92);
    std::uniform_int_distribution<int> any16(INT16_MIN, INT16_MAX);
    for (const int64_t w : {2, 3, 9, 17, 64}) {
        std::vector<int16_t> src(static_cast<size_t>(w));
        for (int64_t i = 0; i < w; ++i) {
            src[static_cast<size_t>(i)] =
                i % 3 == 0 ? (i % 2 == 0 ? INT16_MIN : INT16_MAX)
                           : static_cast<int16_t>(any16(rng));
        }
        for (const int64_t len : {INT64_C(1), INT64_C(7), INT64_C(8), INT64_C(9),
                                  INT64_C(16), INT64_C(17), 4 * w}) {
            std::uniform_int_distribution<int32_t> col(0,
                                                       static_cast<int>(w) - 2);
            std::uniform_int_distribution<int> wx(0, 8);
            for (const bool bilinear : {true, false}) {
                std::vector<int32_t> cols(static_cast<size_t>(len));
                std::vector<int16_t> wts(2 * cols.size());
                for (int64_t i = 0; i < len; ++i) {
                    cols[static_cast<size_t>(i)] =
                        i == 0 ? static_cast<int32_t>(w - 2) : col(rng);
                    const int t = wx(rng);
                    wts[2 * static_cast<size_t>(i)] = static_cast<int16_t>(
                        bilinear ? 8 - t : any16(rng));
                    wts[2 * static_cast<size_t>(i) + 1] =
                        static_cast<int16_t>(bilinear ? t : any16(rng));
                }
                std::vector<int32_t> g(cols.size()), d(cols.size());
                simd::detail::lerp_cols_i16_i32_generic(
                    g.data(), src.data(), cols.data(), wts.data(), len);
                simd::lerp_cols_i16_i32(d.data(), src.data(), cols.data(),
                                        wts.data(), len);
                for (int64_t i = 0; i < len; ++i) {
                    const size_t c = static_cast<size_t>(
                        cols[static_cast<size_t>(i)]);
                    const int64_t v =
                        static_cast<int64_t>(src[c]) *
                            wts[2 * static_cast<size_t>(i)] +
                        static_cast<int64_t>(src[c + 1]) *
                            wts[2 * static_cast<size_t>(i) + 1];
                    EXPECT_EQ(g[static_cast<size_t>(i)],
                              static_cast<int32_t>(static_cast<uint32_t>(
                                  static_cast<uint64_t>(v))))
                        << "w=" << w << " len=" << len << " i=" << i;
                }
                EXPECT_EQ(d, g) << simd::active_isa() << " w=" << w
                                << " len=" << len;
            }
        }
    }
}

TEST(SimdNonConvSteps, LerpRowsGenericAndDispatchedMatchInt64Oracle)
{
    // The bilinear upsampler's vertical pass on int32 lanes against the
    // int64 oracle arithmetic, for blended rows bounded by |code| * 64
    // (r = 4, the bound QuantExecutor proves) and every shift that
    // bound admits, then both builds against each other past it, where
    // the lanes wrap.
    std::mt19937 rng(90);
    for (const int bits : {2, 4, 8, 12, 16}) {
        for (const int64_t len : {1, 7, 8, 9, 15, 16, 17, 33}) {
            std::uniform_int_distribution<int32_t> row(-(1 << 18),
                                                       (1 << 18) - 1);
            std::uniform_int_distribution<int32_t> weight(0, 8);
            for (const int shift : {-9, -1, 0, 1, 6, 12, 20, 31}) {
                std::vector<int32_t> a(static_cast<size_t>(len)), b(a);
                for (auto& v : a) v = row(rng);
                for (auto& v : b) v = row(rng);
                a[0] = -(1 << 18);
                b[0] = -(1 << 18);
                const int32_t wa = weight(rng), wb = 8 - wa;
                std::vector<int16_t> g(a.size()), d(a.size());
                simd::detail::lerp_rows_i32_i16_generic(
                    g.data(), a.data(), b.data(), wa, wb, len, shift, bits);
                simd::lerp_rows_i32_i16(d.data(), a.data(), b.data(), wa, wb,
                                        len, shift, bits);
                for (int64_t i = 0; i < len; ++i) {
                    const int64_t v =
                        static_cast<int64_t>(wa) * a[static_cast<size_t>(i)] +
                        static_cast<int64_t>(wb) * b[static_cast<size_t>(i)];
                    EXPECT_EQ(g[static_cast<size_t>(i)],
                              shift_round_saturate(v, shift, bits))
                        << "bits=" << bits << " shift=" << shift
                        << " len=" << len << " i=" << i;
                }
                EXPECT_EQ(d, g) << simd::active_isa();
            }
            // Past the proven bound the lanes wrap mod 2^32, identically
            // on both builds.
            std::vector<int32_t> a(static_cast<size_t>(len)), b(a);
            for (auto& v : a) v = static_cast<int32_t>(rng());
            for (auto& v : b) v = static_cast<int32_t>(rng());
            for (const int shift : {-31, -12, 0, 31}) {
                std::vector<int16_t> g(a.size()), d(a.size());
                simd::detail::lerp_rows_i32_i16_generic(
                    g.data(), a.data(), b.data(), 1000, -77, len, shift, bits);
                simd::lerp_rows_i32_i16(d.data(), a.data(), b.data(), 1000,
                                        -77, len, shift, bits);
                EXPECT_EQ(d, g) << simd::active_isa() << " wrapping";
            }
        }
    }
}

TEST(SimdNonConvSteps, AddAlignedGenericAndDispatchedMatchInt64Oracle)
{
    // The aligned add against the QResidualNode / QTwoBranchNode
    // formula in int64, over every int16 code range edge, shifts on
    // both sides of the int32-lane domain [-16, 31], tails shorter than
    // a vector, and dst aliasing the first operand (the in-place add).
    std::mt19937 rng(91);
    const std::vector<int> shifts{-40, -17, -16, -9, -1, 0, 1, 2, 7,
                                  15, 30, 31, 32, 40};
    std::uniform_int_distribution<size_t> pick(0, shifts.size() - 1);
    for (const int bits : {2, 4, 8, 12, 16}) {
        const int32_t edge = 1 << (bits - 1);
        const std::vector<int16_t> edges{
            static_cast<int16_t>(-edge), static_cast<int16_t>(edge - 1),
            static_cast<int16_t>(std::min(edge, 32767)), INT16_MIN, INT16_MAX,
            0, -1, 1};
        std::uniform_int_distribution<int> code(INT16_MIN, INT16_MAX);
        for (const int64_t len : {1, 7, 8, 9, 15, 16, 17, 40}) {
            for (int trial = 0; trial < 24; ++trial) {
                // Every listed shift pairing shows up across the trials.
                const int sa = trial < static_cast<int>(shifts.size())
                                   ? shifts[static_cast<size_t>(trial)]
                                   : shifts[pick(rng)];
                const int sb = shifts[pick(rng)];
                std::vector<int16_t> a(static_cast<size_t>(len)), b(a);
                for (int64_t i = 0; i < len; ++i) {
                    const bool at_edge = (i + trial) % 3 == 0;
                    a[static_cast<size_t>(i)] =
                        at_edge ? edges[static_cast<size_t>(i) % edges.size()]
                                : static_cast<int16_t>(code(rng));
                    b[static_cast<size_t>(i)] =
                        at_edge ? edges[static_cast<size_t>(i + 3) %
                                        edges.size()]
                                : static_cast<int16_t>(code(rng));
                }
                std::vector<int16_t> g(a.size());
                simd::detail::add_aligned_i16_generic(g.data(), a.data(),
                                                      b.data(), len, sa, sb,
                                                      bits);
                std::vector<int16_t> d = a;  // in place: dst == a
                simd::add_aligned_i16(d.data(), d.data(), b.data(), len, sa,
                                      sb, bits);
                for (int64_t i = 0; i < len; ++i) {
                    const int64_t va = shift_round_saturate(
                        a[static_cast<size_t>(i)], sa, bits + 2);
                    const int64_t vb = shift_round_saturate(
                        b[static_cast<size_t>(i)], sb, bits + 2);
                    EXPECT_EQ(g[static_cast<size_t>(i)],
                              shift_round_saturate(va + vb, 0, bits))
                        << "bits=" << bits << " sa=" << sa << " sb=" << sb
                        << " a=" << a[static_cast<size_t>(i)]
                        << " b=" << b[static_cast<size_t>(i)];
                }
                EXPECT_EQ(d, g) << simd::active_isa() << " bits=" << bits
                                << " sa=" << sa << " sb=" << sb
                                << " len=" << len;
            }
        }
    }
}

TEST(SimdNonConvSteps, DequantizeBitIdenticalToDoubleProductForEveryCode)
{
    // Every int16 code at frac 0..20, plus the edges of the float-lane
    // domain [-111, 126] and fracs past it on both sides (the double
    // product), against QuantizedModel::dequantize's arithmetic. frac
    // stays >= -112, where every product is still a finite float.
    std::vector<int16_t> codes;
    for (int v = INT16_MIN; v <= INT16_MAX; ++v) {
        codes.push_back(static_cast<int16_t>(v));
    }
    const int64_t n = static_cast<int64_t>(codes.size());
    std::vector<int> fracs;
    for (int f = 0; f <= 20; ++f) fracs.push_back(f);
    for (const int f : {-112, -111, -20, 126, 127, 140, 149, 160}) {
        fracs.push_back(f);
    }
    std::vector<float> g(codes.size()), d(codes.size());
    for (const int frac : fracs) {
        const double scale = std::ldexp(1.0, -frac);
        simd::detail::dequantize_i16_f32_generic(g.data(), codes.data(), n,
                                                 frac);
        // Offset by one element so the vector build also meets a tail.
        simd::dequantize_i16_f32(d.data(), codes.data(), n - 1, frac);
        d[static_cast<size_t>(n - 1)] = g[static_cast<size_t>(n - 1)];
        int64_t mismatches = 0;
        for (int64_t i = 0; i < n; ++i) {
            const float want =
                static_cast<float>(codes[static_cast<size_t>(i)] * scale);
            uint32_t w, gb, db;
            std::memcpy(&w, &want, sizeof w);
            std::memcpy(&gb, &g[static_cast<size_t>(i)], sizeof gb);
            std::memcpy(&db, &d[static_cast<size_t>(i)], sizeof db);
            if ((gb != w || db != w) && ++mismatches <= 5) {
                ADD_FAILURE() << "frac=" << frac << " code "
                              << codes[static_cast<size_t>(i)] << " want "
                              << want << " generic "
                              << g[static_cast<size_t>(i)] << " "
                              << simd::active_isa() << " "
                              << d[static_cast<size_t>(i)];
            }
        }
        EXPECT_EQ(mismatches, 0) << "frac=" << frac;
    }
}

TEST(SimdQuantize, BitIdenticalToScalarQuantizerOnSampledFloatBits)
{
    // The vector quantizer against QFormat::quantize on sampled float
    // bit patterns plus the hand-picked edges: NaN (quiet and
    // signalling, both signs), +-Inf, +-0, exact halves on both sides
    // of zero, subnormals, the largest finite floats and the values
    // that land exactly on and just beyond the code range — over
    // feature widths 2..16 and fracs from saturating to vanishing.
    std::vector<float> samples;
    auto bits_of = [](uint32_t u) {
        float f;
        std::memcpy(&f, &u, sizeof f);
        return f;
    };
    for (const uint32_t u :
         {0x7fc00000u, 0xffc00000u, 0x7f800001u, 0xff800001u, 0x7f800000u,
          0xff800000u, 0x00000000u, 0x80000000u, 0x00000001u, 0x80000001u,
          0x007fffffu, 0x807fffffu, 0x00800000u, 0x7f7fffffu, 0xff7fffffu,
          0x3effffffu, 0xbeffffffu}) {
        samples.push_back(bits_of(u));
    }
    for (int v = -70000; v <= 70000; v += 1) {
        samples.push_back(static_cast<float>(v) + 0.5f);  // exact halves
    }
    for (const float edge : {127.0f, 127.5f, 127.49999f, -128.0f, -128.5f,
                             -128.49998f, 32767.0f, 32767.5f, -32768.0f,
                             -32768.5f, 0.5f, -0.5f, 1.5f, -1.5f}) {
        samples.push_back(edge);
        samples.push_back(std::nextafter(edge, 0.0f));
        samples.push_back(std::nextafter(edge, 1e30f));
    }
    std::mt19937 rng(89);
    for (int i = 0; i < (1 << 20); ++i) {
        samples.push_back(bits_of(static_cast<uint32_t>(rng())));
    }
    const int64_t n = static_cast<int64_t>(samples.size());
    for (const int bits : {2, 8, 16}) {
        for (const int frac : {-2000, -150, -7, 0, 1, 3, 7, 20, 150, 2000}) {
            const QFormat f{bits, frac};
            std::vector<int16_t> g(samples.size()), d(samples.size());
            simd::detail::quantize_f32_i16_generic(g.data(), samples.data(),
                                                   n, frac, bits);
            simd::quantize_f32_i16(d.data(), samples.data(), n, frac, bits);
            int64_t mismatches = 0;
            for (int64_t i = 0; i < n; ++i) {
                const int64_t want = f.quantize(samples[static_cast<size_t>(i)]);
                if (g[static_cast<size_t>(i)] != want ||
                    d[static_cast<size_t>(i)] != want) {
                    if (++mismatches <= 5) {
                        ADD_FAILURE() << "bits=" << bits << " frac=" << frac
                                      << " x=" << samples[static_cast<size_t>(i)]
                                      << " want " << want << " generic "
                                      << g[static_cast<size_t>(i)] << " "
                                      << simd::active_isa() << " "
                                      << d[static_cast<size_t>(i)];
                    }
                }
            }
            EXPECT_EQ(mismatches, 0) << "bits=" << bits << " frac=" << frac;
        }
    }
}

TEST(QuantConvKernel, AccumulatorsAtInt32ExtremesMatchOracle)
{
    // One 1x1 conv whose accumulator touches INT32_MAX exactly and one
    // that reaches INT32_MIN + 1: the staged band kernel must preserve
    // the rim values bit for bit against the int64 oracle.
    const int co = 2, ci = 1, k = 1, h = 3, w = 5;
    const std::vector<int32_t> wts = {-128, 127};  // [co][ci][1][1]
    const std::vector<int64_t> bias = {
        INT64_C(2147483647) - 128 * 128,   // + (-128)*(-128) == INT32_MAX
        INT64_C(-2147483647) + 127 * 128,  // + 127*(-128) == INT32_MIN+1
    };
    const std::vector<int> out_frac = {7, 7};
    const QuantConvKernel kern(co, ci, k, wts, bias, out_frac);
    EXPECT_TRUE(kern.weights_fit());
    EXPECT_TRUE(kern.int32_safe(8));

    quant::QConvNode oracle;
    oracle.co = co;
    oracle.ci = ci;
    oracle.k = k;
    oracle.w = wts;
    oracle.bias = bias;
    oracle.out_frac = out_frac;

    QAct in;
    in.shape = {ci, h, w};
    in.frac = {0};
    in.v = {-128, 127, 0, -1, 1,  //
            64,   -64, 2, -2, 127,
            -128, -128, 127, 3, -3};
    const QAct want = oracle.forward(in);

    std::vector<int16_t> x16(in.v.begin(), in.v.end());
    // Every row banding, staged for one channel or for all of them,
    // must agree with the whole-plane oracle.
    QuantConvKernel::Band staged;
    for (const int band : {1, 2, 3}) {
        for (int oc = 0; oc < co; ++oc) {
            for (int y0 = 0; y0 < h; y0 += band) {
                const int y1 = std::min(y0 + band, h);
                std::vector<int32_t> rows(
                    static_cast<size_t>(y1 - y0) * w, 0);
                const bool all = (y0 / band) % 2 == 0;
                kern.stage(x16.data(), h, w, all ? 0 : oc, all ? co : oc + 1,
                           y0, y1, staged);
                kern.conv_band(staged, oc, rows.data());
                for (int y = y0; y < y1; ++y) {
                    for (int xx = 0; xx < w; ++xx) {
                        EXPECT_EQ(
                            rows[static_cast<size_t>(y - y0) * w + xx],
                            want.at(oc, y, xx))
                            << "band=" << band << " oc=" << oc << " y=" << y
                            << " x=" << xx;
                    }
                }
            }
        }
    }
    // Rim values really are hit.
    EXPECT_EQ(want.at(0, 0, 0), INT32_MAX);
    EXPECT_EQ(want.at(1, 0, 0), INT32_MIN + 1);

    // A bound past the rim must be rejected for the engine path.
    const std::vector<int64_t> hot_bias = {INT64_C(2147483647), 0};
    const QuantConvKernel unsafe(co, ci, k, wts, hot_bias, out_frac);
    EXPECT_FALSE(unsafe.int32_safe(8));
}

TEST(OnTheFlyDirRelu, ExtremeFracSpreadsAlignExactly)
{
    // frac widths that force align LEFT shifts (ny spread of 20 bits)
    // and output shifts in BOTH directions (nx above and below
    // fmax + log2 n). The independent straight-line reference below
    // repeats the Fig. 8 pipeline in exact double arithmetic (all
    // magnitudes < 2^53), so equality must be exact.
    const int n = 4;
    const std::vector<int> ny{0, 20, 5, 9};
    const std::vector<int> nx{25, 2, 12, 30};
    const std::vector<int64_t> y{3, -700000, 17, -250};
    std::vector<int64_t> out;
    onthefly_directional_relu(y, ny, nx, n, out, 32);

    const int fmax = 20;
    double t[4];
    for (int i = 0; i < n; ++i) {
        t[static_cast<size_t>(i)] = static_cast<double>(y[static_cast<size_t>(i)]) *
            std::ldexp(1.0, fmax - ny[static_cast<size_t>(i)]);
    }
    auto butterfly = [&t]() {
        const double a = t[0] + t[1], b = t[0] - t[1];
        const double c = t[2] + t[3], d = t[2] - t[3];
        t[0] = a + c;
        t[1] = b + d;
        t[2] = a - c;
        t[3] = b - d;
    };
    butterfly();
    for (double& v : t) v = v > 0.0 ? v : 0.0;
    butterfly();
    for (int i = 0; i < n; ++i) {
        const int64_t expected = shift_round_saturate(
            static_cast<int64_t>(t[static_cast<size_t>(i)]),
            fmax + 2 - nx[static_cast<size_t>(i)], 32);
        EXPECT_EQ(out[static_cast<size_t>(i)], expected) << "component " << i;
    }
}

TEST(OnTheFlyDirRelu, MatchesFloatReference)
{
    // The integer pipeline must equal quantize(fH_float(y)) whenever no
    // saturation occurs: full-precision internals guarantee it.
    const int n = 4;
    const auto [u, v] = fh_transforms(n);
    std::mt19937 rng(82);
    std::uniform_real_distribution<double> dist(-1.0, 1.0);
    for (int trial = 0; trial < 200; ++trial) {
        std::vector<int> ny{12, 14, 13, 12}, nx{6, 7, 6, 5};
        std::vector<int64_t> y(4);
        std::vector<double> yf(4);
        for (int i = 0; i < 4; ++i) {
            yf[static_cast<size_t>(i)] = dist(rng);
            y[static_cast<size_t>(i)] = std::llround(
                yf[static_cast<size_t>(i)] *
                std::ldexp(1.0, ny[static_cast<size_t>(i)]));
            yf[static_cast<size_t>(i)] =
                y[static_cast<size_t>(i)] *
                std::ldexp(1.0, -ny[static_cast<size_t>(i)]);
        }
        // float reference: (1/n) H fcw(H y)
        Tensor t({4, 1, 1});
        for (int i = 0; i < 4; ++i) {
            t.at(i, 0, 0) = static_cast<float>(yf[static_cast<size_t>(i)]);
        }
        const Tensor ref = directional_relu(u, v, t);
        std::vector<int64_t> out;
        onthefly_directional_relu(y, ny, nx, n, out, 16);
        for (int i = 0; i < 4; ++i) {
            const double want = ref.at(i, 0, 0);
            const double got =
                out[static_cast<size_t>(i)] *
                std::ldexp(1.0, -nx[static_cast<size_t>(i)]);
            EXPECT_NEAR(got, want,
                        std::ldexp(1.0, -nx[static_cast<size_t>(i)]) * 0.51);
        }
    }
}

TEST(OnTheFlyDirRelu, SaturatesTo8Bit)
{
    std::vector<int64_t> y{1 << 20, 0, 0, 0};
    std::vector<int> ny{4, 4, 4, 4}, nx{4, 4, 4, 4};
    std::vector<int64_t> out;
    onthefly_directional_relu(y, ny, nx, 4, out, 8);
    for (int i = 0; i < 4; ++i) {
        EXPECT_LE(out[static_cast<size_t>(i)], 127);
        EXPECT_GE(out[static_cast<size_t>(i)], -128);
    }
}

class QuantModelTest : public ::testing::Test
{
  protected:
    static std::vector<Tensor> calib()
    {
        std::mt19937 rng(83);
        std::vector<Tensor> out;
        for (int i = 0; i < 3; ++i) {
            out.push_back(data::synthetic_image(3, 16, 16, rng));
        }
        return out;
    }
};

TEST_F(QuantModelTest, RealDenoiserCloseToFloat)
{
    models::ErnetConfig mc;
    mc.channels = 8;
    mc.blocks = 1;
    nn::Model m = models::build_dn_ernet_pu(models::Algebra::real(), mc);
    QuantizedModel qm(m, calib());
    std::mt19937 rng(84);
    const Tensor x = data::synthetic_image(3, 16, 16, rng);
    const Tensor yf = m.forward(x);
    const Tensor yq = qm.forward(x);
    EXPECT_EQ(yq.shape(), yf.shape());
    // Quantization PSNR between float and fixed must be high.
    EXPECT_GT(psnr(yf, yq), 30.0);
}

TEST_F(QuantModelTest, RingFhModelCloseToFloat)
{
    models::ErnetConfig mc;
    mc.channels = 8;
    mc.blocks = 1;
    nn::Model m =
        models::build_dn_ernet_pu(models::Algebra::with_fh("RI4"), mc);
    QuantizedModel qm(m, calib());
    std::mt19937 rng(85);
    const Tensor x = data::synthetic_image(3, 16, 16, rng);
    EXPECT_GT(psnr(m.forward(x), qm.forward(x)), 32.0);
}

TEST_F(QuantModelTest, SrModelWithBilinearSkip)
{
    nn::Model m = models::build_srresnet(models::Algebra::with_fh("RI2"), 8, 1);
    std::mt19937 rng(86);
    std::vector<Tensor> cal;
    for (int i = 0; i < 2; ++i) {
        cal.push_back(data::synthetic_image(3, 8, 8, rng));
    }
    QuantizedModel qm(m, cal);
    const Tensor x = data::synthetic_image(3, 8, 8, rng);
    const Tensor yf = m.forward(x);
    const Tensor yq = qm.forward(x);
    EXPECT_EQ(yq.shape(), (Shape{3, 32, 32}));
    EXPECT_GT(psnr(yf, yq), 30.0);
}

TEST_F(QuantModelTest, BilinearFactorMustBeAPowerOfTwo)
{
    // The fixed-point upsampler shifts its 4-tap sum by 2 * ceil_log2(2r)
    // bits while the weights sum to (2r)^2: at r = 3 a constant 0.5
    // image read back 0.28. Conversion refuses such factors, and the
    // powers of two reproduce the constant exactly.
    auto model = [](int r) {
        return nn::Model("bilinear",
                         std::make_unique<nn::UpsampleBilinearLayer>(r));
    };
    Tensor half({3, 5, 7});
    half.fill(0.5f);
    for (const int r : {3, 5, 6}) {
        nn::Model m = model(r);
        EXPECT_THROW(QuantizedModel(m, {half}), std::invalid_argument)
            << "r=" << r;
    }
    for (const int r : {2, 4}) {
        nn::Model m = model(r);
        const QuantizedModel qm(m, {half});
        const Tensor y = qm.forward(half);
        ASSERT_EQ(y.shape(), (Shape{3, 5 * r, 7 * r}));
        for (int64_t i = 0; i < y.numel(); ++i) {
            ASSERT_EQ(y[i], 0.5f) << "r=" << r << " flat index " << i;
        }
    }
}

TEST_F(QuantModelTest, TrainedModelSmallQuantDrop)
{
    // After short training, quantized PSNR on the task must be within a
    // reasonable drop of the float PSNR (paper Fig. 13: ~0.11 dB at full
    // scale; we allow a looser bound at laptop scale).
    const data::DenoiseTask task(25.0f / 255.0f);
    models::ErnetConfig mc;
    mc.channels = 8;
    mc.blocks = 1;
    nn::Model m =
        models::build_dn_ernet_pu(models::Algebra::with_fh("RI4"), mc);
    nn::TrainConfig cfg;
    cfg.steps = 200;
    cfg.eval_count = 4;
    const auto res = nn::train_on_task(m, task, cfg);

    const auto eval = data::make_eval_set(task, 4, 48, 48, cfg.seed + 999);
    QuantizedModel qm(m, calib());
    double qpsnr = 0.0;
    for (const auto& [in, tgt] : eval) {
        qpsnr += psnr(clamp(qm.forward(in), 0, 1), tgt);
    }
    qpsnr /= eval.size();
    EXPECT_GT(qpsnr, res.psnr_db - 0.6)
        << "float " << res.psnr_db << " vs quant " << qpsnr;
}

TEST_F(QuantModelTest, OnTheFlyBeatsQuantizeFirst)
{
    // The ablation of Section V: the quantize-before-transform pipeline
    // must not be better than the on-the-fly pipeline (usually worse).
    const data::DenoiseTask task(25.0f / 255.0f);
    models::ErnetConfig mc;
    mc.channels = 8;
    mc.blocks = 1;
    nn::Model m =
        models::build_dn_ernet_pu(models::Algebra::with_fh("RI4"), mc);
    nn::TrainConfig cfg;
    cfg.steps = 200;
    cfg.eval_count = 4;
    nn::train_on_task(m, task, cfg);

    QuantOptions otf;
    QuantOptions qfirst;
    qfirst.onthefly_dir_relu = false;
    QuantizedModel qm_otf(m, calib(), otf);
    QuantizedModel qm_qf(m, calib(), qfirst);

    const auto eval = data::make_eval_set(task, 4, 48, 48, 777);
    double p_otf = 0.0, p_qf = 0.0;
    for (const auto& [in, tgt] : eval) {
        p_otf += psnr(clamp(qm_otf.forward(in), 0, 1), tgt);
        p_qf += psnr(clamp(qm_qf.forward(in), 0, 1), tgt);
    }
    EXPECT_GE(p_otf, p_qf - 0.02 * eval.size());
}

TEST_F(QuantModelTest, ComponentwiseQHelpsDirectionalRelu)
{
    // Section IV-C: with fH, single per-layer Q-formats saturate some
    // components; component-wise Q must not be worse.
    models::ErnetConfig mc;
    mc.channels = 8;
    mc.blocks = 1;
    nn::Model m =
        models::build_dn_ernet_pu(models::Algebra::with_fh("RI4"), mc);
    const data::DenoiseTask task(25.0f / 255.0f);
    nn::TrainConfig cfg;
    cfg.steps = 200;
    cfg.eval_count = 4;
    nn::train_on_task(m, task, cfg);

    QuantOptions cw;
    QuantOptions uni;
    uni.componentwise_q = false;
    QuantizedModel qm_cw(m, calib(), cw);
    QuantizedModel qm_uni(m, calib(), uni);
    const auto eval = data::make_eval_set(task, 4, 48, 48, 778);
    double p_cw = 0.0, p_uni = 0.0;
    for (const auto& [in, tgt] : eval) {
        p_cw += psnr(clamp(qm_cw.forward(in), 0, 1), tgt);
        p_uni += psnr(clamp(qm_uni.forward(in), 0, 1), tgt);
    }
    EXPECT_GE(p_cw, p_uni - 0.02 * eval.size());
}

TEST_F(QuantModelTest, OpLogReflectsFusion)
{
    models::ErnetConfig mc;
    mc.channels = 8;
    mc.blocks = 1;
    nn::Model m =
        models::build_dn_ernet_pu(models::Algebra::with_fh("RI4"), mc);
    QuantizedModel qm(m, calib());
    const auto ops = qm.op_names();
    bool has_otf = false;
    for (const auto& o : ops) {
        if (o == "dir-relu(otf)") has_otf = true;
    }
    EXPECT_TRUE(has_otf);
}

}  // namespace
}  // namespace ringcnn::quant
