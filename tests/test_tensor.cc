/**
 * @file
 * Unit tests for the tensor substrate: indexing, reference conv2d,
 * the layout kernels (pixel (un)shuffle, channel pad and crop) at both
 * element types, PSNR, resampling kernels.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "tensor/image_ops.h"
#include "tensor/layout_ops.h"
#include "tensor/tensor.h"

namespace ringcnn {
namespace {

TEST(Tensor, IndexingRoundTrip)
{
    Tensor t({2, 3, 4});
    float v = 0.0f;
    for (int i = 0; i < 2; ++i) {
        for (int j = 0; j < 3; ++j) {
            for (int k = 0; k < 4; ++k) t.at(i, j, k) = v++;
        }
    }
    EXPECT_EQ(t.numel(), 24);
    EXPECT_FLOAT_EQ(t.at(0, 0, 0), 0.0f);
    EXPECT_FLOAT_EQ(t.at(1, 2, 3), 23.0f);
    EXPECT_FLOAT_EQ(t[23], 23.0f);
}

TEST(Tensor, Arithmetic)
{
    Tensor a({2, 2});
    Tensor b({2, 2});
    a.fill(1.5f);
    b.fill(2.0f);
    Tensor c = a + b;
    EXPECT_FLOAT_EQ(c.at(1, 1), 3.5f);
    c -= a;
    EXPECT_FLOAT_EQ(c.at(0, 0), 2.0f);
    c *= 2.0f;
    EXPECT_FLOAT_EQ(c.at(0, 1), 4.0f);
    EXPECT_DOUBLE_EQ(c.sum(), 16.0);
}

TEST(Tensor, ReshapePreservesData)
{
    Tensor t({2, 6});
    for (int64_t i = 0; i < t.numel(); ++i) t[i] = static_cast<float>(i);
    Tensor r = t.reshaped({3, 4});
    EXPECT_EQ(r.dim(0), 3);
    EXPECT_FLOAT_EQ(r.at(2, 3), 11.0f);
}

TEST(Conv2d, IdentityKernel)
{
    std::mt19937 rng(7);
    Tensor x({3, 8, 8});
    x.randn(rng);
    Tensor w({3, 3, 1, 1});
    for (int c = 0; c < 3; ++c) w.at(c, c, 0, 0) = 1.0f;
    const Tensor y = conv2d_same(x, w, {});
    EXPECT_LT(mse(x, y), 1e-12);
}

TEST(Conv2d, KnownAverageKernel)
{
    Tensor x({1, 3, 3});
    float v = 1.0f;
    for (int y = 0; y < 3; ++y) {
        for (int xx = 0; xx < 3; ++xx) x.at(0, y, xx) = v++;
    }
    Tensor w({1, 1, 3, 3});
    for (int ky = 0; ky < 3; ++ky) {
        for (int kx = 0; kx < 3; ++kx) w.at(0, 0, ky, kx) = 1.0f;
    }
    const Tensor y = conv2d_same(x, w, {});
    // Center tap sums all nine pixels: 45.
    EXPECT_FLOAT_EQ(y.at(0, 1, 1), 45.0f);
    // Corner (0,0) sums the 2x2 top-left block: 1+2+4+5 = 12.
    EXPECT_FLOAT_EQ(y.at(0, 0, 0), 12.0f);
}

TEST(Conv2d, BiasApplied)
{
    Tensor x({1, 4, 4});
    x.fill(0.0f);
    Tensor w({2, 1, 3, 3});
    const Tensor y = conv2d_same(x, w, {1.0f, -2.5f});
    EXPECT_FLOAT_EQ(y.at(0, 2, 2), 1.0f);
    EXPECT_FLOAT_EQ(y.at(1, 0, 3), -2.5f);
}

TEST(Conv2d, MatchesManualComputation)
{
    std::mt19937 rng(11);
    Tensor x({2, 5, 5});
    x.randn(rng);
    Tensor w({1, 2, 3, 3});
    w.randn(rng);
    const Tensor y = conv2d_same(x, w, {});
    // Manual value at an interior pixel (2, 3).
    double want = 0.0;
    for (int c = 0; c < 2; ++c) {
        for (int ky = 0; ky < 3; ++ky) {
            for (int kx = 0; kx < 3; ++kx) {
                want += static_cast<double>(w.at(0, c, ky, kx)) *
                        x.at(c, 2 + ky - 1, 3 + kx - 1);
            }
        }
    }
    EXPECT_NEAR(y.at(0, 2, 3), want, 1e-5);
}

// The layout kernels are one template for both element types: every
// case runs on float (the fp32 executor and layers) and int16_t (the
// int8 executor's code arena), at r = 2, 3 and 4, on shapes r divides
// and shapes it does not (17x23, 33x47 leave a partial block).
template <class T>
class PixelShuffle : public ::testing::Test
{
};
using LayoutElementTypes = ::testing::Types<float, int16_t>;
TYPED_TEST_SUITE(PixelShuffle, LayoutElementTypes);

/** Distinct integer codes, exact in both element types. */
template <class T>
std::vector<T>
distinct_values(const Shape& s)
{
    std::vector<T> v(static_cast<size_t>(shape_numel(s)));
    for (size_t i = 0; i < v.size(); ++i) {
        v[i] = static_cast<T>(static_cast<int>(i % 30000) - 15000);
    }
    return v;
}

const std::vector<std::pair<int, int>> kPlanes = {
    {8, 12}, {12, 24}, {17, 23}, {33, 47}};

TYPED_TEST(PixelShuffle, RoundTrip)
{
    using T = TypeParam;
    for (const int r : {2, 3, 4}) {
        for (const auto& [h, w] : kPlanes) {
            const Shape in{3, h, w};
            const std::vector<T> x = distinct_values<T>(in);
            const Shape ds = layout::pixel_unshuffle_shape(in, r);
            ASSERT_EQ(ds, (Shape{3 * r * r, h / r, w / r}));
            std::vector<T> down(static_cast<size_t>(shape_numel(ds)));
            layout::pixel_unshuffle(x.data(), in, r, down.data());
            // Every element against the index formula, reading the
            // source with its own width as row stride.
            for (int c = 0; c < 3; ++c) {
                for (int dy = 0; dy < r; ++dy) {
                    for (int dx = 0; dx < r; ++dx) {
                        const int oc = (c * r + dy) * r + dx;
                        for (int y = 0; y < ds[1]; ++y) {
                            for (int xx = 0; xx < ds[2]; ++xx) {
                                ASSERT_EQ(down[(static_cast<size_t>(oc) *
                                                    ds[1] +
                                                y) * ds[2] +
                                               xx],
                                          x[(static_cast<size_t>(c) * h +
                                             y * r + dy) * w +
                                            xx * r + dx])
                                    << "r=" << r << " " << h << "x" << w
                                    << " c=" << oc << " y=" << y
                                    << " x=" << xx;
                            }
                        }
                    }
                }
            }
            // Shuffling back restores every whole block.
            const Shape us = layout::pixel_shuffle_shape(ds, r);
            ASSERT_EQ(us, (Shape{3, h / r * r, w / r * r}));
            std::vector<T> up(static_cast<size_t>(shape_numel(us)));
            layout::pixel_shuffle(down.data(), ds, r, up.data());
            for (int c = 0; c < 3; ++c) {
                for (int y = 0; y < us[1]; ++y) {
                    for (int xx = 0; xx < us[2]; ++xx) {
                        ASSERT_EQ(
                            up[(static_cast<size_t>(c) * us[1] + y) * us[2] +
                               xx],
                            x[(static_cast<size_t>(c) * h + y) * w + xx])
                            << "r=" << r << " " << h << "x" << w;
                    }
                }
            }
        }
    }
}

TYPED_TEST(PixelShuffle, ChannelOrdering)
{
    using T = TypeParam;
    // Component (dy, dx) of each r x r block is channel c*r*r + dy*r + dx.
    const std::vector<T> block{1, 2, 3, 4};
    std::vector<T> d(4);
    layout::pixel_unshuffle(block.data(), {1, 2, 2}, 2, d.data());
    EXPECT_EQ(d, (std::vector<T>{1, 2, 3, 4}));

    for (const int r : {2, 3, 4}) {
        for (const auto& [h, w] : kPlanes) {
            const Shape in{2 * r * r, h, w};
            const std::vector<T> x = distinct_values<T>(in);
            const Shape os = layout::pixel_shuffle_shape(in, r);
            ASSERT_EQ(os, (Shape{2, h * r, w * r}));
            std::vector<T> out(static_cast<size_t>(shape_numel(os)));
            layout::pixel_shuffle(x.data(), in, r, out.data());
            for (int c = 0; c < 2; ++c) {
                for (int oy = 0; oy < os[1]; ++oy) {
                    for (int ox = 0; ox < os[2]; ++ox) {
                        const int ic = (c * r + oy % r) * r + ox % r;
                        ASSERT_EQ(
                            out[(static_cast<size_t>(c) * os[1] + oy) *
                                    os[2] +
                                ox],
                            x[(static_cast<size_t>(ic) * h + oy / r) * w +
                              ox / r])
                            << "r=" << r << " " << h << "x" << w;
                    }
                }
            }
        }
    }
}

template <class T>
class ChannelPadCrop : public ::testing::Test
{
};
TYPED_TEST_SUITE(ChannelPadCrop, LayoutElementTypes);

TYPED_TEST(ChannelPadCrop, ZeroFillsAndKeepsLeadingChannels)
{
    using T = TypeParam;
    for (const auto& [h, w] : kPlanes) {
        const Shape in{3, h, w};
        const size_t plane = static_cast<size_t>(h) * w;
        const std::vector<T> x = distinct_values<T>(in);
        // Stale values in the output buffer must not survive the pad.
        std::vector<T> padded(8 * plane, T(7));
        layout::channel_pad(x.data(), in, 8, padded.data());
        for (size_t i = 0; i < padded.size(); ++i) {
            ASSERT_EQ(padded[i], i < x.size() ? x[i] : T(0)) << i;
        }
        std::vector<T> cropped(2 * plane, T(7));
        layout::crop_channels(x.data(), in, 2, cropped.data());
        for (size_t i = 0; i < cropped.size(); ++i) {
            ASSERT_EQ(cropped[i], x[i]) << i;
        }
    }
}

TEST(Psnr, KnownValue)
{
    Tensor a({1, 2, 2});
    Tensor b({1, 2, 2});
    b.fill(0.1f);
    // MSE = 0.01, peak = 1 -> PSNR = 20 dB.
    EXPECT_NEAR(psnr(a, b), 20.0, 1e-4);
}

TEST(Psnr, InfiniteForIdentical)
{
    Tensor a({1, 3, 3});
    a.fill(0.5f);
    EXPECT_TRUE(std::isinf(psnr(a, a)));
}

TEST(Resample, BoxDownThenNearestUpPreservesConstant)
{
    Tensor x({1, 8, 8});
    x.fill(0.7f);
    const Tensor d = downsample_box(x, 4);
    EXPECT_EQ(d.dim(1), 2);
    EXPECT_FLOAT_EQ(d.at(0, 0, 0), 0.7f);
    const Tensor u = upsample_nearest(d, 4);
    EXPECT_LT(mse(x, u), 1e-12);
}

TEST(Resample, BilinearPreservesConstant)
{
    Tensor x({2, 4, 4});
    x.fill(-0.25f);
    const Tensor u = upsample_bilinear(x, 4);
    EXPECT_EQ(u.dim(1), 16);
    EXPECT_LT(mse(u, clamp(u, -0.25f, -0.25f)), 1e-12);
}

TEST(Clamp, Bounds)
{
    Tensor x({1, 1, 3});
    x.at(0, 0, 0) = -2.0f;
    x.at(0, 0, 1) = 0.5f;
    x.at(0, 0, 2) = 9.0f;
    const Tensor y = clamp(x, 0.0f, 1.0f);
    EXPECT_FLOAT_EQ(y.at(0, 0, 0), 0.0f);
    EXPECT_FLOAT_EQ(y.at(0, 0, 1), 0.5f);
    EXPECT_FLOAT_EQ(y.at(0, 0, 2), 1.0f);
}

}  // namespace
}  // namespace ringcnn
