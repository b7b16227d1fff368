#include "inputs.h"

#include <algorithm>
#include <cmath>
#include <random>

namespace ringbench {

using ringcnn::Tensor;

uint64_t
sub_seed(uint64_t seed, uint64_t k)
{
    // splitmix64 over (seed, k): decorrelated streams from one seed.
    uint64_t z = seed * 0x9E3779B97F4A7C15ULL + (k + 1) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

namespace {

/** Fills rows [y0, y1) x cols [x0, x1) of every channel with `rgb`. */
void
fill_rect(Tensor* img, int y0, int y1, int x0, int x1, const float rgb[3])
{
    const int h = img->dim(1), w = img->dim(2);
    y0 = std::clamp(y0, 0, h);
    y1 = std::clamp(y1, 0, h);
    x0 = std::clamp(x0, 0, w);
    x1 = std::clamp(x1, 0, w);
    for (int c = 0; c < 3; ++c) {
        for (int y = y0; y < y1; ++y) {
            float* row = img->data() + (static_cast<int64_t>(c) * h + y) * w;
            std::fill(row + x0, row + x1, rgb[c]);
        }
    }
}

void
random_color(std::mt19937_64& rng, float lo, float hi, float rgb[3])
{
    std::uniform_real_distribution<float> u(lo, hi);
    for (int c = 0; c < 3; ++c) rgb[c] = u(rng);
}

}  // namespace

Tensor
make_scene(int h, int w, uint64_t seed)
{
    std::mt19937_64 rng(seed);
    std::uniform_real_distribution<float> u(0.0f, 1.0f);
    Tensor img({3, h, w});
    for (int c = 0; c < 3; ++c) {
        const float base = 0.25f + 0.5f * u(rng);
        const float gx = 0.3f * (u(rng) - 0.5f), gy = 0.3f * (u(rng) - 0.5f);
        const float fx = 6.0f * u(rng) / static_cast<float>(w);
        const float fy = 6.0f * u(rng) / static_cast<float>(h);
        const float phase = 6.2831853f * u(rng);
        for (int y = 0; y < h; ++y) {
            float* row = img.data() + (static_cast<int64_t>(c) * h + y) * w;
            for (int x = 0; x < w; ++x) {
                row[x] = base + gx * static_cast<float>(x) / w +
                         gy * static_cast<float>(y) / h +
                         0.12f * std::sin(fx * x + fy * y + phase);
            }
        }
    }
    // Flat-shaded objects: 8 rectangles and 8 discs at seeded places.
    for (int k = 0; k < 16; ++k) {
        float rgb[3];
        random_color(rng, 0.05f, 0.95f, rgb);
        const int cx = static_cast<int>(u(rng) * w);
        const int cy = static_cast<int>(u(rng) * h);
        const int rx = 4 + static_cast<int>(u(rng) * w / 6);
        const int ry = 4 + static_cast<int>(u(rng) * h / 6);
        if (k % 2 == 0) {
            fill_rect(&img, cy - ry, cy + ry, cx - rx, cx + rx, rgb);
            continue;
        }
        for (int y = std::max(0, cy - ry); y < std::min(h, cy + ry); ++y) {
            for (int x = std::max(0, cx - rx); x < std::min(w, cx + rx);
                 ++x) {
                const float dx = static_cast<float>(x - cx) / rx;
                const float dy = static_cast<float>(y - cy) / ry;
                if (dx * dx + dy * dy > 1.0f) continue;
                for (int c = 0; c < 3; ++c) img.at(c, y, x) = rgb[c];
            }
        }
    }
    return img;
}

void
add_noise(Tensor* img, float sigma, uint64_t seed)
{
    std::mt19937_64 rng(seed);
    std::normal_distribution<float> n(0.0f, sigma);
    float* p = img->data();
    for (int64_t i = 0; i < img->numel(); ++i) p[i] += n(rng);
}

std::vector<Tensor>
make_screen_loop(int h, int w, int count, uint64_t seed)
{
    std::mt19937_64 rng(seed);
    std::uniform_real_distribution<float> u(0.0f, 1.0f);
    Tensor desk({3, h, w});
    float rgb[3];
    random_color(rng, 0.1f, 0.5f, rgb);
    fill_rect(&desk, 0, h, 0, w, rgb);

    // Fixed layout (fractions of the frame), seeded colors and text.
    struct Panel
    {
        float y0, y1, x0, x1;
        bool text;
    };
    const Panel panels[] = {
        {0.03f, 0.80f, 0.02f, 0.56f, true},   // editor window
        {0.08f, 0.62f, 0.60f, 0.98f, true},   // chat window
        {0.66f, 0.86f, 0.60f, 0.98f, false},  // flat widget
        {0.92f, 1.00f, 0.00f, 1.00f, false},  // taskbar
    };
    for (const Panel& p : panels) {
        const int y0 = static_cast<int>(p.y0 * h), y1 = static_cast<int>(p.y1 * h);
        const int x0 = static_cast<int>(p.x0 * w), x1 = static_cast<int>(p.x1 * w);
        random_color(rng, 0.75f, 0.98f, rgb);
        fill_rect(&desk, y0, y1, x0, x1, rgb);
        float bar[3];
        random_color(rng, 0.2f, 0.6f, bar);
        fill_rect(&desk, y0, y0 + 12, x0, x1, bar);
        if (!p.text) continue;
        // Glyph rows: 5x7 cells of seeded ink, 1 px spacing, word gaps.
        float ink[3];
        random_color(rng, 0.0f, 0.25f, ink);
        for (int ly = y0 + 16; ly + 7 <= y1 - 4; ly += 10) {
            int x = x0 + 4;
            while (x + 5 <= x1 - 4) {
                if (u(rng) < 0.15f) {  // word gap
                    x += 4;
                    continue;
                }
                for (int gy = 0; gy < 7; ++gy) {
                    for (int gx = 0; gx < 5; ++gx) {
                        if (u(rng) < 0.45f) {
                            for (int c = 0; c < 3; ++c) {
                                desk.at(c, ly + gy, x + gx) = ink[c];
                            }
                        }
                    }
                }
                x += 6;
            }
        }
    }

    // The inset: a 96x64 animated picture sliding 8 px per frame right,
    // then back, over the editor window (a triangle path of period
    // `count`, so the loop closes on itself).
    const int iw = 96, ih = 64;
    const int iy = static_cast<int>(0.30f * h), ix = static_cast<int>(0.12f * w);
    const int step = 8;
    std::vector<Tensor> frames;
    frames.reserve(static_cast<size_t>(count));
    for (int t = 0; t < count; ++t) {
        const int tri = t <= count / 2 ? t : count - t;
        const int x0 = ix + step * tri;
        Tensor f = desk;
        Tensor pic = make_scene(ih, iw, sub_seed(seed, 1000 + t));
        for (int c = 0; c < 3; ++c) {
            for (int y = 0; y < ih; ++y) {
                for (int x = 0; x < iw; ++x) {
                    f.at(c, iy + y, x0 + x) = pic.at(c, y, x);
                }
            }
        }
        frames.push_back(std::move(f));
    }
    return frames;
}

}  // namespace ringbench
