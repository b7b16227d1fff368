/**
 * @file
 * google-benchmark microbenchmarks: host-side throughput of the fast
 * ring convolution (FRCONV) versus the isomorphic real convolution, per
 * ring, plus the RingConvEngine execution paths (weight-transform
 * caching, row-contiguous kernels, threading, batching) against the
 * seed per-pixel FRCONV loop they replaced, which lives on as the fp64
 * oracle ring_conv_fast().
 */
#include <benchmark/benchmark.h>

#include <random>

#include "core/ring_conv.h"
#include "core/ring_conv_engine.h"
#include "core/simd.h"
#include "tensor/image_ops.h"

namespace {

using namespace ringcnn;

struct Setup
{
    const Ring* ring;
    RingConvWeights w;
    Tensor x;
    std::vector<float> bias;
};

Setup
make_setup(const std::string& name, int real_channels = 16, int side = 32)
{
    const Ring& ring = get_ring(name);
    std::mt19937 rng(3);
    const int ci_t =
        real_channels / ring.n > 0 ? real_channels / ring.n : 1;
    const int co_t = ci_t;
    Setup s{&ring, RingConvWeights(co_t, ci_t, 3, ring.n),
            Tensor({ci_t * ring.n, side, side}),
            std::vector<float>(static_cast<size_t>(co_t) * ring.n, 0.1f)};
    std::normal_distribution<float> d(0.0f, 0.3f);
    for (auto& v : s.w.w) v = d(rng);
    s.x.randn(rng);
    return s;
}

/** The fp64 oracle: the seed's serial per-pixel loop nest. */
void
bm_frconv(benchmark::State& state, const std::string& name, int ch = 16,
          int side = 32)
{
    Setup s = make_setup(name, ch, side);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            ring_conv_fast(*s.ring, s.x, s.w, s.bias));
    }
    state.SetLabel(name + " m=" + std::to_string(s.ring->fast.m()) +
                   " seed per-pixel loop");
}

void
bm_rconv_reference(benchmark::State& state, const std::string& name)
{
    Setup s = make_setup(name);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            ring_conv_reference(*s.ring, s.x, s.w, s.bias));
    }
}

// ---- Engine vs seed: the acceptance layer is 64 real channels (16
// tuples of n=4) at 128x128, the "as fast as the hardware allows" hot
// path. Compare wall time ("Time" column) of _seed vs the engine rows.

void
bm_frconv_engine(benchmark::State& state, const std::string& name, int ch,
                 int side, int threads)
{
    Setup s = make_setup(name, ch, side);
    RingConvEngineOptions opt;
    opt.threads = threads;
    const RingConvEngine engine(*s.ring, s.w, s.bias, opt);
    for (auto _ : state) {
        benchmark::DoNotOptimize(engine.run(s.x));
    }
    state.SetLabel(name + " fp32 engine, threads=" +
                   (threads > 0 ? std::to_string(threads) : "auto"));
}

void
bm_frconv_engine_fused_dir(benchmark::State& state, const std::string& name,
                           int ch, int side)
{
    // Fused directional epilogue vs conv + separate directional_relu
    // (compare against bm_frconv_engine + bm_directional_relu).
    Setup s = make_setup(name, ch, side);
    const auto [u, v] = fh_transforms(s.ring->n);
    RingConvEngineOptions opt;
    opt.threads = 1;
    RingConvEngine engine(*s.ring, s.w, s.bias, opt);
    engine.set_epilogue(ConvEpilogue::kDirectional, &u, &v);
    for (auto _ : state) {
        benchmark::DoNotOptimize(engine.run(s.x));
    }
    state.SetLabel(name + " fp32 engine + fused fH epilogue");
}

// ---- SIMD row kernels: sanity-checks the "stride-1 kernels
// vectorize" claim. Compare bytes/second against machine bandwidth;
// `simd::active_isa()` names the dispatched implementation.

void
bm_simd_axpy(benchmark::State& state)
{
    const int64_t len = state.range(0);
    std::vector<float> dst(static_cast<size_t>(len), 1.0f);
    std::vector<float> src(static_cast<size_t>(len), 2.0f);
    for (auto _ : state) {
        simd::axpy_f32(dst.data(), src.data(), 0.5f, len);
        benchmark::DoNotOptimize(dst.data());
    }
    state.SetBytesProcessed(state.iterations() * len *
                            static_cast<int64_t>(3 * sizeof(float)));
    state.SetLabel(std::string("isa=") + simd::active_isa());
}

void
bm_frconv_engine_cold(benchmark::State& state, const std::string& name,
                      int ch, int side)
{
    // Engine constructed inside the loop: what a one-shot caller pays
    // without weight-transform caching.
    Setup s = make_setup(name, ch, side);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            RingConvEngine(*s.ring, s.w, s.bias).run(s.x));
    }
    state.SetLabel(name + " engine built per call");
}

void
bm_frconv_engine_batch(benchmark::State& state, const std::string& name,
                       int ch, int side, int batch)
{
    Setup s = make_setup(name, ch, side);
    const RingConvEngine engine(*s.ring, s.w, s.bias);
    std::vector<Tensor> xs(static_cast<size_t>(batch), s.x);
    for (auto _ : state) {
        benchmark::DoNotOptimize(engine.run(xs));
    }
    state.SetItemsProcessed(state.iterations() * batch);
    state.SetLabel(name + " batched engine, batch=" + std::to_string(batch));
}

void
bm_directional_relu(benchmark::State& state, int n)
{
    const auto [u, v] = fh_transforms(n);
    Tensor x({16, 32, 32});
    std::mt19937 rng(4);
    x.randn(rng);
    for (auto _ : state) {
        benchmark::DoNotOptimize(directional_relu(u, v, x));
    }
}

}  // namespace

BENCHMARK_CAPTURE(bm_frconv, R, std::string("R"));
BENCHMARK_CAPTURE(bm_frconv, RI2, std::string("RI2"));
BENCHMARK_CAPTURE(bm_frconv, RH2, std::string("RH2"));
BENCHMARK_CAPTURE(bm_frconv, C, std::string("C"));
BENCHMARK_CAPTURE(bm_frconv, RI4, std::string("RI4"));
BENCHMARK_CAPTURE(bm_frconv, RH4, std::string("RH4"));
BENCHMARK_CAPTURE(bm_frconv, RO4, std::string("RO4"));
BENCHMARK_CAPTURE(bm_frconv, RH4_I, std::string("RH4-I"));
BENCHMARK_CAPTURE(bm_frconv, H, std::string("H"));
BENCHMARK_CAPTURE(bm_frconv, RI8, std::string("RI8"));
BENCHMARK_CAPTURE(bm_rconv_reference, R, std::string("R"));
BENCHMARK_CAPTURE(bm_rconv_reference, RI4, std::string("RI4"));
BENCHMARK_CAPTURE(bm_directional_relu, n2, 2);
BENCHMARK_CAPTURE(bm_directional_relu, n4, 4);
// Acceptance config: 64 real channels (n=4), 128x128.
BENCHMARK_CAPTURE(bm_frconv, RH4_64x128x128_seed, std::string("RH4"), 64,
                  128)->UseRealTime();
BENCHMARK_CAPTURE(bm_frconv_engine, RH4_64x128x128_1thread,
                  std::string("RH4"), 64, 128, 1)->UseRealTime();
BENCHMARK_CAPTURE(bm_frconv_engine, RH4_64x128x128, std::string("RH4"), 64,
                  128, 0)->UseRealTime();
BENCHMARK_CAPTURE(bm_frconv_engine_fused_dir, RI4_64x128x128,
                  std::string("RI4"), 64, 128)->UseRealTime();
BENCHMARK(bm_simd_axpy)->Arg(1 << 10)->Arg(1 << 16)->Arg(1 << 20);
BENCHMARK_CAPTURE(bm_frconv_engine_cold, RH4_64x128x128, std::string("RH4"),
                  64, 128)->UseRealTime();
BENCHMARK_CAPTURE(bm_frconv_engine_batch, RH4_64x128x128_b4,
                  std::string("RH4"), 64, 128, 4)->UseRealTime();
BENCHMARK_CAPTURE(bm_frconv, RI4_64x128x128_seed, std::string("RI4"), 64,
                  128)->UseRealTime();
BENCHMARK_CAPTURE(bm_frconv_engine, RI4_64x128x128, std::string("RI4"), 64,
                  128, 0)->UseRealTime();
BENCHMARK_MAIN();
