/**
 * @file
 * Allocation pin for the int8 engine path: once a QuantExecutor has run
 * a batch, running the same batch again through forward_into performs
 * no heap allocation — on any thread, pool workers included.
 *
 * This binary replaces the global operator new / delete with counting
 * wrappers around malloc / free. Counting is off except inside a
 * CountingWindow, so gtest's own bookkeeping and the warm-up runs are
 * not counted. The served backbones run at their serving tile sizes
 * (DnERNet-PU 128x128, SR4ERNet 64x64; RI4 fH, batch 8) at 1 and 4
 * threads.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <random>
#include <string>
#include <vector>

#include "data/synthetic.h"
#include "models/backbones.h"
#include "quant/quant_executor.h"
#include "quant/quant_model.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<long long> g_allocations{0};

void*
counted_alloc(std::size_t n)
{
    if (g_counting.load(std::memory_order_relaxed)) {
        g_allocations.fetch_add(1, std::memory_order_relaxed);
    }
    void* p = std::malloc(n == 0 ? 1 : n);
    if (p == nullptr) throw std::bad_alloc();
    return p;
}

void*
counted_alloc_aligned(std::size_t n, std::align_val_t al)
{
    if (g_counting.load(std::memory_order_relaxed)) {
        g_allocations.fetch_add(1, std::memory_order_relaxed);
    }
    const std::size_t a = static_cast<std::size_t>(al);
    void* p = std::aligned_alloc(a, (n + a - 1) / a * a);
    if (p == nullptr) throw std::bad_alloc();
    return p;
}

/** Counts every operator new on every thread while it lives. */
class CountingWindow
{
  public:
    CountingWindow()
    {
        g_allocations.store(0);
        g_counting.store(true);
    }
    ~CountingWindow() { g_counting.store(false); }
    long long count() const { return g_allocations.load(); }
};

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept
{
    try {
        return counted_alloc(n);
    } catch (...) {
        return nullptr;
    }
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept
{
    try {
        return counted_alloc(n);
    } catch (...) {
        return nullptr;
    }
}
void* operator new(std::size_t n, std::align_val_t al)
{
    return counted_alloc_aligned(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al)
{
    return counted_alloc_aligned(n, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

namespace ringcnn::quant {
namespace {

struct Served
{
    const char* name;
    bool sr;
    int tile;
};

class QuantSteadyState
    : public ::testing::TestWithParam<std::tuple<Served, int>>
{
  protected:
    /** Allocations per steady-state forward_into batch of 8. */
    static long long steady_state_allocations(const Served& s, int threads,
                                              bool verify)
    {
        const models::Algebra alg = models::Algebra::with_fh("RI4");
        nn::Model m = s.sr ? models::build_sr4_ernet(alg, {})
                           : models::build_dn_ernet_pu(alg, {});
        std::mt19937 rng(931);
        std::vector<Tensor> calib{
            data::synthetic_image(3, s.tile, s.tile, rng)};
        const QuantizedModel qm(m, calib);
        QuantExecOptions opt;
        opt.threads = threads;
        opt.verify_checksums = verify;
        QuantExecutor ex(qm, opt);

        constexpr int kBatch = 8;
        std::vector<Tensor> xs;
        std::vector<const Tensor*> ptrs;
        for (int i = 0; i < kBatch; ++i) {
            xs.push_back(data::synthetic_image(3, s.tile, s.tile, rng));
        }
        for (const Tensor& x : xs) ptrs.push_back(&x);
        std::vector<Tensor> outs(kBatch);
        // Warm-up sizes the arena, the scratch and the output tensors,
        // and spawns the pool's workers.
        for (int i = 0; i < 2; ++i) {
            ex.forward_into(ptrs.data(), outs.data(), kBatch);
        }
        constexpr int kRuns = 3;
        CountingWindow window;
        for (int i = 0; i < kRuns; ++i) {
            ex.forward_into(ptrs.data(), outs.data(), kBatch);
        }
        return window.count() / kRuns;
    }
};

TEST_P(QuantSteadyState, ForwardIntoAllocatesNothing)
{
    const auto& [served, threads] = GetParam();
    EXPECT_EQ(steady_state_allocations(served, threads, false), 0)
        << served.name << " threads=" << threads;
    // With ABFT on the count is reported, not pinned.
    const long long verified =
        steady_state_allocations(served, threads, true);
    RecordProperty("abft_allocations_per_batch", std::to_string(verified));
    std::printf("%s threads=%d: %lld allocations per batch with ABFT on\n",
                served.name, threads, verified);
}

INSTANTIATE_TEST_SUITE_P(
    ServedBackbones, QuantSteadyState,
    ::testing::Combine(::testing::Values(Served{"DnErnetPu128", false, 128},
                                         Served{"Sr4Ernet64", true, 64}),
                       ::testing::Values(1, 4)),
    [](const auto& info) {
        return std::string(std::get<0>(info.param).name) + "_t" +
               std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace ringcnn::quant
