/**
 * @file
 * Sparsity-compiled kernel tests: ring-DOF pruning must COMPILE AWAY —
 * pruned tap tuples never enter the engines' compiled tap tables — and
 * the compiled engines must stay pinned to the oracles.
 *
 *  - fp32: the compiled tap-table schedule tracks a layer walk through
 *    the fp64 oracle ring_conv_fast on the same pruned weights (within
 *    1e-4), across every registered ring, k in {1, 3}, and ring-DOF
 *    densities {1.0, 0.5, 0.25, 0.0};
 *  - int8: the quantized executor's compiled-tap schedule is
 *    bit-identical to the scalar int64 QNode oracle;
 *  - the plan IR carries the nonzero-tap annotation (emitted during
 *    linearize from the live weights, surviving fuse_epilogues), the
 *    dump prints it, and the int8 plan's tuple-block counts agree with
 *    the fp32 plan's tuple counts;
 *  - sparse results are invariant under thread count;
 *  - sim::Accelerator MAC and weight-fetch counts decrease
 *    monotonically with density;
 *  - ring_dof_prune removes whole tuples at the exact requested rate,
 *    and apply_mask no longer bumps parameter versions when the masked
 *    weights are already zero (fine-tune steps must not invalidate
 *    warm engines).
 */
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "baselines/pruning.h"
#include "core/ring.h"
#include "core/ring_conv.h"
#include "nn/executor.h"
#include "nn/layer.h"
#include "nn/model.h"
#include "quant/quant_executor.h"
#include "quant/quant_model.h"
#include "sim/accelerator.h"
#include "tensor/image_ops.h"

namespace ringcnn {
namespace {

/** Two ring convs around a ReLU, built directly on RingConv2d so every
 *  registered ring (including R, n=1) exercises the ring tap path. */
int
backbone_channels(const std::string& ring_name)
{
    const Ring& ring = get_ring(ring_name);
    return (8 + ring.n - 1) / ring.n * ring.n;  // >= 8 real channels
}

nn::Model
make_backbone(const std::string& ring_name, int k, std::mt19937& rng)
{
    const Ring& ring = get_ring(ring_name);
    const int c_t = backbone_channels(ring_name) / ring.n;
    auto seq = std::make_unique<nn::Sequential>();
    seq->add(std::make_unique<nn::RingConv2d>(ring, c_t, c_t, k, rng));
    seq->add(std::make_unique<nn::ReLU>());
    seq->add(std::make_unique<nn::RingConv2d>(ring, c_t, c_t, k, rng));
    return nn::Model("sparse_" + ring_name, std::move(seq));
}

Tensor
rand_image(int c, std::mt19937& rng)
{
    Tensor x({c, 9, 11});
    x.rand_uniform(rng, -1.0f, 1.0f);
    return x;
}

void
expect_bitwise_equal(const Tensor& a, const Tensor& b,
                     const std::string& label)
{
    ASSERT_EQ(a.shape(), b.shape()) << label;
    ASSERT_EQ(std::memcmp(a.data(), b.data(),
                          static_cast<size_t>(a.numel()) * sizeof(float)),
              0)
        << label;
}

constexpr double kDensities[] = {1.0, 0.5, 0.25, 0.0};

/** The backbone's conv -> ReLU -> conv walk through the fp64 oracle. */
Tensor
fp64_oracle_walk(nn::Model& model, const Tensor& x)
{
    auto& seq = dynamic_cast<nn::Sequential&>(model.root());
    const auto conv = [&](size_t i, const Tensor& in) {
        auto& rc = dynamic_cast<nn::RingConv2d&>(seq.at(i));
        return ring_conv_fast(rc.ring(), in, rc.weights(), rc.bias());
    };
    return conv(2, seq.at(1).forward(conv(0, x), false));
}

TEST(SparseKernels, Fp32CompiledTapsTrackFp64Oracle)
{
    for (const std::string& ring_name : all_ring_names()) {
        const Ring& ring = get_ring(ring_name);
        for (int k : {1, 3}) {
            for (double density : kDensities) {
                const std::string label = ring_name + " k=" +
                    std::to_string(k) + " d=" + std::to_string(density);
                std::mt19937 rng(77);
                nn::Model model = make_backbone(ring_name, k, rng);
                baselines::ring_dof_prune(model, 1.0 - density);
                const int c = backbone_channels(ring_name);
                const Tensor x = rand_image(c, rng);

                nn::ModelExecutor sparse(model, x.shape());
                const Tensor ys = sparse.run(x);
                const Tensor yo = fp64_oracle_walk(model, x);
                ASSERT_EQ(ys.shape(), yo.shape()) << label;
                EXPECT_LT(max_abs_diff(ys, yo), 1e-4) << label;

                // The compiled tables exclude exactly the zero
                // transformed taps (all of them at density 0).
                EXPECT_GE(sparse.sparse_tap_skip_count(), 0) << label;
                if (density == 0.0) {
                    const int c_t = c / ring.n;
                    const int64_t per_conv = static_cast<int64_t>(c_t) *
                                             c_t * ring.fast.m() * k * k;
                    EXPECT_EQ(sparse.sparse_tap_skip_count(), 2 * per_conv)
                        << label;
                }
            }
        }
    }
}

TEST(SparseKernels, Int8CompiledTapsMatchScalarOracle)
{
    for (const std::string& ring_name : all_ring_names()) {
        for (int k : {1, 3}) {
            for (double density : kDensities) {
                const std::string label = ring_name + " k=" +
                    std::to_string(k) + " d=" + std::to_string(density);
                std::mt19937 rng(78);
                nn::Model model = make_backbone(ring_name, k, rng);
                baselines::ring_dof_prune(model, 1.0 - density);
                const int c = backbone_channels(ring_name);
                std::vector<Tensor> calib;
                calib.push_back(rand_image(c, rng));
                quant::QuantizedModel qm(model, calib);

                const quant::QAct in = qm.quantize_input(rand_image(c, rng));
                quant::QuantExecutor sparse(qm);
                const quant::QAct ys = sparse.run(in);
                const quant::QAct yo = qm.root()->forward(in);
                EXPECT_EQ(ys.v, yo.v) << label << " sparse vs oracle";
                EXPECT_EQ(ys.frac, yo.frac) << label;

                if (density == 0.0 && sparse.fast_conv_count() == 2) {
                    // All expanded weights are zero: every tap of both
                    // convs was compiled away.
                    EXPECT_EQ(sparse.sparse_tap_skip_count(),
                              2 * static_cast<int64_t>(c) * c * k * k)
                        << label;
                } else if (density < 1.0) {
                    EXPECT_GT(sparse.sparse_tap_skip_count(), 0) << label;
                }
            }
        }
    }
}

TEST(SparseKernels, PlanCarriesSparsityAnnotationAcrossBackends)
{
    std::mt19937 rng(79);
    nn::Model model = make_backbone("RI4", 3, rng);
    baselines::ring_dof_prune(model, 0.5);
    const int c = backbone_channels("RI4");
    const int c_t = c / 4;
    const int64_t total = static_cast<int64_t>(c_t) * c_t * 9;
    const int64_t pruned = total / 2;  // floor(0.5 * total)

    nn::ModelExecutor fexec(model, {c, 9, 11});
    // The annotation is emitted at linearize time and must survive
    // fuse_epilogues: the first conv carries the fused ReLU AND its
    // nz/total counts.
    std::vector<const plan::OpIR*> fconvs;
    for (const auto& op : fexec.plan().ops) {
        if (op.kind == plan::OpKind::kRingConv && !op.fused) {
            fconvs.push_back(&op);
        }
    }
    ASSERT_EQ(fconvs.size(), 2u);
    EXPECT_EQ(fconvs[0]->epilogue, plan::Epilogue::kRelu);
    for (const auto* op : fconvs) {
        EXPECT_EQ(op->total_taps, total);
        EXPECT_EQ(op->nz_taps, total - pruned);
    }
    EXPECT_NE(fexec.plan().dump().find(
                  "nz=" + std::to_string(total - pruned) + "/" +
                  std::to_string(total)),
              std::string::npos);
    // Both executors reflect the same compiled-away fraction.
    EXPECT_EQ(fexec.sparse_tap_skip_count(),
              2 * pruned * get_ring("RI4").fast.m());

    std::vector<Tensor> calib;
    calib.push_back(rand_image(c, rng));
    quant::QuantizedModel qm(model, calib);
    quant::QuantExecutor qexec(qm);
    std::vector<const plan::OpIR*> qconvs;
    for (const auto& op : qexec.plan().ops) {
        if (op.kind == plan::OpKind::kRingConv && !op.fused) {
            qconvs.push_back(&op);
        }
    }
    ASSERT_EQ(qconvs.size(), 2u);
    for (size_t i = 0; i < qconvs.size(); ++i) {
        // Same tuple-block granularity, same totals. Quantization can
        // round a small surviving tuple to zero but never resurrect a
        // pruned one, so the int8 count is bounded by the fp32 count.
        EXPECT_EQ(qconvs[i]->total_taps, total);
        EXPECT_LE(qconvs[i]->nz_taps, fconvs[i]->nz_taps);
        EXPECT_GE(qconvs[i]->total_taps - qconvs[i]->nz_taps, pruned);
    }
}

TEST(SparseKernels, SparseScheduleIsThreadInvariant)
{
    for (const std::string& ring_name : {std::string("RI4"),
                                         std::string("RH4")}) {
        for (double density : kDensities) {
            std::mt19937 rng(81);
            nn::Model model = make_backbone(ring_name, 3, rng);
            baselines::ring_dof_prune(model, 1.0 - density);
            const int c = backbone_channels(ring_name);
            const Tensor x = rand_image(c, rng);
            nn::ExecutorOptions t1, t3;
            t1.threads = 1;
            t3.threads = 3;
            nn::ModelExecutor e1(model, x.shape(), t1);
            nn::ModelExecutor e3(model, x.shape(), t3);
            expect_bitwise_equal(e1.run(x), e3.run(x),
                                 ring_name + " d=" + std::to_string(density));
        }
    }
}

TEST(SparseKernels, SimMacsDecreaseMonotonicallyWithDensity)
{
    uint64_t prev_macs = 0, prev_wbits = 0;
    bool first = true;
    for (double density : kDensities) {
        std::mt19937 rng(82);
        nn::Model model = make_backbone("RI4", 3, rng);
        baselines::ring_dof_prune(model, 1.0 - density);
        const int c = backbone_channels("RI4");
        std::vector<Tensor> calib;
        calib.push_back(rand_image(c, rng));
        quant::QuantizedModel qm(model, calib);
        sim::SimConfig sc;
        sc.n = 4;
        sim::Accelerator acc(sc);
        const sim::SimStats s = acc.run(qm, rand_image(c, rng));
        if (!first) {
            EXPECT_LT(s.mac_ops, prev_macs) << "density " << density;
            EXPECT_LT(s.wmem_bits, prev_wbits) << "density " << density;
        }
        EXPECT_GT(s.cycles, 0u);
        if (density == 0.0) EXPECT_EQ(s.mac_ops, 0u);
        prev_macs = s.mac_ops;
        prev_wbits = s.wmem_bits;
        first = false;
    }
}

TEST(SparseKernels, RingDofPruneRemovesWholeTuplesAtExactRate)
{
    std::mt19937 rng(83);
    nn::Model model = make_backbone("RH4", 3, rng);
    const baselines::PruneMask mask = baselines::ring_dof_prune(model, 0.5);
    int64_t zero_tuples = 0, total_tuples = 0;
    for (const auto& p : model.params()) {
        if (p.name.find("ringconv.g") == std::string::npos) continue;
        const auto& vals = *p.value;
        for (size_t t = 0; t < vals.size(); t += 4) {
            ++total_tuples;
            int zeros = 0;
            for (size_t c = 0; c < 4; ++c) zeros += vals[t + c] == 0.0f;
            // Structured: a tuple is removed whole or left intact.
            EXPECT_TRUE(zeros == 0 || zeros == 4);
            zero_tuples += zeros == 4;
        }
    }
    EXPECT_EQ(zero_tuples, total_tuples / 2);
    // Mask density counts ALL param groups — biases are exempt, so the
    // overall keep rate sits above the 50% weight-tuple rate.
    int64_t total_scalars = 0;
    for (const auto& p : model.params()) {
        total_scalars += static_cast<int64_t>(p.value->size());
    }
    EXPECT_NEAR(mask.density(),
                1.0 - static_cast<double>(4 * zero_tuples) /
                          static_cast<double>(total_scalars),
                1e-9);
}

TEST(SparseKernels, ApplyMaskSkipsVersionBumpWhenAlreadyZero)
{
    std::mt19937 rng(84);
    nn::Model model = make_backbone("RI4", 3, rng);
    const baselines::PruneMask mask = baselines::ring_dof_prune(model, 0.5);

    auto versions = [&] {
        std::vector<uint64_t> out;
        for (const auto& p : model.params()) {
            out.push_back(p.version != nullptr ? *p.version : 0);
        }
        return out;
    };

    // Masked weights are already zero: re-applying the mask (what every
    // fine-tune post_step does when the optimizer left them untouched)
    // must not invalidate cached engines.
    const auto before = versions();
    baselines::apply_mask(model, mask);
    EXPECT_EQ(versions(), before);

    // An optimizer write to a masked weight does move a value: the
    // version must bump so the engines resync.
    auto params = model.params();
    for (size_t g = 0; g < params.size(); ++g) {
        const auto& keep = mask.keep[g];
        for (size_t i = 0; i < keep.size(); ++i) {
            if (!keep[i]) {
                (*params[g].value)[i] = 0.25f;
                params[g].mark_dirty();
                const auto perturbed = versions();
                baselines::apply_mask(model, mask);
                const auto after = versions();
                EXPECT_EQ((*params[g].value)[i], 0.0f);
                EXPECT_GT(after[g], perturbed[g]);
                return;
            }
        }
    }
    FAIL() << "mask pruned nothing";
}

}  // namespace
}  // namespace ringcnn
