/**
 * @file
 * Tests for the shared compile pipeline (src/plan): the fp32 executor,
 * the int8 executor, and the accelerator simulator must all lower the
 * SAME plan for the same graph —
 *
 *  - cross-backend signature equivalence across every registered ring
 *    and the three structural topologies (sequential, residual,
 *    two-branch), and on the two served backbones (DnERNet-PU and
 *    SR4ERNet, whose channel pads and crops only sometimes change the
 *    channel count): identical linearization order, identical arena
 *    slot assignment, identical fusion decisions up to the backends'
 *    documented policy difference (signature() normalizes it away);
 *  - the int8 executor and the simulator share one linearizer AND one
 *    fusion policy, so their plans must agree dump-for-dump, fused
 *    flags and all;
 *  - a golden plan-dump regression pins the IR text format and the
 *    arena protocol (LIFO recycling, in-place pointwise/adds) for a
 *    fixed RI4 residual model, so an accidental planner change cannot
 *    slip through the equivalence checks by changing all three
 *    backends at once.
 */
#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <string>

#include "models/algebra.h"
#include "models/backbones.h"
#include "nn/executor.h"
#include "nn/layer.h"
#include "nn/model.h"
#include "quant/quant_executor.h"
#include "quant/quant_model.h"
#include "sim/accelerator.h"

namespace ringcnn {
namespace {

enum class Topology
{
    kSequential,
    kResidual,
    kTwoBranch,
};

const char*
topo_name(Topology t)
{
    switch (t) {
        case Topology::kSequential: return "seq";
        case Topology::kResidual: return "residual";
        case Topology::kTwoBranch: return "twobranch";
    }
    return "?";
}

/** conv/nonlin backbone in one of the three structural topologies,
 *  with pre-aligned channel counts (no pad or crop). */
nn::Model
make_model(const models::Algebra& alg, Topology topo, int c,
           std::mt19937& rng)
{
    auto seq = std::make_unique<nn::Sequential>();
    switch (topo) {
        case Topology::kSequential:
            seq->add(alg.make_conv(c, c, 3, rng));
            seq->add(alg.make_nonlin());
            seq->add(alg.make_conv(c, c, 3, rng));
            break;
        case Topology::kResidual: {
            auto body = std::make_unique<nn::Sequential>();
            body->add(alg.make_conv(c, c, 3, rng));
            body->add(alg.make_nonlin());
            body->add(alg.make_conv(c, c, 3, rng));
            seq->add(std::make_unique<nn::Residual>(std::move(body)));
            seq->add(alg.make_conv(c, c, 3, rng));
            break;
        }
        case Topology::kTwoBranch: {
            auto main = std::make_unique<nn::Sequential>();
            main->add(alg.make_conv(c, c, 3, rng));
            main->add(alg.make_nonlin());
            main->add(alg.make_conv(c, c, 3, rng));
            auto skip = std::make_unique<nn::Sequential>();
            skip->add(alg.make_conv(c, c, 1, rng));
            seq->add(std::make_unique<nn::TwoBranchAdd>(std::move(main),
                                                        std::move(skip)));
            seq->add(alg.make_conv(c, c, 3, rng));
            break;
        }
    }
    return nn::Model(std::string("plan_") + topo_name(topo),
                     std::move(seq));
}

std::vector<Tensor>
calib_images(const Shape& in, std::mt19937& rng)
{
    std::vector<Tensor> out;
    for (int i = 0; i < 2; ++i) {
        Tensor x(in);
        x.rand_uniform(rng, 0.0f, 1.0f);
        out.push_back(std::move(x));
    }
    return out;
}

/** One graph, three backends: all plans must share one signature, and
 *  the int8/sim pair (same linearizer, same fusion policy) must agree
 *  dump-for-dump. */
void
expect_cross_backend_equivalence(const std::string& label, nn::Model& model,
                                 const models::Algebra& alg, const Shape& in,
                                 std::mt19937& rng)
{
    nn::ModelExecutor fexec(model, in);
    quant::QuantizedModel qm(model, calib_images(in, rng));
    quant::QuantExecutor qexec(qm);
    sim::SimConfig sc;
    sc.n = alg.n();
    sim::Accelerator acc(sc);
    const plan::GraphPlan sim_plan = acc.compile_plan(qm);

    EXPECT_EQ(fexec.plan().signature(), qexec.plan().signature())
        << label << " fp32 vs int8\nfp32:\n"
        << fexec.plan().dump() << "int8:\n" << qexec.plan().dump();
    EXPECT_EQ(qexec.plan().signature(), sim_plan.signature())
        << label << " int8 vs sim";
    EXPECT_EQ(qexec.plan().dump(), sim_plan.dump())
        << label << " int8/sim plans must be identical, fused flags "
        << "and arena slots included";
}

void
expect_cross_backend_equivalence(const models::Algebra& alg, Topology topo)
{
    const int c = alg.pad_channels(8);
    std::mt19937 rng(61);
    nn::Model model = make_model(alg, topo, c, rng);
    expect_cross_backend_equivalence(alg.label() + "/" + topo_name(topo),
                                     model, alg, {c, 8, 8}, rng);
}

TEST(PlanIR, AllRingsAllTopologiesOneSignature)
{
    for (const std::string& ring : all_ring_names()) {
        const models::Algebra alg = models::Algebra::with_fcw(ring);
        for (const Topology topo :
             {Topology::kSequential, Topology::kResidual,
              Topology::kTwoBranch}) {
            expect_cross_backend_equivalence(alg, topo);
        }
    }
}

TEST(PlanIR, DirectionalVariantsOneSignature)
{
    // The fused directional epilogue is the one annotation signature()
    // keeps (+dir) — the backends must agree on WHERE it lands, across
    // the fH rings and the fO4 variant, in every topology.
    for (const std::string& ring : {"RI2", "RI4", "RI8"}) {
        const models::Algebra alg = models::Algebra::with_fh(ring);
        for (const Topology topo :
             {Topology::kSequential, Topology::kResidual,
              Topology::kTwoBranch}) {
            expect_cross_backend_equivalence(alg, topo);
        }
    }
    expect_cross_backend_equivalence(models::Algebra::with_fo4(),
                                     Topology::kResidual);
}

TEST(PlanIR, ServedBackbonesOneSignature)
{
    // A pad or crop that keeps the channel count (DnERNet-PU's 12 -> 12
    // at n = 2 and 4, SR4ERNet's 48 -> 48 crop) emits no op in either
    // backend; the 3 -> 4 pad in front of SR4ERNet stays in both.
    models::ErnetConfig cfg;
    cfg.channels = 8;
    cfg.blocks = 1;
    std::mt19937 rng(64);
    for (const std::string ring : {"RI2", "RI4", "RH4", "RO4"}) {
        const models::Algebra alg = models::Algebra::with_fh(ring);
        nn::Model dn = models::build_dn_ernet_pu(alg, cfg);
        expect_cross_backend_equivalence(alg.label() + "/DnERNet-PU", dn,
                                         alg, {3, 16, 16}, rng);
        nn::Model sr = models::build_sr4_ernet(alg, cfg);
        expect_cross_backend_equivalence(alg.label() + "/SR4ERNet", sr, alg,
                                         {3, 8, 8}, rng);
    }
}

TEST(PlanIR, DirectionalEpilogueAnnotatedNotSeparate)
{
    // conv+dir must survive as ONE op with an epilogue annotation in
    // every backend's plan (the absorbed op stays listed, marked
    // fused) — this is what stops the simulator double-counting and
    // lets the executors run the epilogue while accumulators are hot.
    const models::Algebra alg = models::Algebra::with_fh("RI4");
    const int c = alg.pad_channels(8);
    std::mt19937 rng(62);
    nn::Model model = make_model(alg, Topology::kSequential, c, rng);

    nn::ModelExecutor fexec(model, {c, 8, 8});
    int fused = 0, dir_epilogues = 0;
    for (const auto& op : fexec.plan().ops) {
        fused += op.fused ? 1 : 0;
        dir_epilogues += op.epilogue == plan::Epilogue::kDirRelu ? 1 : 0;
    }
    EXPECT_EQ(fused, 1);
    EXPECT_EQ(dir_epilogues, 1);

    quant::QuantizedModel qm(model, calib_images({c, 8, 8}, rng));
    quant::QuantExecutor qexec(qm);
    fused = 0;
    dir_epilogues = 0;
    int requant_epilogues = 0;
    for (const auto& op : qexec.plan().ops) {
        fused += op.fused ? 1 : 0;
        dir_epilogues += op.epilogue == plan::Epilogue::kDirRelu ? 1 : 0;
        requant_epilogues +=
            op.epilogue == plan::Epilogue::kRequant ? 1 : 0;
    }
    // int8: the dir node fuses like fp32's, and the trailing conv's
    // requant fuses too (the int8-only policy).
    EXPECT_EQ(fused, 2);
    EXPECT_EQ(dir_epilogues, 1);
    EXPECT_EQ(requant_epilogues, 1);
}

TEST(PlanIR, GoldenDumpRI4Residual)
{
    // Pins the IR text format, the linearization order, the fusion
    // annotations, and the arena protocol (LIFO slot recycling,
    // in-place adds) for a fixed model. Regenerate by printing
    // fexec.plan().dump() if the IR format changes INTENTIONALLY.
    const models::Algebra alg = models::Algebra::with_fh("RI4");
    const int c = alg.pad_channels(8);
    std::mt19937 rng(63);
    nn::Model model = make_model(alg, Topology::kResidual, c, rng);
    nn::ModelExecutor fexec(model, {c, 8, 8});
    // Each conv carries its sparsity annotation: nz/total nonzero ring
    // tap tuples (co_t * ci_t * k^2 = 2*2*9 = 36 here; random init has
    // no zero tuples, so nz == total).
    const std::string golden =
        "plan values=6 slots=3 entry=v0/s0 out=v5/s0\n"
        "  0: ringconv v2<-v0 s1<-s0 epi=dir nz=36/36\n"
        "  1: dirrelu v2<-v1 [fused]\n"
        "  2: ringconv v3<-v2 s2<-s1 nz=36/36\n"
        "  3: resadd v4<-v3,v0 s2<-s2,s0\n"
        "  4: ringconv v5<-v4 s0<-s2 nz=36/36\n";
    EXPECT_EQ(fexec.plan().dump(), golden);
}

}  // namespace
}  // namespace ringcnn
