#include "plan/fusion_pass.h"

#include <vector>

namespace ringcnn::plan
{

void
fuse_epilogues(GraphPlan& plan, const FusionOptions& opt)
{
    // Consumer counts over values: a conv result read by anything
    // besides its tail op (a residual skip, the graph output) must
    // stay materialized.
    std::vector<int> consumers(static_cast<size_t>(plan.num_values), 0);
    for (const OpIR& op : plan.ops) {
        ++consumers[static_cast<size_t>(op.in0)];
        if (op.in1 >= 0) ++consumers[static_cast<size_t>(op.in1)];
    }
    ++consumers[static_cast<size_t>(plan.out_value)];

    for (size_t i = 0; i + 1 < plan.ops.size(); ++i) {
        OpIR& a = plan.ops[i];
        OpIR& b = plan.ops[i + 1];
        if (a.fused || b.fused || a.epilogue != Epilogue::kNone) continue;
        const bool conv_head =
            a.kind == OpKind::kRingConv || a.kind == OpKind::kDenseConv;
        if (!conv_head) continue;
        if (b.in0 != a.out || consumers[static_cast<size_t>(a.out)] != 1) {
            continue;
        }
        Epilogue e = Epilogue::kNone;
        switch (b.kind) {
            case OpKind::kRelu:
                e = Epilogue::kRelu;
                break;
            case OpKind::kRequant:
                e = Epilogue::kRequant;
                break;
            case OpKind::kDirRelu:
                // Dense (n=1) convs have no directional epilogue form.
                if (a.kind == OpKind::kRingConv &&
                    (!opt.require_tuple_match || b.tuple == a.tuple)) {
                    e = Epilogue::kDirRelu;
                }
                break;
            default:
                break;
        }
        if (e == Epilogue::kNone) continue;
        a.epilogue = e;
        a.epilogue_node = b.node;
        a.out = b.out;
        a.out_shape = b.out_shape;
        b.fused = true;
    }
}

}  // namespace ringcnn::plan
