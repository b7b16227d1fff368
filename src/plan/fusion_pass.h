/**
 * @file
 * Epilogue-fusion pass over the plan IR: attaches a ReLU /
 * DirectionalReLU / requant op to the conv that feeds it as an IR
 * annotation, so lowering emits one fused kernel pass instead of two
 * steps (and the simulator prices one engine pass instead of two
 * traversals). The absorbed op stays in the list marked `fused` —
 * dumps keep the decision visible and value ids stay stable.
 */
#ifndef RINGCNN_PLAN_FUSION_PASS_H
#define RINGCNN_PLAN_FUSION_PASS_H

#include "plan/graph_ir.h"

namespace ringcnn::plan
{

/** Backend fusion policy. The fp32 executor skips the pass when
 *  ExecutorOptions::fuse_epilogues is off; every other caller always
 *  runs it.
 *
 *  fp32 executor: a float graph has no requant op, and a
 *  DirectionalReLU only folds into a ring conv whose tuple matches
 *  (require_tuple_match).
 *
 *  int8 executor and simulator: fusion is unconditional — the
 *  quantized graph ALWAYS terminates a conv with its requant/dir node
 *  and even the scalar-oracle lowering chains them in one step (the
 *  wide int64 intermediate must never hit the int16 arena) — and the
 *  tuple check is a lowering concern (it picks fast vs scalar kernels,
 *  not whether the pair is one step). */
struct FusionOptions
{
    bool require_tuple_match = false;
};

/** Annotates `plan` in place. A tail op fuses into the conv directly
 *  preceding it when the conv's result has no other consumer. */
void fuse_epilogues(GraphPlan& plan, const FusionOptions& opt);

}  // namespace ringcnn::plan

#endif  // RINGCNN_PLAN_FUSION_PASS_H
