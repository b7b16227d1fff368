/**
 * @file
 * Backend-neutral plan IR: the shared front half of the compile
 * pipeline used by the fp32 executor, the int8 executor, and the
 * accelerator simulator.
 *
 * The pipeline has four stages; the first three live in src/plan and
 * are backend-agnostic, the last is owned by each backend:
 *
 *   1. linearize   — walk the layer graph (Sequential / Residual /
 *                    TwoBranchAdd and their quantized counterparts)
 *                    into a linear op list in SSA form: every op reads
 *                    value ids and defines exactly one new value id.
 *   2. fuse        — attach ReLU / DirectionalReLU / requant epilogues
 *                    to the producing conv as IR annotations
 *                    (fusion_pass.h). Fused ops stay in the list,
 *                    marked `fused`, so dumps show the decision.
 *   3. plan_arena  — refcounted slot assignment over values
 *                    (arena_planner.h): compile-time liveness recycles
 *                    activation buffers, in-place ops alias their
 *                    input slot.
 *   4. lower       — per backend: fp32 RingConvEngine kernels, int8
 *                    QuantConvKernel kernels, or sim cost events. Both
 *                    executors lower into a plan::StepList
 *                    (step_list.h), which owns the slot arena and the
 *                    step loop, and run the layout ops through the
 *                    shared templates of tensor/layout_ops.h.
 *
 * Ops reference the originating layer/node via an opaque pointer; the
 * model must outlive the plan. The IR itself never dereferences it —
 * only backend lowerings cast it back to the concrete type.
 */
#ifndef RINGCNN_PLAN_GRAPH_IR_H
#define RINGCNN_PLAN_GRAPH_IR_H

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "tensor/tensor.h"

namespace ringcnn
{
struct Ring;
struct RingConvWeights;
}
namespace ringcnn::nn
{
class Layer;
}
namespace ringcnn::quant
{
struct QNode;
struct QConvNode;
}

namespace ringcnn::plan
{

/** What an op computes. One kind per supported layer/node family;
 *  both the float layer and its quantized counterpart map to the same
 *  kind so cross-backend plans are comparable. */
enum class OpKind
{
    kRingConv,       // nn::RingConv2d / quant::QConvNode
    kDenseConv,      // nn::Conv2d (n=1 real baseline; no int8 form)
    kDepthwiseConv,  // nn::DepthwiseConv2d
    kRelu,           // nn::ReLU (float only; int8 folds it into requant)
    kDirRelu,        // nn::DirectionalReLU / quant::QDirReluNode
    kRequant,        // quant::QRequantNode (int8 only)
    kResidualAdd,    // the `+ x` tail of Residual
    kBranchAdd,      // the `main + skip` tail of TwoBranchAdd
    kPixelShuffle,
    kPixelUnshuffle,
    kChannelPad,
    kCropChannels,
    kUpsample,  // nn::UpsampleBilinearLayer / quant::QBilinearNode
    kFallback,  // anything else: lowered to Layer::forward / QNode::forward
};

/** Epilogue fused into a conv op by the fusion pass. */
enum class Epilogue
{
    kNone,
    kRelu,
    kDirRelu,
    kRequant,
};

const char* op_kind_name(OpKind k);

/** A checksum-verification failure: the reduced output ring-sum of a
 *  conv pass disagreed with the prediction from its input ring-sum and
 *  the compiled weight checksum — silent corruption somewhere between
 *  the weight store and the output buffer. The message names the op
 *  index, the real output channel, and its ring band (channel / n). */
class IntegrityError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/**
 * Per-conv ABFT annotation (attached to kRingConv ops at linearize /
 * rebind time): enough precomputed weight state to predict the
 * interior-region output sums of a "same"-padded stride-1 conv from
 * shifted-window input sums.
 *
 * For interior pixels [r, H-r) x [r, W-r) with r = k/2, the exact
 * identity is, per real output channel c:
 *
 *   S_out[c] = sum_{ci,ky,kx} W[c][ci][ky][kx] * S_shift[ci][ky][kx]
 *            + bias[c] * (H-2r)*(W-2r)
 *
 * where S_shift is the input channel summed over the k x k grid of
 * (H-2r) x (W-2r) windows. fp32 plans carry the real-expanded weights
 * in double (`w`, `bias`) plus a conservative magnitude chain (`wabs`,
 * `babs`) that mirrors the engine's transform-domain operand sizes —
 * the check is tolerance-bounded. int8 plans carry exact int64 copies
 * (`iw`, `ibias`) and the check is bit-exact on the raw accumulators.
 */
struct ConvChecksum
{
    int co = 0;    ///< real output channels
    int ci = 0;    ///< real input channels
    int k = 0;     ///< kernel size (odd)
    bool exact = false;  ///< int8 integer path: equality, no tolerance

    /** fp32: real weight expansion [co][ci][k][k] in double, and the
     *  magnitude bound |Tz| |g~| |Tx| of the engine's actual operand
     *  chain (NOT |W| — transform-domain cancellation would under-
     *  bound the rounding error on non-identity rings). */
    std::vector<double> w, wabs;
    /** fp32 tolerance fast path: wabs row-summed over the k*k taps,
     *  [co][ci]. abft_input_sums_f32 fills every A slot of an input
     *  channel with the same whole-plane |x| bound, so the checker can
     *  collapse the amax accumulation from co*ci*k*k to co*ci terms
     *  using these sums. Empty on int8 checksums. */
    std::vector<double> wabs_ci;
    /** fp32 bias per real output channel (zeros when the layer has
     *  no bias) and its magnitude. */
    std::vector<double> bias, babs;

    /** int8: exact weights [co][ci][k][k] and bias per out channel. */
    std::vector<int64_t> iw;
    std::vector<int64_t> ibias;

    /** Shifted-window slots per input image: ci * k * k. */
    size_t num_input_sums() const
    {
        return static_cast<size_t>(ci) * k * k;
    }
};

/** Builds the fp32 checksum for a ring conv: expands the weights to
 *  the real [co][ci][k][k] tensor through the ring's fast-algorithm
 *  transform chain in double precision (mirroring what the engine
 *  computes in float), alongside the conservative magnitude chain.
 *  `bias` is per real output channel and may be empty. */
std::shared_ptr<const ConvChecksum> make_ring_checksum(
    const Ring& ring, const RingConvWeights& w,
    const std::vector<float>& bias);

/** Builds the exact int8 checksum from a quantized conv node. */
std::shared_ptr<const ConvChecksum> make_qconv_checksum(
    const quant::QConvNode& conv);

/** Computes the k*k shifted-window sums per input channel of one CHW
 *  image: S[(ci*k+ky)*k+kx] = sum of channel ci over rows
 *  [ky, ky+h-2r) x cols [kx, kx+w-2r). `A` (optional, may be null)
 *  receives an UPPER BOUND on the matching sums of |x| (the whole-plane
 *  |x| sum, shared by every shift of a channel — it only feeds the
 *  rounding tolerance). Rectangle decomposition: every shifted window
 *  is the whole plane minus <= 2r excluded edge rows and columns (plus
 *  their crossings added back), so the cost per channel is ONE fused
 *  SIMD plane pass plus O(r*(h+w)) scalar edge sums — independent of
 *  k*k. Planes too small to keep the edge bands disjoint fall back to
 *  a per-row walk. */
void abft_input_sums_f32(const ConvChecksum& cs, const float* x, int h,
                         int w, double* S, double* A);
void abft_input_sums_i16(const ConvChecksum& cs, const int16_t* x, int h,
                         int w, int64_t* S);

/** Verifies one fp32 image: `out_sums[c]` is the engine's reduced
 *  interior sum of real output channel c (pre-epilogue). Throws
 *  IntegrityError on the first channel whose |predicted - observed|
 *  exceeds the rounding-error bound (NaN/Inf anywhere also trips —
 *  the comparison is ordered). */
void abft_check_f32(const ConvChecksum& cs, const double* S, const double* A,
                    const double* out_sums, int h, int w, int op_index,
                    int tuple);

/** Verifies one int8 image exactly against raw int32 accumulators
 *  (reduced in int64). Any mismatch throws IntegrityError. */
void abft_check_i64(const ConvChecksum& cs, const int64_t* S,
                    const int64_t* out_sums, int h, int w, int op_index,
                    int tuple);

/** One op of the linear plan. Values are SSA ids: `out` is defined by
 *  this op, `in0`/`in1` were defined earlier (in1 == -1 for unary
 *  ops). Slots are filled in by plan_arena(). */
struct OpIR
{
    OpKind kind = OpKind::kFallback;
    int in0 = -1;
    int in1 = -1;  // second operand of the add kinds
    int out = -1;

    /** Originating layer (fp32 plans) or QNode (int8/sim plans). */
    const void* node = nullptr;

    /** Fusion annotations (set by fuse_epilogues). On a conv op,
     *  `epilogue` names the attached tail and `epilogue_node` is its
     *  layer/QNode; on the absorbed tail op, `fused` is true and the
     *  op must be skipped by lowering. */
    Epilogue epilogue = Epilogue::kNone;
    const void* epilogue_node = nullptr;
    bool fused = false;

    /** Tuple size: ring n for convs (fp32), dir tuple n for kDirRelu. */
    int tuple = 0;
    /** Kind-specific scalar: shuffle factor r, the channel count a pad
     *  fills to (`want`), crop keep count, upsample factor. */
    int arg = 0;
    /** Conv output channels (for shape propagation without the node). */
    int co = 0;
    /** Accumulator feature bits at this op's input (int8 plans). */
    int in_bits = 0;

    /** Sparsity annotation (conv ops), counted from the live weights
     *  at linearize time, at ring-tap-TUPLE granularity: a tap tuple
     *  (co, ci, ky, kx) counts as nonzero when any of its n degrees of
     *  freedom is nonzero — the unit ring_dof_prune removes and the
     *  unit the engines' compiled nonzero-tap tables skip in every
     *  band. total_taps == 0 on non-conv ops (no annotation). The
     *  fusion pass annotates ops in place, so these survive
     *  fuse_epilogues; backends price/introspect the sparse schedule
     *  from them (sim::Accelerator scales MAC and weight-fetch costs
     *  by nz_taps / total_taps). */
    int64_t nz_taps = 0;
    int64_t total_taps = 0;

    /** ABFT weight checksum (conv ops; see ConvChecksum). Computed by
     *  the linearizers from the live weights; executors that verify
     *  recompute it on a weight-version bump so it tracks refresh.
     *  Null on non-conv ops and on conv kinds without a checksum
     *  derivation (dense/depthwise). Excluded from dump(). */
    std::shared_ptr<const ConvChecksum> checksum;

    /** Per-image activation shapes. Filled by the fp32 linearizer;
     *  int8 plans are shape-free until annotate_shapes(). */
    Shape in_shape;
    Shape out_shape;

    /** Arena slots (set by plan_arena). out_slot == in0_slot means the
     *  op runs in place. */
    int in0_slot = -1;
    int in1_slot = -1;
    int out_slot = -1;
};

/** A compiled, backend-neutral plan. */
struct GraphPlan
{
    std::vector<OpIR> ops;
    int num_values = 1;   // value 0 is the graph input
    int entry_value = 0;
    int out_value = 0;

    /** Filled by plan_arena(). */
    int num_slots = 0;
    int entry_slot = -1;
    int out_slot = -1;

    /** Per-image input/output shapes (fp32 plans and annotated plans). */
    Shape in_shape;
    Shape out_shape;

    /** Deterministic one-line-per-op listing (values, fusion, slots) —
     *  the golden-regression format. No pointers, stable across runs. */
    std::string dump() const;

    /** Backend-normalized form for cross-backend equivalence checks:
     *  fused ops are dropped, values are densely renumbered, conv
     *  kinds collapse to "conv", float ReLU and int8 requant collapse
     *  to the same pointwise class (an int8 graph represents every
     *  float ReLU as a relu-first requant), and scalar epilogues
     *  (none / ReLU / requant) normalize to one token. Two backends
     *  lowering the same model must produce equal signatures. */
    std::string signature() const;
};

/** Linearizes a float layer tree. A ChannelPad or CropChannels that
 *  keeps the channel count emits no op (int8 conversion emits no node
 *  for one either). Carries the executor's shape validation: throws
 *  std::invalid_argument (via RINGCNN_CHECK) on a non-CHW input shape
 *  or mismatched residual/branch shapes. */
GraphPlan linearize(nn::Layer& root, const Shape& in_shape);

/** Linearizes a quantized node graph. Shape-free; threads the
 *  accumulator bit width so each op records the feature bits live at
 *  its input (conv lowering picks fast vs scalar kernels from it). */
GraphPlan linearize(const quant::QNode& root, int feature_bits);

/** Propagates per-image shapes through a shape-free (int8/sim) plan
 *  for the given input, filling op in/out shapes and plan.out_shape. */
void annotate_shapes(GraphPlan& plan, const Shape& in_shape);

}  // namespace ringcnn::plan

#endif  // RINGCNN_PLAN_GRAPH_IR_H
