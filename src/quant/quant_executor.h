/**
 * @file
 * QuantExecutor: a compiled engine path for the integer graph of a
 * QuantizedModel (paper Section IV-C / Fig. 8).
 *
 * QNode::forward walks pixels scalar through int64 element accessors
 * and allocates a fresh activation per node. The executor compiles the
 * graph ONCE through the shared plan pipeline (src/plan: linearize ->
 * fuse epilogues -> arena assignment) and lowers the IR to integer
 * kernels, the way nn::ModelExecutor lowers the float model:
 *
 *  - activations are int16 codes end to end (feature widths 2..16):
 *    the float entry points quantize straight into the entry slot with
 *    simd::quantize_f32_i16 and dequantize straight from the out slot
 *    with simd::dequantize_i16_f32;
 *  - every QConvNode becomes a core::QuantConvKernel — int8 weights
 *    packed as input-channel pair taps, int32 bias — and each conv task
 *    stages the zero-haloed int16 pair rows its band reads, then runs
 *    one simd::madd_rows_i16 pass per output row (two taps per lane
 *    op). The QDirReluNode / QRequantNode the fusion pass attached to
 *    the conv (one always follows a conv in the graph) runs in the same
 *    task as a simd epilogue on int32 lanes with int16 codes out: align
 *    shifts, Hadamard butterfly, rectify, butterfly, per-component
 *    round/saturate (the Fig. 8 on-the-fly pipeline), the
 *    quantize-first ablation sequence, or requant;
 *  - all other nodes become allocation-free steps over the slotted
 *    int16 activation arena of a plan::StepList — the arena, batch
 *    growth and step loop the fp32 executor shares — recycled by the
 *    arena planner's compile-time liveness; after the first run the
 *    steady state performs no heap allocations with ABFT off (pinned
 *    by tests/test_alloc_steady_state.cc; with ABFT on,
 *    plan::abft_input_sums_i16 allocates once per image and conv). The
 *    shuffles, pad and crop run the element-type templates of
 *    tensor/layout_ops.h (the fp32 executor's code) and add only the
 *    per-channel frac bookkeeping; residual and two-branch adds are one
 *    simd::add_aligned_i16 pass per channel (integer addition commutes,
 *    so operand order does not matter); the fixed-point bilinear
 *    upsampler runs separably — one simd::lerp_cols_i16_i32 pass per
 *    input row into int32 rows, then one simd::lerp_rows_i32_i16 blend,
 *    round and saturate per output row;
 *  - conv work parallelizes across (image, row band, output-group
 *    chunk) tasks on the persistent util::ThreadPool, each worker with
 *    its own staging and accumulator band.
 *
 * Bit-exactness: every step performs the same integer operations as
 * the scalar QNode oracle. Integer addition is exact and
 * order-independent, so the paired-tap conv is bit-identical to the
 * int64 reference whenever the true accumulator fits in int32; the
 * plan records the feature bits live at each conv's input and the
 * lowering proves that bound statically per conv
 * (QuantConvKernel::int32_safe), then proves from each channel's bound
 * and the epilogue's static shifts that every aligned, butterflied and
 * rounded epilogue intermediate fits int32 too. A conv that fails
 * either proof — or whose weights exceed int8 — compiles onto the
 * scalar oracle node instead. The upsampler's separable sums are the
 * 4-tap formula's integers (addition associates), bounded by
 * |code| * (2r)^2; where that bound and a channel's shift do not fit
 * int32 lanes, the step runs the QBilinearNode oracle. The aligned add
 * and the dequantize are exact for every shift and frac.
 * tests/test_quant_executor.cc pins the equivalence raw-integer by
 * raw-integer across rings, shapes, options, feature widths and thread
 * counts.
 *
 * The executor holds pointers into the model's node graph: the
 * QuantizedModel must outlive it. One executor serves one caller at a
 * time (the arena and scratch are shared state); build one per thread.
 */
#ifndef RINGCNN_QUANT_QUANT_EXECUTOR_H
#define RINGCNN_QUANT_QUANT_EXECUTOR_H

#include <cstdint>
#include <memory>
#include <vector>

#include "core/ring_conv_engine.h"
#include "plan/graph_ir.h"
#include "plan/step_list.h"
#include "quant/quant_model.h"

namespace ringcnn::quant {

/** Execution knobs for the quantized engine path. */
struct QuantExecOptions
{
    /** Worker threads for conv steps; 0 = auto (RINGCNN_THREADS). */
    int threads = 0;
    /**
     * ABFT verification: after every fast-path conv, compare the raw
     * int32 accumulators' interior sum against the EXACT int64
     * prediction from the input's ring-sum and the plan's weight
     * checksum (plan::ConvChecksum). A mismatch throws
     * plan::IntegrityError. Scalar-oracle convs are skipped (the
     * oracle is the reference, not an optimized rewrite). Outputs are
     * bit-identical with verification on; the cost is one extra read
     * pass over each conv's input and raw accumulator band.
     */
    bool verify_checksums = false;
};

class QuantExecutor
{
  public:
    /** Throws std::invalid_argument unless the model's feature width
     *  is 2..16 bits (the int16 activation arena), and
     *  std::logic_error for a conv the plan left without its requant or
     *  directional-ReLU epilogue. */
    explicit QuantExecutor(const QuantizedModel& qm,
                           QuantExecOptions opt = {});
    ~QuantExecutor();
    QuantExecutor(const QuantExecutor&) = delete;
    QuantExecutor& operator=(const QuantExecutor&) = delete;

    /** Integer graph forward; bit-identical to root->forward(in). The
     *  input must hold codes of the model's feature width. */
    QAct run(const QAct& in);
    /** Batched integer forward: one output per input, in order. */
    std::vector<QAct> run(const std::vector<QAct>& ins);

    /** End-to-end float forward: quantize, integer graph, dequantize.
     *  Bit-identical (hence float-identical) to the scalar walk. */
    Tensor forward(const Tensor& x);
    std::vector<Tensor> forward(const std::vector<Tensor>& xs);
    /**
     * Batch-into-existing-buffers float forward: quantizes `count`
     * images, runs the integer graph once, dequantizes into outs[b].
     * The serving layer's int8 mode fulfills response futures through
     * this; bit-identical to per-image forward().
     */
    void forward_into(const Tensor* const* xs, Tensor* outs, int count);

    /** Compiled step count (introspection for tests/benches). */
    size_t step_count() const { return steps_.size(); }
    /** Activation-arena slot count. */
    int slot_count() const { return steps_.slot_count(); }
    /** Convs compiled onto the paired-tap int16 kernels. */
    int fast_conv_count() const { return fast_convs_; }
    /** Convs that fell back to the scalar oracle node (an accumulator
     *  or epilogue bound beyond int32, or weights beyond int8). */
    int scalar_conv_count() const { return scalar_convs_; }
    /** Zero weights the compiled kernels excluded from their tap
     *  tables, summed over the fast convs (the quantized mirror of
     *  nn::ModelExecutor::sparse_tap_skip_count). */
    int64_t sparse_tap_skip_count() const
    {
        int64_t skipped = 0;
        for (const auto& k : kernels_) skipped += k->sparse_tap_skip_count();
        return skipped;
    }
    /** The backend-neutral plan this executor lowered (introspection
     *  for tests/benches). */
    const plan::GraphPlan& plan() const { return plan_; }

  private:
    /** Arena activation: int16 CHW code planes + per-channel frac.
     *  Every value the plan stores here is a code of the feature width
     *  (2..16 bits): convs always end in their fused epilogue. */
    struct IAct
    {
        Shape shape;
        std::vector<int16_t> v;
        std::vector<int> frac;

        int64_t plane() const
        {
            return static_cast<int64_t>(shape[1]) * shape[2];
        }
        int16_t* ch(int c) { return v.data() + c * plane(); }
        const int16_t* ch(int c) const { return v.data() + c * plane(); }
        /** Re-shapes to c x h x w in place: no Shape temporary, and no
         *  allocation once the buffers hold the size. */
        void reset(int c, int h, int w)
        {
            shape.resize(3);
            shape[0] = c;
            shape[1] = h;
            shape[2] = w;
            v.resize(static_cast<size_t>(c) * h * w);
        }
        void reset(const Shape& s) { reset(s[0], s[1], s[2]); }
    };

    /** Output rows [y0, y1) of output groups [g0, g1) of one image;
     *  `cell` indexes the task's ABFT partial sums. */
    struct ConvTask
    {
        int img, g0, g1, y0, y1;
        int64_t cell;
    };

    // ---- backend lowering of the shared plan (see quant_executor.cc)
    void lower();
    /** Conv with its fused requant/dir-relu epilogue annotation. */
    void lower_conv(const plan::OpIR& op);
    /** Correct-but-allocating fallback through QNode::forward. */
    void lower_fallback(const QNode* node, int in, int out);

    /** Output rows per conv task for an h x w input whose staging
     *  reads `pairs` channel pairs. */
    int band_rows(int h, int w, int pairs, int k) const;
    /** Resolves the worker count and sizes the per-worker scratch. */
    void ensure_workers();
    /** Quantizes / copies one image into its entry buffer. */
    void load(const Tensor& x, IAct& e) const;
    void load(const QAct& q, IAct& e) const;
    /** Dequantizes image b's result. */
    void output_tensor(int b, Tensor& out) const;
    /** The bilinear upsample step: separable passes on int32 lanes, or
     *  the QBilinearNode oracle where their bound is not proven. */
    void upsample(const QBilinearNode& up, const IAct& x, IAct& o);

    QuantExecOptions opt_;
    QuantOptions qopt_;
    QFormat input_fmt_;
    const QNode* root_;

    /** The shared-pipeline plan the steps below lower. */
    plan::GraphPlan plan_;

    /** The lowered plan and its int16 activation arena. */
    plan::StepList<IAct> steps_;
    std::vector<std::unique_ptr<QuantConvKernel>> kernels_;
    std::vector<std::vector<int32_t>> wband_;  ///< per-worker accumulators
    std::vector<QuantConvKernel::Band> stage_; ///< per-worker staged rows
    std::vector<ConvTask> tasks_;              ///< reused task list
    /** Upsample scratch, grow-only and touched only by the calling
     *  thread: per output column the first of its two source columns
     *  and their weight pair, then two horizontally blended rows. */
    std::vector<int32_t> up_cols_, up_rows_;
    std::vector<int16_t> up_wts_;
    int threads_ = 1;
    int fast_convs_ = 0, scalar_convs_ = 0;
};

}  // namespace ringcnn::quant

#endif  // RINGCNN_QUANT_QUANT_EXECUTOR_H
