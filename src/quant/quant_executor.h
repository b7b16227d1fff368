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
 *  - every QConvNode becomes a core::QuantConvKernel — pre-quantized
 *    int8 weights in band-contiguous tap order, int32 bias, int32
 *    accumulation through the simd::axpy_i32 row kernels — and the
 *    QDirReluNode / QRequantNode the fusion pass attached to it (one
 *    always follows a conv in the graph) runs in the band pass as an
 *    integer epilogue: align shifts, Hadamard butterfly, rectify,
 *    butterfly, per-component round/saturate (the Fig. 8 on-the-fly
 *    pipeline), or the quantize-first ablation sequence, in one pass
 *    per output band while the accumulators are hot;
 *  - all other nodes (shuffles, pad/crop, residual and two-branch
 *    aligned adds, the fixed-point bilinear upsampler) become
 *    allocation-free steps over a slotted int32 activation arena
 *    recycled by the arena planner's compile-time liveness — after the
 *    first run the steady state performs no heap allocations;
 *  - conv work parallelizes across (image, output band, row band)
 *    tasks on the persistent util::ThreadPool.
 *
 * Bit-exactness: every step performs the same integer operations as
 * the scalar QNode oracle. Integer addition is exact and
 * order-independent, so the reordered row-kernel conv is bit-identical
 * to the int64 reference whenever the true accumulator fits in int32;
 * the plan records the feature bits live at each conv's input and the
 * lowering proves that bound statically per conv
 * (QuantConvKernel::int32_safe), compiling any conv that fails it —
 * or whose weights exceed int8 — onto the scalar oracle node instead.
 * tests/test_quant_executor.cc pins the equivalence raw-integer by
 * raw-integer across rings, shapes, options, and thread counts.
 *
 * The executor holds pointers into the model's node graph: the
 * QuantizedModel must outlive it. One executor serves one caller at a
 * time (the arena and scratch are shared state); build one per thread.
 */
#ifndef RINGCNN_QUANT_QUANT_EXECUTOR_H
#define RINGCNN_QUANT_QUANT_EXECUTOR_H

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/ring_conv_engine.h"
#include "plan/graph_ir.h"
#include "quant/quant_model.h"

namespace ringcnn::quant {

/** Execution knobs for the quantized engine path. */
struct QuantExecOptions
{
    /** Worker threads for conv steps; 0 = auto (RINGCNN_THREADS). */
    int threads = 0;
    /** Output rows per conv task; 0 = auto. Any value produces
     *  identical bits — this only shapes the parallel grain. */
    int row_band = 0;
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
    explicit QuantExecutor(const QuantizedModel& qm,
                           QuantExecOptions opt = {});
    ~QuantExecutor();
    QuantExecutor(const QuantExecutor&) = delete;
    QuantExecutor& operator=(const QuantExecutor&) = delete;

    /** Integer graph forward; bit-identical to root->forward(in). */
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
    int slot_count() const { return static_cast<int>(slots_.size()); }
    /** Convs compiled onto the int8/int32 row kernels. */
    int fast_conv_count() const { return fast_convs_; }
    /** Convs that fell back to the scalar oracle node (overflow-unsafe
     *  bound or weights beyond int8). */
    int scalar_conv_count() const { return scalar_convs_; }
    /** Zero weights the compiled kernels excluded from their tap
     *  lists, summed over the fast convs (the quantized mirror of
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
    /** Arena activation: int32 CHW planes + per-channel frac. Every
     *  value the plan stores here is 8-bit-class or a proven-int32
     *  conv accumulator, so the narrow lanes are exact. */
    struct IAct
    {
        Shape shape;
        std::vector<int32_t> v;
        std::vector<int> frac;

        int64_t plane() const
        {
            return static_cast<int64_t>(shape[1]) * shape[2];
        }
        int32_t* ch(int c) { return v.data() + c * plane(); }
        const int32_t* ch(int c) const { return v.data() + c * plane(); }
        void reset(const Shape& s)
        {
            shape = s;
            v.resize(static_cast<size_t>(shape_numel(s)));
        }
    };

    struct ConvTask
    {
        int img, group, y0, y1;
    };

    using Step = std::function<void(int)>;  ///< arg: batch size

    // ---- backend lowering of the shared plan (see quant_executor.cc)
    void lower();
    /** Conv with its fused requant/dir-relu epilogue annotation. */
    void lower_conv(const plan::OpIR& op);
    /** Correct-but-allocating fallback through QNode::forward. */
    void lower_fallback(const QNode* node, int in, int out);

    int band_rows(int h, int groups_total) const;
    void ensure_batch(int count);
    void exec(const QAct* const* ins, int count);

    QuantExecOptions opt_;
    QuantOptions qopt_;
    QFormat input_fmt_;
    const QNode* root_;

    /** The shared-pipeline plan the steps below lower. */
    plan::GraphPlan plan_;

    std::vector<std::vector<IAct>> slots_;  ///< [slot][image]
    int entry_slot_ = -1, out_slot_ = -1;

    std::vector<Step> steps_;
    std::vector<std::unique_ptr<QuantConvKernel>> kernels_;
    std::vector<std::vector<int32_t>> wband_;  ///< per-worker conv bands
    std::vector<ConvTask> tasks_;              ///< reused task list
    int threads_ = 1;
    int batch_capacity_ = 0;
    int fast_convs_ = 0, scalar_convs_ = 0;
};

}  // namespace ringcnn::quant

#endif  // RINGCNN_QUANT_QUANT_EXECUTOR_H
