/**
 * @file
 * ModelExecutor: a compiled inference plan for a trained model.
 *
 * Layer::forward-based inference walks the layer graph allocating a
 * fresh activation tensor per layer and rebuilding nothing across
 * calls. The executor instead compiles the graph ONCE through the
 * shared plan pipeline (src/plan: linearize -> fuse epilogues -> arena
 * assignment) and lowers the resulting IR to fp32 kernels:
 *
 *  - every RingConv2d gets its own RingConvEngine (fp32 SIMD kernels);
 *    all engine steps share one RingConvScratch owned by the executor,
 *    so transform buffers, per-worker staged input bands and band
 *    accumulators are reused across steps and calls;
 *  - a ReLU or DirectionalReLU the fusion pass attached to a ring conv
 *    runs in that engine's output pass (ConvEpilogue), so the
 *    activation never round-trips through memory; a ReLU after a dense
 *    Conv2d is likewise folded into the conv step (the n=1 real-algebra
 *    baselines rectify each output channel while it is hot);
 *  - all other supported layers (Conv2d, shuffles, pad/crop, residual
 *    and two-branch adds) become allocation-free steps over the slotted
 *    activation arena of a plan::StepList — the arena, batch growth and
 *    step loop the int8 executor shares — with slots recycled by the
 *    arena planner's compile-time liveness. The shuffles, pad and crop
 *    run the element-type templates of tensor/layout_ops.h, the same
 *    code as the int8 arena's. After the first run the steady state
 *    performs no heap allocations;
 *  - unrecognized layers fall back to Layer::forward (correct, but
 *    allocating) so any model stays runnable.
 *
 * Batching: run() accepts whole image batches; engine steps schedule
 * every (image, tuple, band) task of the batch onto one worker set of
 * the persistent thread pool.
 *
 * Weight staleness: engines are refreshed from the layers' parameter
 * version counters (see ParamRef::version) at every run, so training
 * steps interleaved with executor inference stay correct.
 *
 * The executor holds pointers into the model's layers: the model must
 * outlive it and its topology must not change (parameter values may).
 * One executor serves one caller at a time — run()/run_view() share the
 * activation arena and per-engine scratch, so concurrent calls on the
 * same instance race; build one executor per thread instead (engine
 * steps still parallelize internally across the worker pool).
 */
#ifndef RINGCNN_NN_EXECUTOR_H
#define RINGCNN_NN_EXECUTOR_H

#include <cstdint>
#include <memory>
#include <vector>

#include "core/ring_conv_engine.h"
#include "nn/model.h"
#include "plan/graph_ir.h"
#include "plan/step_list.h"

namespace ringcnn::nn {

/** Compilation knobs for ModelExecutor. */
struct ExecutorOptions
{
    /** Worker threads for engine steps; 0 = auto. */
    int threads = 0;
    /** Fuse ReLU / DirectionalReLU into the preceding ring conv. */
    bool fuse_epilogues = true;
    /**
     * ABFT verification: after every ring-conv pass, compare the
     * output's interior ring-sum against the prediction from the
     * input's ring-sum and the plan's weight checksum (tolerance-
     * bounded; see plan::ConvChecksum). Also hardens weight refresh:
     * NaN/Inf in an updated weight set and out-of-band weight changes
     * (no version bump) surface as plan::IntegrityError. Outputs are
     * bit-identical with verification on; the cost is one extra read
     * pass over each conv's input and output.
     */
    bool verify_checksums = false;
};

class ModelExecutor
{
  public:
    /**
     * Compiles `model` for inputs of exactly `in_shape` (CHW). Throws
     * std::invalid_argument on malformed shapes.
     */
    ModelExecutor(Model& model, Shape in_shape, ExecutorOptions opt = {});
    ~ModelExecutor();
    ModelExecutor(const ModelExecutor&) = delete;
    ModelExecutor& operator=(const ModelExecutor&) = delete;

    const Shape& in_shape() const { return in_shape_; }
    const Shape& out_shape() const { return out_shape_; }
    /** Real multiplications for one image (the complexity axis). */
    int64_t macs() const { return macs_; }
    /** Compiled step count (introspection for tests/benches). */
    size_t step_count() const { return steps_.size(); }
    /** Activation-arena slot count (introspection for tests/benches). */
    int slot_count() const { return steps_.slot_count(); }
    /** Dense (real-algebra) convs whose following ReLU was fused into
     *  the conv step (introspection for tests/benches). */
    int fused_conv_relu_count() const { return fused_real_convs_; }
    /** Steps that fell back to the allocating Layer::forward walk — 0
     *  means every layer compiled to an allocation-free arena step
     *  (introspection for tests/benches). */
    int fallback_step_count() const { return fallback_steps_; }
    /** Zero filter taps the compiled engines excluded from their tap
     *  tables, summed over all ring-conv steps — how much of the model
     *  was compiled away by sparsity (0 when no weight is zero).
     *  Reflects the engines as last refreshed. */
    int64_t sparse_tap_skip_count() const;
    /** The backend-neutral plan this executor lowered (introspection
     *  for tests/benches; valid until the next rebind). */
    const plan::GraphPlan& plan() const { return plan_; }
    /** Bytes currently held by the activation arena (capacity, all
     *  slots and batch lanes). The streaming layer's memory story rests
     *  on this number tracking the TILE plan, not the frame: a 1080p
     *  frame through 128x128 tile plans must never inflate it to
     *  frame-sized activations (pinned in the megapixel bench). */
    int64_t arena_bytes() const
    {
        int64_t bytes = 0;
        for (const auto& lanes : steps_.arena()) {
            for (const auto& t : lanes) {
                bytes += static_cast<int64_t>(t.vec().capacity()) *
                         static_cast<int64_t>(sizeof(float));
            }
        }
        return bytes;
    }

    /** Re-syncs cached engines with layer parameter versions. Called
     *  automatically by run(). */
    void refresh();

    /**
     * Recompiles the plan for a new input shape IN PLACE, recycling the
     * activation arena's buffer capacity (and the executor identity —
     * callers holding a pointer keep it). The serving layer's per-shape
     * plan cache rebinds its least-recently-used executor onto an
     * incoming shape instead of paying allocation churn for a fresh
     * compile on every eviction.
     */
    void rebind(const Shape& in_shape);

    /**
     * Re-points the executor at `model` WITHOUT recompiling — for
     * Model's move operations, which hand their cached executors to
     * the destination object. Only valid when `model` owns the exact
     * layer tree this plan was compiled against (moves preserve layer
     * addresses, so the compiled steps stay correct as-is).
     */
    void retarget(Model& model) { model_ = &model; }

    /** Runs one image; returns an owned copy of the output. */
    Tensor run(const Tensor& x);
    /** Runs a batch; returns owned copies of the outputs, in order. */
    std::vector<Tensor> run(const std::vector<Tensor>& xs);
    /**
     * Batch-into-existing-plan entry point: runs `count` images and
     * MOVES each result into outs[b] (the output arena slot swaps
     * buffers with the caller tensor — no copy; the slot inherits the
     * caller buffer's capacity for the next run). The serving layer
     * fulfills response futures through this.
     */
    void run_into(const Tensor* const* xs, Tensor* outs, int count);
    /**
     * Runs one image and returns a reference into the output arena —
     * the no-copy hot path. Valid until the next run on this executor.
     */
    const Tensor& run_view(const Tensor& x);

    /**
     * Pushes a batch through ONE layer with the pooled batched kernels
     * (ring convs ride the layer's cached engine; elementwise layers
     * fan out across images). The quantization calibration walk uses
     * this to advance its activation set layer by layer.
     */
    static std::vector<Tensor> run_layer(Layer& l,
                                         const std::vector<Tensor>& xs);

  private:
    struct EngineRec;

    // ---- backend lowering of the shared plan (see executor.cc) ----
    void lower();
    void lower_ringconv(const plan::OpIR& op);

    /** Checks the inputs' shape, refreshes the engines and runs the
     *  steps over `count` images. */
    void run_batch(const Tensor* const* xs, int count);

    ExecutorOptions opt_;
    Model* model_ = nullptr;  ///< compile target; must outlive us
    Shape in_shape_, out_shape_;
    int64_t macs_ = 0;

    /** The shared-pipeline plan the steps below lower. */
    plan::GraphPlan plan_;

    /** The lowered plan and its activation arena; the arena keeps its
     *  buffers across runs and rebinds. */
    plan::StepList<Tensor> steps_;
    std::vector<std::unique_ptr<EngineRec>> engines_;
    /** Scratch of every engine step (steps run one at a time); kept
     *  across rebinds like the arena. */
    RingConvScratch conv_scratch_;
    int fused_real_convs_ = 0;
    int fallback_steps_ = 0;
};

}  // namespace ringcnn::nn

#endif  // RINGCNN_NN_EXECUTOR_H
