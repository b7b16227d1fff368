/**
 * @file
 * Bit-exact 8-bit fixed-point inference (Section IV-C / Section V).
 *
 * A QuantizedModel is converted from a trained float model:
 *  - weights use per-layer dynamic Q-formats (8-bit),
 *  - features use per-layer Q-formats, upgraded to COMPONENT-WISE
 *    Q-formats around the directional ReLU (the paper's fix for its
 *    divergent per-component dynamic ranges),
 *  - convolution accumulators stay wide (32-bit class) and feed the
 *    directional ReLU **on the fly** (Fig. 8): align left-shifts,
 *    Hadamard butterfly, rectify, second butterfly, per-component
 *    round/saturate to 8-bit. The `onthefly` option can be disabled to
 *    reproduce the conventional quantize-before-transform pipeline the
 *    paper says costs up to 0.2 dB.
 *
 * The integer semantics here are the golden reference the cycle-level
 * accelerator simulator must match bit-exactly.
 */
#ifndef RINGCNN_QUANT_QUANT_MODEL_H
#define RINGCNN_QUANT_QUANT_MODEL_H

#include <memory>
#include <vector>

#include "nn/model.h"
#include "quant/qformat.h"

namespace ringcnn::quant {

/** Quantization options. */
struct QuantOptions
{
    int feature_bits = 8;
    int weight_bits = 8;
    /** Fig. 8 pipeline (true) vs quantize-before-transform (false). */
    bool onthefly_dir_relu = true;
    /** Component-wise feature Q-formats for directional ReLU outputs. */
    bool componentwise_q = true;
};

/** Integer activation: CHW values with per-channel fractional bits. */
struct QAct
{
    Shape shape;
    std::vector<int64_t> v;
    std::vector<int> frac;  ///< size C

    int channels() const { return shape[0]; }
    int64_t& at(int c, int y, int x)
    {
        return v[(static_cast<size_t>(c) * shape[1] + y) * shape[2] + x];
    }
    int64_t at(int c, int y, int x) const
    {
        return v[(static_cast<size_t>(c) * shape[1] + y) * shape[2] + x];
    }
};

/** One integer op in the quantized graph. */
class QNode
{
  public:
    virtual ~QNode() = default;
    virtual QAct forward(const QAct& x) const = 0;
    virtual std::string name() const = 0;
};


// ---- Integer graph nodes (public so the cycle-level accelerator
// simulator can schedule them; see src/sim) -----------------------------

/** Sequential container. */
class QSeq : public QNode
{
  public:
    std::vector<std::unique_ptr<QNode>> nodes;
    QAct forward(const QAct& x) const override;
    std::string name() const override { return "seq"; }
};

/** Integer convolution with wide (32-bit class) accumulator outputs. */
class QConvNode : public QNode
{
  public:
    int co = 0, ci = 0, k = 0;
    /** Ring tuple size of the originating conv (1 for a real-algebra
     *  Conv2d): the expanded weights decompose into n x n blocks, one
     *  per ring tap tuple — the granularity of the plan's sparsity
     *  annotation and of ring-DOF pruning. */
    int n = 1;
    std::vector<int32_t> w;     ///< [co][ci][k][k] integer weights
    int wfrac = 0;
    std::vector<int64_t> bias;  ///< at out_frac[oc]
    std::vector<int> out_frac;  ///< per output channel (wide accumulator)
    QAct forward(const QAct& x) const override;
    std::string name() const override { return "conv"; }
};

/** Optional rectification + shift/round/saturate to the feature width. */
class QRequantNode : public QNode
{
  public:
    std::vector<int> target;  ///< per channel
    int bits = 8;
    bool relu_first = false;
    QAct forward(const QAct& x) const override;
    std::string name() const override
    {
        return relu_first ? "relu+requant" : "requant";
    }
};

/** Directional ReLU: on-the-fly (Fig. 8) or quantize-first ablation. */
class QDirReluNode : public QNode
{
  public:
    int n = 4;
    std::vector<int> out_frac;  ///< per channel (component pattern)
    int bits = 8;
    bool onthefly = true;
    std::vector<int> pre_frac;  ///< ablation: 8-bit format of conv output
    std::vector<int> mid_frac;  ///< ablation: 8-bit format of fcw(H y)
    QAct forward(const QAct& x) const override;
    std::string name() const override
    {
        return onthefly ? "dir-relu(otf)" : "dir-relu(q-first)";
    }
};

class QPixelShuffleNode : public QNode
{
  public:
    int r = 2;
    QAct forward(const QAct& x) const override;
    std::string name() const override { return "pixel-shuffle"; }
};

class QPixelUnshuffleNode : public QNode
{
  public:
    int r = 2;
    QAct forward(const QAct& x) const override;
    std::string name() const override { return "pixel-unshuffle"; }
};

class QPadNode : public QNode
{
  public:
    int want = 0;  ///< channel count to zero-fill up to
    QAct forward(const QAct& x) const override;
    std::string name() const override { return "pad"; }
};

class QCropNode : public QNode
{
  public:
    int keep = 0;
    QAct forward(const QAct& x) const override;
    std::string name() const override { return "crop"; }
};

class QResidualNode : public QNode
{
  public:
    std::unique_ptr<QNode> body;
    std::vector<int> out_frac;
    int bits = 8;
    QAct forward(const QAct& x) const override;
    std::string name() const override { return "residual"; }
};

class QTwoBranchNode : public QNode
{
  public:
    std::unique_ptr<QNode> main, skip;
    std::vector<int> out_frac;
    int bits = 8;
    QAct forward(const QAct& x) const override;
    std::string name() const override { return "two-branch-add"; }
};

/** Exact fixed-point bilinear upsampler (skip branches). */
class QBilinearNode : public QNode
{
  public:
    int r = 4;
    std::vector<int> target;  ///< output format per channel
    int bits = 8;
    QAct forward(const QAct& x) const override;
    std::string name() const override { return "bilinear-up"; }
};

class QuantExecutor;  // compiled engine path (quant/quant_executor.h)

/** Fixed-point model: quantize input, run the integer graph, dequantize. */
class QuantizedModel
{
  public:
    /**
     * Converts a float model. Throws std::invalid_argument for an
     * UpsampleBilinearLayer whose factor is not a power of two (the
     * fixed-point upsampler's shift divides by (2r)^2 only then).
     * @param calib calibration images (float, network-input domain);
     *        at least one is required to set feature ranges.
     */
    QuantizedModel(nn::Model& model, const std::vector<Tensor>& calib,
                   const QuantOptions& opt = {});
    ~QuantizedModel();
    QuantizedModel(QuantizedModel&&) noexcept;
    QuantizedModel& operator=(QuantizedModel&&) noexcept;

    /**
     * End-to-end inference: float image in, float image out, through
     * the compiled int8/int32 engine path (quant::QuantExecutor). Its
     * raw integers equal the scalar QNode oracle's — the engine suites
     * pin that — so the oracle result is
     * dequantize(root()->forward(quantize_input(x))). The engine path
     * reuses a cached executor (one caller at a time; clone the model
     * per thread for concurrent inference).
     */
    Tensor forward(const Tensor& x) const;

    /** Batched inference: one output per input, in order, with the
     *  whole batch scheduled onto one worker set. */
    std::vector<Tensor> forward(const std::vector<Tensor>& xs) const;

    /**
     * Integer-graph inference through the engine path: quantized
     * activation in, activation out, with the raw integers of
     * root()->forward(in).
     */
    QAct infer(const QAct& in) const;
    std::vector<QAct> infer(const std::vector<QAct>& ins) const;

    const QuantOptions& options() const { return opt_; }

    /** Human-readable op list (for docs/tests). */
    std::vector<std::string> op_names() const;

    /** Root of the integer graph (for the accelerator simulator). */
    const QNode* root() const { return root_.get(); }

    /** Input feature Q-format. */
    const QFormat& input_format() const { return input_fmt_; }

    /** Quantizes a float image into the input activation. */
    QAct quantize_input(const Tensor& x) const;

    /** Dequantizes an output activation into a float image. */
    static Tensor dequantize(const QAct& out);

  private:
    QuantExecutor& executor() const;

    QuantOptions opt_;
    QFormat input_fmt_;
    std::unique_ptr<QNode> root_;
    std::vector<std::string> op_log_;
    /** Lazily-built engine path. Its compiled plan points into the
     *  node graph (owned by root_), not at this object, so it stays
     *  valid across moves. */
    mutable std::unique_ptr<QuantExecutor> exec_;
};

/**
 * Standalone bit-exact on-the-fly directional ReLU (Fig. 8), exposed
 * for the accelerator simulator and unit tests. Processes one n-tuple:
 * wide inputs y with per-component frac ny -> 8-bit outputs with
 * per-component frac nx.
 */
void onthefly_directional_relu(const std::vector<int64_t>& y,
                               const std::vector<int>& ny,
                               const std::vector<int>& nx, int n,
                               std::vector<int64_t>& out, int out_bits = 8);

}  // namespace ringcnn::quant

#endif  // RINGCNN_QUANT_QUANT_MODEL_H
