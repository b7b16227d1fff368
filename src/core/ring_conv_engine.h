/**
 * @file
 * RingConvEngine: a stateful executor for FRCONV (paper eq. (12)).
 *
 * The fp64 oracle ring_conv_fast() re-derives the transformed filter
 * tensor g~ = Tg g on every call and walks pixels serially through
 * per-element Tensor::at() indexing. The engine instead
 *
 *   1. precomputes g~ and the expanded bias once per weight set,
 *   2. runs the component-wise 2-D convolutions as row-contiguous
 *      stride-1 kernels (register-tiled simd row passes over the
 *      compiled nonzero taps),
 *   3. fuses bias, the reconstruction transform Tz, and an optional
 *      ReLU / directional-ReLU epilogue into one pass over each output
 *      band, so activations never round-trip through memory,
 *   4. parallelizes across (image, output-row band, output-tuple
 *      chunk) tasks on the persistent util::ThreadPool, and
 *   5. exposes batched entry points (and caller-owned scratch) so
 *      demos, benches, the model executor, and the quantized
 *      simulator's calibration pass share one hot path.
 *
 * Numerics: float32 accumulation throughout. The nonzero taps of g~
 * are compiled into per-(tuple, component) tap lists at set_weights()
 * time. A task stages its band's input rows once, with a zero halo of
 * k/2 columns on both sides, so every output row of every tuple is ONE
 * simd::matvec_rows_f32 pass over all columns: each element is the
 * first tap's product followed by the adds of the rest in (ci, ky, kx)
 * order. At columns where a tap falls outside the image that tap adds
 * the halo's +-0 product, which leaves every nonzero partial sum as it
 * is; one final `+ 0.0f` there makes the result equal, sign of zero
 * included, to skipping the tap and starting from +0. The directional
 * epilogue runs in registers (simd::dir_relu_f32), as does the unfused
 * DirectionalReLU step. Deterministic and invariant under thread
 * count, row banding, chunking, batching, and the dispatched ISA;
 * differs from the fp64 oracle ring_conv_fast() (core/ring_conv.h) by
 * normal float rounding (observed max |Δ| well under 1e-4 on
 * unit-scale activations). The halo products are exact zeros for
 * finite weights; a non-finite weight (rejected by the executor's
 * verified refresh) also turns the boundary columns it touches to NaN.
 * The fused passes keep per-pixel tuple rows in fixed 16-entry arrays,
 * so the constructor rejects rings with m > 16 or n > 16;
 * ring_conv_fast() accepts them.
 */
#ifndef RINGCNN_CORE_RING_CONV_ENGINE_H
#define RINGCNN_CORE_RING_CONV_ENGINE_H

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/ring_conv.h"

namespace ringcnn {

/** Execution knobs; the defaults auto-size to the machine. */
struct RingConvEngineOptions
{
    /** Worker threads; 0 = auto (RINGCNN_THREADS env or hardware). */
    int threads = 0;
    /** Output rows per parallel task; 0 = auto. Any value produces
     *  identical results — this only shapes the parallel grain. */
    int row_band = 0;
};

/** Nonlinearity fused into the engine's output pass. */
enum class ConvEpilogue
{
    kNone,
    kRelu,        ///< component-wise fcw, eq. (5)
    kDirectional  ///< y -> U fcw(V y) per n-tuple (fH / fO4, Sec. III-E)
};

/**
 * Reusable buffers for engine runs, owned by the caller (the model
 * executor keeps one for all of its conv steps, so steady-state
 * inference performs no allocations and the per-worker staging is
 * shared rather than held once per step). `xt` holds the transformed
 * input planes per batch image; `workers[w]` is the scratch of parallel
 * worker w (staged input rows and per-band accumulators hoisted out of
 * the hot loops). One run at a time per scratch.
 */
struct RingConvScratch
{
    std::vector<std::vector<float>> xt;
    /** Per-image (tuple, component) plane pointer table — identity Tx
     *  components alias the input tensor directly (no copy), the rest
     *  point into `xt`. */
    std::vector<std::vector<const float*>> xplanes;
    struct Worker
    {
        /** k > 1: the task's input rows [y0 - k/2, y1 + k/2) (clipped
         *  to the image) of every plane its taps read, with a zero halo
         *  of k/2 columns on both sides. Left uninitialized (a task
         *  writes every value it reads), so sizing it touches no
         *  memory; `stage_size` floats. */
        std::unique_ptr<float[]> stage;
        size_t stage_size = 0;
        /** Per input plane, its first row in `stage` (or in the plane
         *  itself when k == 1). */
        std::vector<const float*> plane_rows;
        std::vector<float> z32;  ///< per-band component planes
        /** Per-row tap table (source row pointers and coefficients),
         *  rebuilt per output row. */
        std::vector<const float*> tap_src;
        std::vector<float> tap_w;
    };
    std::vector<Worker> workers;
};

/**
 * Caches the weight-dependent FRCONV state (transformed filters,
 * expanded bias, sparsity pattern of the data transform) and executes
 * forwards against it. Construction validates every shape with checked
 * errors (std::invalid_argument), not assert.
 *
 * The referenced Ring must outlive the engine (registry rings do).
 * An engine is immutable during run() and may be shared by threads as
 * long as each caller passes its own scratch (or none).
 */
class RingConvEngine
{
  public:
    RingConvEngine(const Ring& ring, const RingConvWeights& w,
                   std::vector<float> bias,
                   RingConvEngineOptions opt = {});

    /** Replaces the weight set, re-deriving the cached transforms. */
    void set_weights(const RingConvWeights& w, std::vector<float> bias);

    /**
     * Fuses a nonlinearity into the band pass. kDirectional needs the
     * n x n transform pair (u, v) of the directional ReLU; pass nullptr
     * otherwise.
     */
    void set_epilogue(ConvEpilogue epilogue, const Matd* u = nullptr,
                      const Matd* v = nullptr);

    /** FRCONV forward of one CHW image ([ci_t*n][H][W] -> [co_t*n][H][W]). */
    Tensor run(const Tensor& x) const;

    /**
     * Batched forward: one output per input, in order. Images may have
     * different spatial sizes; all tuple/band tasks across the whole
     * batch are scheduled onto one worker set.
     */
    std::vector<Tensor> run(const std::vector<Tensor>& xs) const;

    /**
     * Allocation-free batched forward into caller tensors: outs[b] is
     * reset() to the output shape, reusing its capacity. When `scratch`
     * is non-null its buffers are reused across calls; otherwise
     * transient scratch is allocated locally.
     *
     * When `interior_sums` is non-null it is resized to
     * count * co_t * n and filled with the PRE-EPILOGUE sum of each
     * real output channel over the interior region [pad, H-pad) x
     * [pad, W-pad), per image — the observed side of the ABFT checksum
     * identity (plan::abft_check_f32). Each parallel task accumulates
     * its own band into a private double cell and the cells reduce in
     * task-index order, so the captured sums are deterministic and the
     * tensor outputs stay bit-identical to a capture-free run.
     */
    void run_into(const Tensor* const* xs, Tensor* outs, int count,
                  RingConvScratch* scratch = nullptr,
                  std::vector<double>* interior_sums = nullptr) const;

    const Ring& ring() const { return *ring_; }
    int co_t() const { return co_t_; }
    int ci_t() const { return ci_t_; }
    int k() const { return k_; }
    int n() const { return n_; }
    int m() const { return m_; }
    ConvEpilogue epilogue() const { return epilogue_; }

    /** Real multiplications for one H x W forward (complexity axis). */
    int64_t macs(int h, int w) const
    {
        return static_cast<int64_t>(co_t_) * ci_t_ * k_ * k_ * m_ * h * w;
    }

    /**
     * Zero transformed-filter taps excluded from the compiled tap
     * lists: co_t*m*ci_t*k^2 minus the nonzero count. Pruning a ring
     * tuple at sparsity s drops ~s of all taps here, in every band —
     * the executor sums this across engines for its
     * sparse_tap_skip_count() introspection.
     */
    int64_t sparse_tap_skip_count() const { return sparse_skip_; }

  private:
    struct Task;  // one (image, row band, output-tuple chunk) work item

    /** Output rows per task for an h x w input: as many as the
     *  staging budget holds, at least 8 (or the row_band option). */
    int band_rows(int h, int w) const;
    /** Multiply-adds of one H x W forward including the fused
     *  epilogue's (the worker-count estimate). */
    int64_t work(int h, int w) const;
    /** Tx-transform of input tuple t, component r, into a float plane. */
    void transform_plane_f32(const Tensor& x, int t, int r,
                             float* dst) const;
    /** Band pass of output tuples [co0, co1) over the compiled tap
     *  lists. `planes` maps (tuple, component) -> input plane (aliased
     *  or transformed; see RingConvScratch::xplanes). `sums`
     *  (optional): (co1-co0)*n doubles receiving the band's
     *  pre-epilogue interior sums per output channel (ABFT capture). */
    void conv_band_f32(const float* const* planes, int h, int w, int co0,
                       int co1, int y0, int y1, Tensor& out,
                       RingConvScratch::Worker& scratch,
                       double* sums = nullptr) const;

    const Ring* ring_;
    int co_t_, ci_t_, k_, n_, m_;
    RingConvEngineOptions opt_;
    /** g~ in [co][r][ci][ky][kx] layout: contiguous taps per (co, r, ci)
     *  so the per-component kernels stream rows. */
    std::vector<float> gt32_;
    /** Bias expanded to all co_t*n real channels (zeros when absent). */
    std::vector<float> bias32_;
    /** Nonzero (j, Tx[r][j]) entries per component r, ascending j. */
    std::vector<std::vector<std::pair<int, float>>> tx32_nz_;
    /**
     * tx_alias_[r] = j when Tx row r is the unit selector e_j (its only
     * nonzero is a 1.0 at column j) — the band pass then reads
     * input planes in place instead of copying them into xt. The
     * paper's RI rings have IDENTITY Tx/Tz (their fast algorithm is the
     * algebraic sparsity of the multiplication tensor itself), so their
     * whole transform stage disappears. -1 when the row really
     * transforms.
     */
    std::vector<int> tx_alias_;
    /** Nonzero (r, Tz[i][r]) entries per output component i: the
     *  reconstruction only touches these (identical values except
     *  through non-finite z, as with zero filter taps). */
    std::vector<std::vector<std::pair<int, float>>> tz32_nz_;
    /** Tz == I (and m == n): the band pass then accumulates each
     *  component directly into its output channel rows — no component
     *  scratch band, no reconstruction pass. True for the RI rings. */
    bool identity_tz_ = false;
    /** Every bias entry is exactly zero (bias add pass skipped). */
    bool bias32_zero_ = true;
    /** Fused epilogue state (row-major n x n). */
    ConvEpilogue epilogue_ = ConvEpilogue::kNone;
    std::vector<float> u32_, v32_;
    /** Compiled nonzero-tap lists: for each (co, r) the live taps of
     *  g~ in (ci, ky, kx) order.
     *  sp_off_[co*m+r] .. sp_off_[co*m+r+1] index sp_taps_. */
    struct SparseTap
    {
        int ci, ky, kx;
        float w;
    };
    std::vector<SparseTap> sp_taps_;
    std::vector<int64_t> sp_off_;
    int64_t sparse_skip_ = 0;
};

/**
 * Cached integer-conv state for the quantized engine path (paper
 * Section IV-C): the expanded real conv weights pre-quantized to int8,
 * the int32 bias, and the per-output-band accumulator fractional widths
 * (`out_frac`) — the align-shift metadata the fused Fig. 8 epilogue
 * consumes.
 *
 * Paired-tap schedule. At construction the kernel pairs input channels
 * with the same output-use signature (the set of output channels with a
 * nonzero weight on them): a component-wise ring pairs tuple t with
 * tuple t+1 of the same component, a dense conv pairs neighbours, an
 * odd channel out pairs with zero, and a channel no output reads is
 * dropped. Per output channel it packs every (pair, ky, kx) tap with a
 * nonzero weight as one int16 weight pair; all-zero pairs never enter
 * the tables.
 *
 * A conv task stage()s the input rows its band reads, for the pairs
 * its output channels use, as zero-haloed int16 pair words; conv_band()
 * then computes each output row of a channel in one simd::madd_rows_i16
 * pass (two taps per lane op, no boundary columns). Integer addition
 * mod 2^32 is exact and order-independent, so the result is
 * bit-identical to the scalar int64 QConvNode oracle whenever the true
 * accumulator fits in int32; int32_safe() proves that bound statically
 * (worst-case |bias| + sum |w| * max|x|, which also bounds every partial
 * sum), and the quantized executor falls back to the scalar walk for
 * any conv whose bound does not fit.
 */
class QuantConvKernel
{
  public:
    /**
     * @param w integer weights, [co][ci][k][k] row-major (the QConvNode
     *        layout). Entries beyond int8 mark the kernel unusable
     *        (weights_fit() == false) rather than throwing.
     * @param bias per-output-channel bias at out_frac; entries beyond
     *        int32 likewise mark the kernel unusable.
     * @param out_frac accumulator fractional bits per output channel.
     */
    QuantConvKernel(int co, int ci, int k, const std::vector<int32_t>& w,
                    const std::vector<int64_t>& bias,
                    std::vector<int> out_frac);

    /** One task's staged input band (reusable scratch: its buffers
     *  only grow). */
    struct Band
    {
        int y0 = 0, y1 = 0, w = 0;
        /** [staged pair][y1-y0 + k-1 rows][w + k-1 cols] pair words,
         *  two int16 codes each; zero outside the image. */
        std::vector<int16_t> words;
        /** Staged index per pair, -1 when the band skipped it. */
        std::vector<int> local;
        /** conv_band's per-channel tap offsets (scratch). */
        std::vector<int64_t> offsets;
    };

    /** Zero weights excluded from the compiled tap tables (co*ci*k^2
     *  minus the nonzero count). */
    int64_t sparse_tap_skip_count() const { return zero_weights_; }

    int co() const { return co_; }
    int ci() const { return ci_; }
    int k() const { return k_; }
    const std::vector<int>& out_frac() const { return out_frac_; }
    const std::vector<int8_t>& weights_i8() const { return w8_; }

    /** True when every weight fit int8 and every bias fit int32. */
    bool weights_fit() const { return fits_; }

    /** Worst-case |accumulator| of channel oc for inputs bounded by
     *  2^(in_bits-1): |bias| + sum |w| * 2^(in_bits-1). */
    double channel_bound(int oc, int in_bits) const;

    /** Worst-case |accumulator| over all output channels. */
    double acc_bound(int in_bits) const;

    /** True when int32 accumulation provably equals the int64 oracle
     *  for inputs quantized to in_bits. */
    bool int32_safe(int in_bits) const
    {
        return fits_ && acc_bound(in_bits) <= 2147483647.0;
    }

    /** Input-channel pairs (the staging unit). */
    int pairs() const { return static_cast<int>(pair_a_.size()); }

    /**
     * Stages rows [y0 - k/2, y1 + k/2) x cols [-k/2, w + k/2) of every
     * pair that output channels [oc0, oc1) read, from the int16 CHW
     * planes `x` (h x w), into `band`.
     */
    void stage(const int16_t* x, int h, int w, int oc0, int oc1, int y0,
               int y1, Band& band) const;

    /**
     * Computes output rows [band.y0, band.y1) of channel oc — one of
     * the channels the band was staged for — into `dst`, a contiguous
     * [y1-y0][w] block: "same"-padded stride-1 conv plus bias. Requires
     * int32_safe() for the input's bit width.
     */
    void conv_band(Band& band, int oc, int32_t* dst) const;

  private:
    int co_, ci_, k_;
    std::vector<int8_t> w8_;      ///< pre-quantized per-band weights
    std::vector<int32_t> bias_;
    std::vector<int> out_frac_;   ///< align-shift metadata per band
    std::vector<double> abs_sum_; ///< sum |w| per output channel
    bool fits_ = true;
    int64_t zero_weights_ = 0;
    /** Input channels of each pair; pair_b_[p] == -1 pairs with zero. */
    std::vector<int> pair_a_, pair_b_;
    /** Packed nonzero pair taps per output channel, (pair, ky, kx)
     *  order: tap_off_[oc] .. tap_off_[oc+1] index taps_ and the weight
     *  pairs tap_w_[2t], tap_w_[2t+1]. */
    struct PairTap
    {
        int pair, ky, kx;
    };
    std::vector<PairTap> taps_;
    std::vector<int16_t> tap_w_;
    std::vector<int64_t> tap_off_;
};

/**
 * Order-independent-free fingerprint (FNV-1a over dims, weights, and
 * bias bytes). Retained as the debug cross-check behind the parameter
 * version counters that layers now use to invalidate cached engines.
 */
uint64_t weights_fingerprint(const RingConvWeights& w,
                             const std::vector<float>& bias);

}  // namespace ringcnn

#endif  // RINGCNN_CORE_RING_CONV_ENGINE_H
