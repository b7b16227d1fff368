/**
 * @file
 * The ringbench workload interface and the helpers the workloads share.
 *
 * A workload owns its seeded inputs and their reference digests. One
 * measured pass sets the serving stack up several times (the median is
 * setup_s), keeps the last set-up live, and drives it in a closed loop
 * for the requested seconds. The traced mode repeats the pass with
 * spans on and then runs the direct-call pass: the benchmark calls each
 * layer's public functions itself, on the workload's inputs, to get the
 * per-layer numbers.
 */
#ifndef RINGBENCH_WORKLOAD_H
#define RINGBENCH_WORKLOAD_H

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "harness.h"
#include "serve/serve_server.h"
#include "stream/video_pipeline.h"

namespace ringcnn::quant {
class QuantizedModel;
}

namespace ringbench {

/** Command-line settings of one invocation. */
struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Flip one reference digest, so the benchmark's own check must
     *  count the matching response as a failed operation. */
    bool corrupt_digest = false;
    /** RINGCNN_THREADS, server workers and client threads derive from
     *  this: min(4, nproc). */
    int threads = 4;
};

/** One frame or request completed in a pass's timed window. */
struct Completion
{
    double t_s;         ///< completion time, seconds after the window opened
    double cpu_s;       ///< process CPU used since the window opened
    double mp;          ///< output megapixels delivered (0 when it failed)
    double latency_ms;  ///< issue to response
};

/** What one measured pass observed. */
struct Pass
{
    std::vector<double> setup_s;  ///< one per set-up repetition
    /** Completions of the timed window, in completion order. */
    std::vector<Completion> done;
    /** Completions per throughput window (about one second's worth). */
    size_t window = 1;
    double peak_rss_mb = 0.0;  ///< peak RSS over set-ups and the window
    uint64_t attempted = 0;  ///< responses checked (set-ups and window)
    uint64_t failed = 0;     ///< mismatches + exceptions (+ serve.failed)
    ringcnn::serve::ServeStats serve;   ///< counters over the window
    ringcnn::stream::VideoStats video;  ///< counters over the window

    /** Length of the timed window (to its last completion). */
    double elapsed_s() const { return done.empty() ? 0.0 : done.back().t_s; }
    std::vector<double> latencies_ms() const;
};

/** Sorts `done` by completion time (merging per-client logs). */
void sort_completions(std::vector<Completion>* done);

/** Counter-wise b - a over the fields the benchmark reports. */
ringcnn::serve::ServeStats serve_delta(const ringcnn::serve::ServeStats& a,
                                       const ringcnn::serve::ServeStats& b);

/**
 * Fills the six end-to-end metrics of `p`. Throughput, CPU per MP and
 * p50 are medians over consecutive windows of `p.window` completions, so
 * a few seconds of outside load on a shared machine move them little;
 * tail_ms is the fixed percentile over every completion of the window.
 */
void end_to_end_metrics(const Pass& p, double tail_pct, Metrics* m);

/** Fills the serve-layer counters of a pass's window. */
void serve_metrics(const Pass& p, Metrics* m);

/** Timing of direct executor runs over a set of inputs. */
struct ExecTiming
{
    double batch_ms = 0.0;         ///< median wall time per batch
    double gmac_per_s = 0.0;       ///< real multiplications per second
    double cpu_s_per_image = 0.0;  ///< process CPU per image
    std::vector<ringcnn::Tensor> outputs;  ///< one per input
};

/** Runs `count` images of `xs` into `outs` (an executor's batch call). */
using BatchFn = std::function<void(const ringcnn::Tensor* const* xs,
                                   ringcnn::Tensor* outs, int count)>;

/**
 * Times `run` over `inputs` in batches of `batch` (one untimed warm pass
 * grows the arena first), repeating whole passes for at least
 * `min_seconds`. `macs_per_image` converts time to GMAC/s.
 */
ExecTiming time_batches(const std::vector<ringcnn::Tensor>& inputs,
                        int batch, int64_t macs_per_image, const BatchFn& run,
                        double min_seconds = 0.25);

/** Median wall ms over `reps` calls of `fn` (a constructor, usually). */
double median_call_ms(int reps, const std::function<void()>& fn);

/** Thread CPU time of the calling thread (seconds). */
double thread_cpu_s();

/** Direct per-frame timings of the stream layer's tile operations. */
struct TileOps
{
    double extract_ms = 0.0;  ///< Tiler::extract over every tile
    double compare_ms = 0.0;  ///< simd::max_abs_diff_f32 per tile vs prev
    double paste_ms = 0.0;    ///< Tiler::paste over every tile
    std::vector<ringcnn::Tensor> tiles;  ///< the frame's tile inputs
    ringcnn::Tensor assembled;           ///< pasted output frame
};

/**
 * Directly calls Tiler::extract over every tile of `frame` and
 * simd::max_abs_diff_f32 of each tile against the same tile of `prev`
 * (medians over a few whole-frame repetitions, thread CPU time, which
 * equals wall time for these single-threaded calls). Fills
 * extract_ms, compare_ms and tiles.
 */
TileOps time_extract_compare(const ringcnn::stream::Tiler& tiler,
                             const std::vector<ringcnn::stream::Tile>& tiles,
                             const ringcnn::Tensor& frame,
                             const ringcnn::Tensor& prev);

/** Directly calls Tiler::paste of `outs` (one per tile) into a fresh
 *  output frame; fills ops->paste_ms and ops->assembled. */
void time_paste(const ringcnn::stream::Tiler& tiler,
                const std::vector<ringcnn::stream::Tile>& tiles,
                const std::vector<ringcnn::Tensor>& outs,
                const ringcnn::Shape& in_frame, TileOps* ops);

/** One workload: inputs, references, measured passes, direct calls. */
class Workload
{
  public:
    virtual ~Workload() = default;

    virtual const char* name() const = 0;
    /** The fixed tail percentile (see the tail_ms metric). */
    virtual double tail_pct() const = 0;
    /** Settings to record, as (key, JSON value) pairs. */
    virtual std::vector<std::pair<std::string, std::string>>
    settings() const = 0;

    /** Generates inputs from the seed and their reference digests. */
    virtual void prepare() = 0;
    /** Set-ups plus one timed closed-loop run; the last set-up stays
     *  live for direct(). Spans go to `tr` when it is enabled. */
    virtual Pass measure(Tracer& tr) = 0;
    /**
     * The direct-call pass on the live set-up: per-layer metrics into
     * `m`, using `p` (the traced pass) and the spans in `tr`. Responses
     * it checks are added to `*attempted` / `*failed`.
     */
    virtual void direct(const Pass& p, const Tracer& tr, Metrics* m,
                        uint64_t* attempted, uint64_t* failed) = 0;
    /** Tears the live set-up down. */
    virtual void release() = 0;
};

std::unique_ptr<Workload> make_camera_dn(const Options& opt);
std::unique_ptr<Workload> make_screen_sr(const Options& opt);
std::unique_ptr<Workload> make_photo_int8(const Options& opt);

}  // namespace ringbench

#endif  // RINGBENCH_WORKLOAD_H
