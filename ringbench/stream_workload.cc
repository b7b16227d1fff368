/**
 * @file
 * The two video workloads: frames pushed through stream::VideoPipeline
 * onto a ServeServer, in a closed loop — one producer pushes as fast as
 * max_inflight_frames admits, one collector waits on the frame futures
 * in push order and checks every assembled frame.
 *
 *  camera_dn  1280x720 camera frames (seeded scene + per-frame sensor
 *             noise), DnERNet-PU in fp32, 128x128 tiles, temporal skip
 *             off: all compute, no reuse.
 *  screen_sr  480x270 screen content upscaled x4 by SR4ERNet in int8,
 *             64x64 tiles, skip_threshold 0 (bit-exact reuse): most
 *             tiles are reused, so the serial push-side compare and
 *             collector-side paste weigh far more than on camera_dn.
 */
#include <condition_variable>
#include <deque>
#include <future>
#include <mutex>
#include <thread>

#include "inputs.h"
#include "models/backbones.h"
#include "nn/executor.h"
#include "plan/graph_ir.h"
#include "quant/quant_executor.h"
#include "quant/quant_model.h"
#include "sim/accelerator.h"
#include "workload.h"

namespace ringbench {

using namespace ringcnn;

namespace {

/** Consumes results the timing loops would otherwise leave dead. */
volatile double g_sink = 0.0;

struct StreamSpec
{
    const char* name;
    bool sr;    ///< SR4ERNet (x4) instead of DnERNet-PU
    bool int8;  ///< int8 server over the quantized model, else fp32
    int frame_h, frame_w, tile;
    double skip_threshold;
    int max_inflight_frames;
    int max_batch;
    double linger_ms;
    double tail_pct;
    size_t window;  ///< frames per throughput window (about a second)
    int setup_reps;
    int pool;  ///< distinct input frames, pushed cyclically
    /** Input frames (the pool) from the seed. */
    std::function<std::vector<Tensor>(uint64_t seed, int pool)> frames;
};

class StreamWorkload final : public Workload
{
  public:
    StreamWorkload(StreamSpec spec, const Options& opt)
        : spec_(std::move(spec)), opt_(opt)
    {
    }

    const char* name() const override { return spec_.name; }
    double tail_pct() const override { return spec_.tail_pct; }

    std::vector<std::pair<std::string, std::string>> settings() const override
    {
        auto num = [](double v) { return json_number(v); };
        return {
            {"model", json_string(spec_.sr ? "SR4ERNet (RI4,fH) B2R2N0C16"
                                           : "DnERNet-PU (RI4,fH) B2R2N0C16")},
            {"precision", json_string(spec_.int8 ? "int8" : "fp32")},
            {"frame", json_string(std::to_string(spec_.frame_w) + "x" +
                                  std::to_string(spec_.frame_h))},
            {"tile", num(spec_.tile)},
            {"skip_threshold", num(spec_.skip_threshold)},
            {"max_inflight_frames", num(spec_.max_inflight_frames)},
            {"workers", num(1)},
            {"max_batch", num(spec_.max_batch)},
            {"linger_ms", num(spec_.linger_ms)},
            {"producers", num(1)},
            {"load", json_string("closed loop: one producer, push blocks "
                                 "at max_inflight_frames")},
            {"input_pool", num(spec_.pool)},
            {"setup_reps", num(spec_.setup_reps)},
            {"window_frames", num(static_cast<double>(spec_.window))},
        };
    }

    void prepare() override
    {
        frames_ = spec_.frames(opt_.seed, spec_.pool);
        // Calibration set: two tile windows of the first frame.
        for (int k = 0; k < 2; ++k) {
            const int y0 = k * (spec_.frame_h - spec_.tile) / 2;
            const int x0 = k * (spec_.frame_w - spec_.tile) / 2;
            Tensor c({3, spec_.tile, spec_.tile});
            for (int ch = 0; ch < 3; ++ch) {
                for (int y = 0; y < spec_.tile; ++y) {
                    for (int x = 0; x < spec_.tile; ++x) {
                        c.at(ch, y, x) = frames_[0].at(ch, y0 + y, x0 + x);
                    }
                }
            }
            calib_.push_back(std::move(c));
        }
        // References: whole-frame inference, kept as digests only.
        nn::Model model = build_model();
        refs_.clear();
        if (spec_.int8) {
            quant::QuantizedModel qm(model, calib_);
            for (const Tensor& f : frames_) refs_.push_back(digest(qm.forward(f)));
        } else {
            nn::ModelExecutor whole(model, frames_[0].shape(), exec_options());
            for (const Tensor& f : frames_) refs_.push_back(digest(whole.run(f)));
        }
        if (opt_.corrupt_digest) refs_[1 % refs_.size()] ^= 1;
    }

    Pass measure(Tracer& tr) override
    {
        // Half the set-ups run before the timed window and half after,
        // so their median spans the whole pass; the last stays live.
        Pass p;
        const int before = (spec_.setup_reps + 1) / 2;
        for (int r = 0; r < spec_.setup_reps; ++r) {
            if (r == before) {
                run(tr, &p);
                p.peak_rss_mb = peak_rss_mb();
            }
            release();
            p.setup_s.push_back(setup(tr, r, &p));
        }
        return p;
    }

    void direct(const Pass& p, const Tracer& tr, Metrics* m,
                uint64_t* attempted, uint64_t* failed) override;

    void release() override { live_.reset(); }

  private:
    /** One set-up's live objects (destroyed pipeline-first). */
    struct Session
    {
        std::unique_ptr<nn::Model> model;
        std::unique_ptr<quant::QuantizedModel> qm;
        plan::GraphPlan tile_plan;
        std::unique_ptr<serve::ServeServer> server;
        std::unique_ptr<stream::VideoPipeline> pipe;
    };

    nn::Model build_model() const
    {
        const models::Algebra alg = models::Algebra::with_fh("RI4");
        return spec_.sr ? models::build_sr4_ernet(alg, models::ErnetConfig{})
                        : models::build_dn_ernet_pu(alg, models::ErnetConfig{});
    }

    Shape tile_shape() const { return {3, spec_.tile, spec_.tile}; }

    nn::ExecutorOptions exec_options() const
    {
        nn::ExecutorOptions e;
        e.threads = opt_.threads;
        return e;
    }

    quant::QuantExecOptions quant_options() const
    {
        quant::QuantExecOptions q;
        q.threads = opt_.threads;
        return q;
    }

    /** One set-up: model build to the first correct frame (seconds). */
    double setup(Tracer& tr, int rep, Pass* p)
    {
        auto s = std::make_unique<Session>();
        const auto t0 = Clock::now();
        {
            ScopedSpan span(tr, "model.build", "setup", rep);
            s->model = std::make_unique<nn::Model>(build_model());
        }
        if (spec_.int8) {
            ScopedSpan span(tr, "quant.calibrate", "setup", rep);
            s->qm = std::make_unique<quant::QuantizedModel>(*s->model, calib_);
        }
        {
            ScopedSpan span(tr, "plan.tile", "setup", rep);
            if (spec_.int8) {
                s->tile_plan = plan::linearize(*s->qm->root(),
                                               s->qm->options().feature_bits);
                plan::annotate_shapes(s->tile_plan, tile_shape());
            } else {
                s->tile_plan = plan::linearize(s->model->root(), tile_shape());
            }
        }
        serve::ServeOptions so;
        so.workers = 1;  // one tile bucket: one batch in flight at a time
        so.max_batch = spec_.max_batch;
        so.linger_ms = spec_.linger_ms;
        so.executor = exec_options();
        {
            ScopedSpan span(tr, "serve.start", "setup", rep);
            s->server = spec_.int8
                            ? std::make_unique<serve::ServeServer>(*s->qm, so)
                            : std::make_unique<serve::ServeServer>(*s->model, so);
        }
        stream::VideoOptions vo;
        vo.skip_threshold = spec_.skip_threshold;
        vo.max_inflight_frames = spec_.max_inflight_frames;
        {
            ScopedSpan span(tr, "stream.start", "setup", rep);
            s->pipe = std::make_unique<stream::VideoPipeline>(*s->server,
                                                              s->tile_plan, vo);
        }
        {
            // Warm-up: frame 0 computes every tile through the one plan.
            ScopedSpan span(tr, "warmup", "setup", rep);
            p->attempted += 1;
            try {
                if (digest(s->pipe->push(frames_[0]).get()) != refs_[0]) {
                    p->failed += 1;
                }
            } catch (const std::exception&) {
                p->failed += 1;
            }
        }
        const auto t1 = Clock::now();
        tr.record("setup", "", rep, t0, t1);
        live_ = std::move(s);
        return secs(t0, t1);
    }

    /** The timed closed loop on the live set-up. */
    void run(Tracer& tr, Pass* p)
    {
        struct Pending
        {
            int64_t frame;
            size_t idx;
            Clock::time_point pushed;
            std::future<Tensor> fut;
        };
        std::mutex mu;
        std::condition_variable cv;
        std::deque<Pending> queue;  // guarded by mu
        bool closed = false;        // guarded by mu

        const double frame_mp =
            static_cast<double>(shape_numel(
                live_->pipe->tiler().out_frame_shape(frames_[0].shape()))) /
            3.0 / 1e6;
        p->done.reserve(4096);
        p->window = spec_.window;
        uint64_t failed = 0;  // written by the collector only
        const serve::ServeStats s0 = live_->server->stats();
        const stream::VideoStats v0 = live_->pipe->stats();
        const double cpu0 = process_cpu_s();
        const auto t0 = Clock::now();
        std::thread collector([&]() {
            for (;;) {
                std::unique_lock<std::mutex> lock(mu);
                cv.wait(lock, [&]() { return closed || !queue.empty(); });
                if (queue.empty()) return;
                Pending job = std::move(queue.front());
                queue.pop_front();
                lock.unlock();

                Tensor out;
                bool ok = true;
                const auto w0 = Clock::now();
                try {
                    out = job.fut.get();
                } catch (const std::exception&) {
                    ok = false;
                }
                const auto w1 = Clock::now();
                tr.record("stream.wait", "frame", job.frame, w0, w1);
                if (ok) {
                    ok = digest(out) == refs_[job.idx];
                    tr.record("bench.check", "frame", job.frame, w1,
                              Clock::now());
                }
                failed += ok ? 0 : 1;
                p->done.push_back({secs(t0, w1), process_cpu_s() - cpu0,
                                   ok ? frame_mp : 0.0,
                                   msecs(job.pushed, w1)});
                tr.record("frame", "", job.frame, job.pushed, w1);
            }
        });

        const auto stop = t0 + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(opt_.seconds));
        uint64_t refused = 0;  // a push that threw: counted, loop ends
        try {
            for (int64_t i = 1; Clock::now() < stop; ++i) {
                const size_t idx = static_cast<size_t>(i) % frames_.size();
                const auto c0 = Clock::now();
                Tensor f = frames_[idx];  // the camera hands over a new buffer
                const auto c1 = Clock::now();
                tr.record("bench.copy", "frame", i, c0, c1);
                std::future<Tensor> fut = live_->pipe->push(std::move(f));
                tr.record("stream.push", "frame", i, c1, Clock::now());
                {
                    std::lock_guard<std::mutex> lock(mu);
                    queue.push_back({i, idx, c1, std::move(fut)});
                }
                cv.notify_one();
            }
        } catch (const std::exception&) {
            refused = 1;
        }
        {
            std::lock_guard<std::mutex> lock(mu);
            closed = true;
        }
        cv.notify_one();
        collector.join();
        p->attempted += p->done.size() + refused;
        p->failed += failed + refused;
        p->serve = serve_delta(s0, live_->server->stats());
        const stream::VideoStats v1 = live_->pipe->stats();
        p->video.frames_pushed = v1.frames_pushed - v0.frames_pushed;
        p->video.tiles = v1.tiles - v0.tiles;
        p->video.computed = v1.computed - v0.computed;
        p->video.skipped = v1.skipped - v0.skipped;
        // A failed tile fails its frame; surface serve-side failures the
        // frame futures did not already count.
        if (p->serve.failed > failed) p->failed += p->serve.failed - failed;
    }

    StreamSpec spec_;
    Options opt_;
    std::vector<Tensor> frames_;
    std::vector<Tensor> calib_;
    std::vector<uint64_t> refs_;
    std::unique_ptr<Session> live_;
};

void
StreamWorkload::direct(const Pass& p, const Tracer& tr, Metrics* m,
                       uint64_t* attempted, uint64_t* failed)
{
    Session& s = *live_;
    const stream::Tiler& tiler = s.pipe->tiler();
    const std::vector<stream::Tile> tiles =
        tiler.tiles(spec_.frame_h, spec_.frame_w);
    const double out_px_per_frame =
        static_cast<double>(shape_numel(tiler.out_frame_shape(
            frames_[0].shape()))) / 3.0;
    const double mp_per_frame = out_px_per_frame / 1e6;
    const double computed_per_frame =
        static_cast<double>(p.video.computed) /
        std::max<double>(1.0, static_cast<double>(p.video.frames_pushed));
    const int batch = std::clamp(
        static_cast<int>(std::lround(p.serve.mean_batch())), 1,
        spec_.max_batch);

    // ---- stream: push from the run's spans, tile ops called directly.
    m->set("stream.push_ms", median(tr.durations_ms("stream.push")), "ms");
    m->set("stream.skip_rate", p.video.skip_rate(), "ratio");
    m->set("stream.overcompute",
           static_cast<double>(tiles.size()) * spec_.tile * spec_.tile /
               (static_cast<double>(spec_.frame_h) * spec_.frame_w),
           "ratio");
    const Tensor& frame = frames_[1 % frames_.size()];
    TileOps ops = time_extract_compare(tiler, tiles, frame, frames_[0]);

    // ---- executors at the tile shape and the run's mean batch. The
    // served precision is on the path; the other one is its twin.
    std::unique_ptr<quant::QuantizedModel> twin_qm;
    double calibrate_s = median(tr.durations_ms("quant.calibrate")) / 1e3;
    if (!spec_.int8) {
        const auto c0 = Clock::now();
        twin_qm = std::make_unique<quant::QuantizedModel>(*s.model, calib_);
        calibrate_s = secs(c0, Clock::now());
    }
    const quant::QuantizedModel& qm = spec_.int8 ? *s.qm : *twin_qm;
    const int64_t macs = s.model->macs(tile_shape());

    nn::ModelExecutor fexec(*s.model, tile_shape(), exec_options());
    const ExecTiming nn_t = time_batches(
        ops.tiles, batch, macs,
        [&](const Tensor* const* xs, Tensor* outs, int n) {
            fexec.run_into(xs, outs, n);
        });
    quant::QuantExecutor qexec(qm, quant_options());
    const ExecTiming q_t = time_batches(
        ops.tiles, batch, macs,
        [&](const Tensor* const* xs, Tensor* outs, int n) {
            qexec.forward_into(xs, outs, n);
        });
    const double fp32_compile_ms = median_call_ms(5, [&]() {
        nn::ModelExecutor e(*s.model, tile_shape(), exec_options());
    });
    const double int8_compile_ms = median_call_ms(5, [&]() {
        quant::QuantExecutor e(qm, quant_options());
    });
    const ExecTiming& on_path = spec_.int8 ? q_t : nn_t;

    m->set("nn.batch_ms", nn_t.batch_ms, "ms");
    m->set("nn.gmac_per_s", nn_t.gmac_per_s, "GMAC/s");
    m->set("nn.arena_mb", static_cast<double>(fexec.arena_bytes()) / 1048576.0,
           "MB");
    m->set("quant.batch_ms", q_t.batch_ms, "ms");
    m->set("quant.gmac_per_s", q_t.gmac_per_s, "GMAC/s");
    std::vector<double> qms;
    for (const Tensor& t : ops.tiles) {
        const auto q0 = Clock::now();
        [[maybe_unused]] const quant::QAct a = qm.quantize_input(t);
        qms.push_back(msecs(q0, Clock::now()));
    }
    m->set("quant.quantize_ms", median(qms), "ms");
    m->set("quant.scalar_convs", qexec.scalar_conv_count(), "count");
    m->set("plan.compile_ms", spec_.int8 ? int8_compile_ms : fp32_compile_ms,
           "ms");
    m->set("quant.calibrate_s", calibrate_s, "s");

    // ---- paste the on-path tile outputs; the frame must match the
    // whole-frame reference, like every response of the run.
    time_paste(tiler, tiles, on_path.outputs, frame.shape(), &ops);
    *attempted += 1;
    if (digest(ops.assembled) != refs_[1 % refs_.size()]) *failed += 1;
    m->set("stream.extract_ms_per_frame", ops.extract_ms, "ms");
    m->set("stream.compare_ms_per_frame", ops.compare_ms, "ms");
    m->set("stream.paste_ms_per_frame", ops.paste_ms, "ms");

    // ---- serve: one frame's tiles submitted directly, as push() does;
    // a tile's wait runs from its submit to its response (collected in
    // submit order, which is completion order for one bucket). Each
    // response must equal the direct executor's output for that tile.
    std::vector<double> sub_us, wait_ms;
    std::vector<std::future<Tensor>> futs;
    std::vector<Clock::time_point> submitted;
    for (const Tensor& t : ops.tiles) {
        const auto s0 = Clock::now();
        futs.push_back(s.server->submit_view(t));
        submitted.push_back(Clock::now());
        sub_us.push_back(msecs(s0, submitted.back()) * 1e3);
    }
    for (size_t i = 0; i < futs.size(); ++i) {
        *attempted += 1;
        try {
            const Tensor out = futs[i].get();
            wait_ms.push_back(msecs(submitted[i], Clock::now()));
            if (digest(out) != digest(on_path.outputs[i])) *failed += 1;
        } catch (const std::exception&) {
            *failed += 1;
        }
    }
    m->set("serve.submit_us", median(sub_us), "us");
    m->set("serve.wait_ms", median(wait_ms), "ms");
    serve_metrics(p, m);

    // ---- sim: the modeled eRingCNN prices the run's tile mix.
    sim::SimConfig sc;
    sc.n = 4;
    const sim::Accelerator acc(sc);
    const sim::SimStats st = acc.price_tile_stream(
        qm, tile_shape(), p.video.computed, p.video.skipped);
    const double vframes =
        std::max<double>(1.0, static_cast<double>(p.video.frames_pushed));
    m->set("sim.nj_per_px",
           st.energy_joules(hw::TechConstants{}, acc.cost()) * 1e9 /
               (vframes * out_px_per_frame),
           "nJ/px");
    m->set("sim.cycles_per_frame", static_cast<double>(st.cycles) / vframes,
           "cycles");

    // ---- busy time per output MP of the layers on the path; the
    // benchmark's own share is the producer's frame copy plus the
    // collector's digest of the assembled frame.
    std::vector<double> bench_ms;
    for (int r = 0; r < 5; ++r) {
        const double c0 = thread_cpu_s();
        const Tensor copy = frame;
        g_sink = g_sink + digest(ops.assembled) + copy[copy.numel() / 2];
        bench_ms.push_back((thread_cpu_s() - c0) * 1e3);
    }
    const double bench_s = median(bench_ms) / 1e3;
    const double stream_s =
        (ops.extract_ms + ops.paste_ms +
         (spec_.skip_threshold >= 0.0 ? ops.compare_ms : 0.0)) / 1e3;
    const double exec_s = on_path.cpu_s_per_image * computed_per_frame;
    const double layers = (exec_s + stream_s + bench_s) / mp_per_frame;
    m->set(spec_.int8 ? "quant.cpu_s_per_mp" : "nn.cpu_s_per_mp",
           exec_s / mp_per_frame, "s/MP");
    m->set("stream.cpu_s_per_mp", stream_s / mp_per_frame, "s/MP");
    m->set("bench.cpu_s_per_mp", bench_s / mp_per_frame, "s/MP");
    m->set("trace.layer_cpu_s_per_mp", layers, "s/MP");
}

std::vector<Tensor>
camera_frames(uint64_t seed, int pool)
{
    const Tensor scene = make_scene(720, 1280, sub_seed(seed, 1));
    std::vector<Tensor> out;
    for (int i = 0; i < pool; ++i) {
        Tensor f = scene;
        add_noise(&f, 0.05f, sub_seed(seed, 100 + i));
        out.push_back(std::move(f));
    }
    return out;
}

std::vector<Tensor>
screen_frames(uint64_t seed, int pool)
{
    return make_screen_loop(270, 480, pool, sub_seed(seed, 2));
}

}  // namespace

std::unique_ptr<Workload>
make_camera_dn(const Options& opt)
{
    StreamSpec s{};
    s.name = "camera_dn";
    s.sr = false;
    s.int8 = false;
    s.frame_h = 720;
    s.frame_w = 1280;
    s.tile = 128;
    s.skip_threshold = -1.0;
    s.max_inflight_frames = 2;
    s.max_batch = 8;
    s.linger_ms = 0.5;
    s.tail_pct = 90.0;
    s.window = 8;
    s.setup_reps = 6;
    s.pool = 4;
    s.frames = camera_frames;
    return std::make_unique<StreamWorkload>(std::move(s), opt);
}

std::unique_ptr<Workload>
make_screen_sr(const Options& opt)
{
    StreamSpec s{};
    s.name = "screen_sr";
    s.sr = true;
    s.int8 = true;
    s.frame_h = 270;
    s.frame_w = 480;
    s.tile = 64;
    s.skip_threshold = 0.0;
    s.max_inflight_frames = 2;
    s.max_batch = 8;
    s.linger_ms = 0.5;
    s.tail_pct = 95.0;
    s.window = 20;
    s.setup_reps = 4;
    s.pool = 8;
    s.frames = screen_frames;
    return std::make_unique<StreamWorkload>(std::move(s), opt);
}

}  // namespace ringbench
