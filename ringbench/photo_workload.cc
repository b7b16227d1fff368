/**
 * @file
 * photo_int8: small photos served by an int8 ServeServer over the
 * quantized DnERNet-PU, with no stream layer in between. min(4, nproc)
 * clients each submit one photo and wait for its reply (a closed loop).
 *
 * Twelve even shapes from 64x64 to 320x240 have Zipf popularity
 * (weight 1/rank over a fixed rank order). The request sequence is
 * drawn in blocks that hold each shape exactly its Zipf share, shuffled
 * by the seed, so every run sees the same mix. With max_plans = 8 the
 * four least popular shapes force plan-cache rebinds.
 */
#include <atomic>
#include <future>
#include <random>
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

/** Shapes (h, w) in popularity-rank order. */
constexpr int kShapes[12][2] = {
    {120, 160}, {96, 128}, {64, 64},   {240, 320}, {96, 96},   {192, 256},
    {128, 128}, {128, 192}, {160, 240}, {64, 96},  {200, 320}, {192, 192},
};
constexpr int kNumShapes = 12;
constexpr int kImagesPerShape = 4;
constexpr int kBlock = 240;      ///< requests per exact-mix block
constexpr int kSequence = 40;    ///< blocks in the request sequence
constexpr int kMaxPlans = 8;
constexpr int kMaxBatch = 4;
constexpr double kLingerMs = 0.2;
constexpr int kSetupReps = 10;
constexpr size_t kWindow = 200;  ///< requests per throughput window
constexpr int kStreamTile = 64;  ///< tile of the direct stream probe

class PhotoWorkload final : public Workload
{
  public:
    explicit PhotoWorkload(const Options& opt) : opt_(opt) {}

    const char* name() const override { return "photo_int8"; }
    double tail_pct() const override { return 99.5; }

    std::vector<std::pair<std::string, std::string>> settings() const override
    {
        auto num = [](double v) { return json_number(v); };
        std::string shapes = "\"";
        for (int s = 0; s < kNumShapes; ++s) {
            shapes += (s ? " " : "") + std::to_string(kShapes[s][1]) + "x" +
                      std::to_string(kShapes[s][0]);
        }
        return {
            {"model", json_string("DnERNet-PU (RI4,fH) B2R2N0C16")},
            {"precision", json_string("int8")},
            {"shapes_by_rank", shapes + "\""},
            {"zipf_exponent", num(1.0)},
            {"clients", num(opt_.threads)},
            {"workers", num(opt_.threads)},
            {"max_batch", num(kMaxBatch)},
            {"linger_ms", num(kLingerMs)},
            {"max_plans", num(kMaxPlans)},
            {"load", json_string("closed loop: each client waits for its "
                                 "reply before the next submit")},
            {"input_pool", num(kNumShapes * kImagesPerShape)},
            {"setup_reps", num(kSetupReps)},
            {"window_requests", num(static_cast<double>(kWindow))},
        };
    }

    void prepare() override
    {
        images_.clear();
        for (int s = 0; s < kNumShapes; ++s) {
            for (int j = 0; j < kImagesPerShape; ++j) {
                const uint64_t k = static_cast<uint64_t>(s * 16 + j);
                Tensor img = make_scene(kShapes[s][0], kShapes[s][1],
                                        sub_seed(opt_.seed, 10 + k));
                add_noise(&img, 0.03f, sub_seed(opt_.seed, 5000 + k));
                images_.push_back(std::move(img));
            }
        }
        calib_ = {image(2, 0), image(0, 0)};
        build_sequence();
        nn::Model model = build_model();
        quant::QuantizedModel qm(model, calib_);
        refs_.clear();
        for (const Tensor& img : images_) refs_.push_back(digest(qm.forward(img)));
        if (opt_.corrupt_digest) refs_[seq_[0]] ^= 1;
    }

    Pass measure(Tracer& tr) override
    {
        // Half the set-ups run before the timed window and half after,
        // so their median spans the whole pass; the last stays live.
        Pass p;
        for (int r = 0; r < kSetupReps; ++r) {
            if (r == kSetupReps / 2) {
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

    void release() override
    {
        server_.reset();
        qm_.reset();
        model_.reset();
    }

  private:
    static nn::Model build_model()
    {
        return models::build_dn_ernet_pu(models::Algebra::with_fh("RI4"),
                                          models::ErnetConfig{});
    }

    const Tensor& image(int shape, int j) const
    {
        return images_[static_cast<size_t>(shape * kImagesPerShape + j)];
    }

    /** Seeded request order: blocks with the exact Zipf mix. */
    void build_sequence()
    {
        double hsum = 0.0;
        for (int s = 0; s < kNumShapes; ++s) hsum += 1.0 / (s + 1);
        std::vector<int> counts(kNumShapes);
        int total = 0;
        for (int s = 0; s < kNumShapes; ++s) {
            counts[s] = static_cast<int>(kBlock / (s + 1) / hsum);
            total += counts[s];
        }
        for (int s = 0; total < kBlock; s = (s + 1) % kNumShapes, ++total) {
            counts[s] += 1;  // remainder to the head of the ranking
        }
        std::vector<size_t> block;
        for (int s = 0; s < kNumShapes; ++s) {
            for (int c = 0; c < counts[s]; ++c) {
                block.push_back(static_cast<size_t>(s));
            }
        }
        std::mt19937_64 rng(sub_seed(opt_.seed, 3));
        std::uniform_int_distribution<int> pick(0, kImagesPerShape - 1);
        seq_.clear();
        share_.assign(kNumShapes, 0.0);
        for (int b = 0; b < kSequence; ++b) {
            std::shuffle(block.begin(), block.end(), rng);
            for (size_t s : block) {
                seq_.push_back(s * kImagesPerShape +
                               static_cast<size_t>(pick(rng)));
            }
        }
        for (int s = 0; s < kNumShapes; ++s) {
            share_[s] = static_cast<double>(counts[s]) / kBlock;
        }
    }

    serve::ServeOptions serve_options() const
    {
        serve::ServeOptions so;
        so.workers = opt_.threads;
        so.max_batch = kMaxBatch;
        so.linger_ms = kLingerMs;
        so.max_plans = kMaxPlans;
        so.executor.threads = opt_.threads;
        return so;
    }

    /** One set-up: model build to the last warm-up reply (seconds). */
    double setup(Tracer& tr, int rep, Pass* p)
    {
        const auto t0 = Clock::now();
        {
            ScopedSpan span(tr, "model.build", "setup", rep);
            model_ = std::make_unique<nn::Model>(build_model());
        }
        {
            ScopedSpan span(tr, "quant.calibrate", "setup", rep);
            qm_ = std::make_unique<quant::QuantizedModel>(*model_, calib_);
        }
        {
            ScopedSpan span(tr, "serve.start", "setup", rep);
            server_ = std::make_unique<serve::ServeServer>(*qm_,
                                                           serve_options());
        }
        {
            // One warm-up per shape, least popular first, so the eight
            // most popular plans are the ones left cached.
            ScopedSpan span(tr, "warmup", "setup", rep);
            for (int s = kNumShapes - 1; s >= 0; --s) {
                const size_t idx = static_cast<size_t>(s * kImagesPerShape);
                p->attempted += 1;
                try {
                    if (digest(server_->submit_view(images_[idx]).get()) !=
                        refs_[idx]) {
                        p->failed += 1;
                    }
                } catch (const std::exception&) {
                    p->failed += 1;
                }
            }
        }
        const auto t1 = Clock::now();
        tr.record("setup", "", rep, t0, t1);
        return secs(t0, t1);
    }

    /** The timed closed loop: `threads` clients over one cursor. */
    void run(Tracer& tr, Pass* p)
    {
        struct Client
        {
            std::vector<Completion> done;
            uint64_t failed = 0;
        };
        std::vector<Client> clients(static_cast<size_t>(opt_.threads));
        std::atomic<uint64_t> cursor{0};
        const serve::ServeStats s0 = server_->stats();
        const double cpu0 = process_cpu_s();
        const auto t0 = Clock::now();
        const auto stop = t0 + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(opt_.seconds));
        auto client = [&](Client& c) {
            c.done.reserve(1 << 15);
            while (Clock::now() < stop) {
                const uint64_t k = cursor.fetch_add(1);
                const size_t idx = seq_[k % seq_.size()];
                const Tensor& img = images_[idx];
                const auto r0 = Clock::now();
                auto r1 = r0;
                bool ok = true;
                Tensor out;
                try {
                    std::future<Tensor> fut = server_->submit_view(img);
                    r1 = Clock::now();
                    out = fut.get();
                } catch (const std::exception&) {
                    ok = false;
                }
                const auto r2 = Clock::now();
                if (ok) ok = digest(out) == refs_[idx];
                const auto r3 = Clock::now();
                const auto id = static_cast<int64_t>(k);
                tr.record("serve.submit", "request", id, r0, r1);
                tr.record("serve.wait", "request", id, r1, r2);
                tr.record("bench.check", "request", id, r2, r3);
                tr.record("request", "", id, r0, r2);
                const double mp =
                    static_cast<double>(img.dim(1)) * img.dim(2) / 1e6;
                c.done.push_back({secs(t0, r2), process_cpu_s() - cpu0,
                                  ok ? mp : 0.0, msecs(r0, r2)});
                c.failed += ok ? 0 : 1;
            }
        };
        std::vector<std::thread> threads;
        for (Client& c : clients) threads.emplace_back(client, std::ref(c));
        for (std::thread& t : threads) t.join();
        uint64_t failed = 0;
        for (const Client& c : clients) {
            p->done.insert(p->done.end(), c.done.begin(), c.done.end());
            failed += c.failed;
        }
        sort_completions(&p->done);
        p->window = kWindow;
        p->attempted += p->done.size();
        p->serve = serve_delta(s0, server_->stats());
        p->failed += std::max<uint64_t>(failed, p->serve.failed);
    }

    Options opt_;
    std::vector<Tensor> images_;   ///< kImagesPerShape per shape, rank order
    std::vector<Tensor> calib_;
    std::vector<uint64_t> refs_;   ///< reference digest per image
    std::vector<size_t> seq_;      ///< request order (image indices)
    std::vector<double> share_;    ///< request share per shape
    std::unique_ptr<nn::Model> model_;
    std::unique_ptr<quant::QuantizedModel> qm_;
    std::unique_ptr<serve::ServeServer> server_;
};

void
PhotoWorkload::direct(const Pass& p, const Tracer& tr, Metrics* m,
                      uint64_t* attempted, uint64_t* failed)
{
    const int batch = std::clamp(
        static_cast<int>(std::lround(p.serve.mean_batch())), 1, kMaxBatch);

    // ---- serve: from the run's spans.
    m->set("serve.submit_us",
           median(tr.durations_ms("serve.submit")) * 1e3, "us");
    m->set("serve.wait_ms", median(tr.durations_ms("serve.wait")), "ms");
    serve_metrics(p, m);

    // ---- executors per shape at the run's mean batch, weighted by the
    // request mix. int8 is on the path; fp32 is its twin.
    quant::QuantExecOptions qo;
    qo.threads = opt_.threads;
    nn::ExecutorOptions eo;
    eo.threads = opt_.threads;
    quant::QuantExecutor qexec(*qm_, qo);
    double q_ms = 0.0, q_gmac = 0.0, q_cpu = 0.0, q_quant_ms = 0.0;
    double f_ms = 0.0, f_gmac = 0.0, mp = 0.0, arena_mb = 0.0;
    double check_cpu = 0.0;
    sim::SimConfig sc;
    sc.n = 4;
    const sim::Accelerator acc(sc);
    double sim_nj = 0.0, sim_cycles = 0.0;
    for (int s = 0; s < kNumShapes; ++s) {
        const Shape shape{3, kShapes[s][0], kShapes[s][1]};
        const double w = share_[s];
        const double px = static_cast<double>(kShapes[s][0]) * kShapes[s][1];
        const int64_t macs = model_->macs(shape);
        std::vector<Tensor> ins(images_.begin() + s * kImagesPerShape,
                                images_.begin() + (s + 1) * kImagesPerShape);
        const ExecTiming qt = time_batches(
            ins, batch, macs,
            [&](const Tensor* const* xs, Tensor* outs, int n) {
                qexec.forward_into(xs, outs, n);
            },
            0.05);
        nn::ModelExecutor fexec(*model_, shape, eo);
        const ExecTiming ft = time_batches(
            ins, batch, macs,
            [&](const Tensor* const* xs, Tensor* outs, int n) {
                fexec.run_into(xs, outs, n);
            },
            0.05);
        arena_mb = std::max(arena_mb, static_cast<double>(fexec.arena_bytes()) /
                                          1048576.0);
        q_ms += w * qt.batch_ms;
        q_gmac += w * static_cast<double>(macs) * batch / 1e9;
        q_cpu += w * qt.cpu_s_per_image;
        f_ms += w * ft.batch_ms;
        f_gmac += w * static_cast<double>(macs) * batch / 1e9;
        mp += w * px / 1e6;
        std::vector<double> quant_ms;
        for (const Tensor& x : ins) {
            const auto q0 = Clock::now();
            [[maybe_unused]] const quant::QAct a = qm_->quantize_input(x);
            quant_ms.push_back(msecs(q0, Clock::now()));
        }
        q_quant_ms += w * median(quant_ms);
        const double c0 = thread_cpu_s();
        for (size_t j = 0; j < qt.outputs.size(); ++j) {
            *attempted += 1;
            if (digest(qt.outputs[j]) != refs_[s * kImagesPerShape + j]) {
                *failed += 1;
            }
        }
        check_cpu += w * (thread_cpu_s() - c0) / kImagesPerShape;
        const sim::PixelCosts pc = acc.pixel_costs(*qm_, ins[0]);
        sim_nj += w * pc.nj_per_pixel * px;
        sim_cycles += w * pc.cycles_per_pixel * px;
    }
    m->set("quant.batch_ms", q_ms, "ms");
    m->set("quant.gmac_per_s", q_ms > 0.0 ? q_gmac / (q_ms / 1e3) : 0.0,
           "GMAC/s");
    m->set("quant.quantize_ms", q_quant_ms, "ms");
    m->set("quant.scalar_convs", qexec.scalar_conv_count(), "count");
    m->set("nn.batch_ms", f_ms, "ms");
    m->set("nn.gmac_per_s", f_ms > 0.0 ? f_gmac / (f_ms / 1e3) : 0.0,
           "GMAC/s");
    m->set("nn.arena_mb", arena_mb, "MB");
    m->set("plan.compile_ms", median_call_ms(5, [&]() {
               quant::QuantExecutor e(*qm_, qo);
           }),
           "ms");
    m->set("quant.calibrate_s",
           median(tr.durations_ms("quant.calibrate")) / 1e3, "s");
    m->set("sim.nj_per_px", sim_nj / (mp * 1e6), "nJ/px");
    m->set("sim.cycles_per_frame", sim_cycles, "cycles");

    // ---- stream: not on this workload's path. The direct probe tiles
    // the largest photo shape with 64x64 windows of the same int8 plan,
    // pushes its photos through a pipeline on the same server, and the
    // pasted result must still equal the whole-photo reference.
    const int big = 3;  // 320x240
    const Shape tshape{3, kStreamTile, kStreamTile};
    plan::GraphPlan tplan =
        plan::linearize(*qm_->root(), qm_->options().feature_bits);
    plan::annotate_shapes(tplan, tshape);
    stream::VideoOptions vo;
    vo.skip_threshold = 0.0;
    vo.max_inflight_frames = 2;
    {
        stream::VideoPipeline pipe(*server_, tplan, vo);
        const stream::Tiler& tiler = pipe.tiler();
        const std::vector<stream::Tile> tiles =
            tiler.tiles(kShapes[big][0], kShapes[big][1]);
        TileOps ops = time_extract_compare(tiler, tiles, image(big, 0),
                                           image(big, 1));
        const ExecTiming tt = time_batches(
            ops.tiles, batch, model_->macs(tshape),
            [&](const Tensor* const* xs, Tensor* outs, int n) {
                qexec.forward_into(xs, outs, n);
            },
            0.0);
        time_paste(tiler, tiles, tt.outputs, image(big, 0).shape(), &ops);
        *attempted += 1;
        if (digest(ops.assembled) != refs_[big * kImagesPerShape]) *failed += 1;
        std::vector<double> push_ms;
        std::vector<std::future<Tensor>> futs;
        for (int r = 0; r < 2 * kImagesPerShape; ++r) {
            const auto p0 = Clock::now();
            futs.push_back(pipe.push(image(big, r % kImagesPerShape)));
            push_ms.push_back(msecs(p0, Clock::now()));
        }
        for (size_t r = 0; r < futs.size(); ++r) {
            *attempted += 1;
            try {
                if (digest(futs[r].get()) !=
                    refs_[big * kImagesPerShape + r % kImagesPerShape]) {
                    *failed += 1;
                }
            } catch (const std::exception&) {
                *failed += 1;
            }
        }
        m->set("stream.push_ms", median(push_ms), "ms");
        m->set("stream.skip_rate", pipe.stats().skip_rate(), "ratio");
        m->set("stream.overcompute",
               static_cast<double>(tiles.size()) * kStreamTile * kStreamTile /
                   (static_cast<double>(kShapes[big][0]) * kShapes[big][1]),
               "ratio");
        m->set("stream.extract_ms_per_frame", ops.extract_ms, "ms");
        m->set("stream.compare_ms_per_frame", ops.compare_ms, "ms");
        m->set("stream.paste_ms_per_frame", ops.paste_ms, "ms");
    }

    // ---- busy time per output MP of the layers on the path.
    const double layers = (q_cpu + check_cpu) / mp;
    m->set("quant.cpu_s_per_mp", q_cpu / mp, "s/MP");
    m->set("bench.cpu_s_per_mp", check_cpu / mp, "s/MP");
    m->set("trace.layer_cpu_s_per_mp", layers, "s/MP");
}

}  // namespace

std::unique_ptr<Workload>
make_photo_int8(const Options& opt)
{
    return std::make_unique<PhotoWorkload>(opt);
}

}  // namespace ringbench
