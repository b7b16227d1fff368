#include "workload.h"

#include <time.h>

#include <algorithm>

#include "core/simd.h"

namespace ringbench {

using ringcnn::Tensor;
using ringcnn::serve::ServeStats;

ServeStats
serve_delta(const ServeStats& a, const ServeStats& b)
{
    ServeStats d;
    d.requests = b.requests - a.requests;
    d.completed = b.completed - a.completed;
    d.failed = b.failed - a.failed;
    d.shed = b.shed - a.shed;
    d.expired = b.expired - a.expired;
    d.aborted = b.aborted - a.aborted;
    d.batches = b.batches - a.batches;
    d.batched = b.batched - a.batched;
    d.plan_hits = b.plan_hits - a.plan_hits;
    d.plan_compiles = b.plan_compiles - a.plan_compiles;
    d.plan_rebinds = b.plan_rebinds - a.plan_rebinds;
    d.plan_evictions = b.plan_evictions - a.plan_evictions;
    d.rejected_inputs = b.rejected_inputs - a.rejected_inputs;
    d.integrity_failures = b.integrity_failures - a.integrity_failures;
    d.retries = b.retries - a.retries;
    d.retry_successes = b.retry_successes - a.retry_successes;
    d.max_queue_depth = b.max_queue_depth;
    return d;
}

std::vector<double>
Pass::latencies_ms() const
{
    std::vector<double> out;
    out.reserve(done.size());
    for (const Completion& c : done) out.push_back(c.latency_ms);
    return out;
}

void
sort_completions(std::vector<Completion>* done)
{
    std::sort(done->begin(), done->end(),
              [](const Completion& a, const Completion& b) {
                  return a.t_s < b.t_s;
              });
}

void
end_to_end_metrics(const Pass& p, double tail_pct, Metrics* m)
{
    const size_t n = p.done.size();
    const size_t k = std::max<size_t>(1, std::min(p.window, n));
    std::vector<double> rate, cpu_per_mp, p50;
    for (size_t i0 = 0; i0 + k <= n; i0 += k) {
        const double t_a = i0 == 0 ? 0.0 : p.done[i0 - 1].t_s;
        const double c_a = i0 == 0 ? 0.0 : p.done[i0 - 1].cpu_s;
        const Completion& last = p.done[i0 + k - 1];
        double mp = 0.0;
        std::vector<double> lat;
        for (size_t i = i0; i < i0 + k; ++i) {
            mp += p.done[i].mp;
            lat.push_back(p.done[i].latency_ms);
        }
        if (mp <= 0.0 || last.t_s <= t_a) continue;
        rate.push_back(mp / (last.t_s - t_a));
        cpu_per_mp.push_back((last.cpu_s - c_a) / mp);
        p50.push_back(median(std::move(lat)));
    }
    m->set("setup_s", median(p.setup_s), "s");
    m->set("mp_per_s", median(rate), "MP/s");
    m->set("p50_ms", median(p50), "ms");
    m->set("tail_ms", percentile(p.latencies_ms(), tail_pct), "ms");
    m->set("cpu_s_per_mp", median(cpu_per_mp), "s/MP");
    m->set("peak_rss_mb", p.peak_rss_mb, "MB");
}

void
serve_metrics(const Pass& p, Metrics* m)
{
    const ServeStats& s = p.serve;
    const double claims =
        static_cast<double>(s.plan_hits + s.plan_compiles + s.plan_rebinds);
    m->set("serve.mean_batch", s.mean_batch(), "count");
    m->set("serve.batches_per_s",
           p.elapsed_s() > 0.0
               ? static_cast<double>(s.batches) / p.elapsed_s()
               : 0.0,
           "1/s");
    m->set("serve.plan_hit_rate",
           claims > 0.0 ? static_cast<double>(s.plan_hits) / claims : 0.0,
           "ratio");
    m->set("serve.plan_rebinds", static_cast<double>(s.plan_rebinds),
           "count");
    m->set("serve.plan_compiles", static_cast<double>(s.plan_compiles),
           "count");
    m->set("serve.failed", static_cast<double>(s.failed), "count");
    m->set("serve.retries", static_cast<double>(s.retries), "count");
}

ExecTiming
time_batches(const std::vector<Tensor>& inputs, int batch,
             int64_t macs_per_image, const BatchFn& run, double min_seconds)
{
    ExecTiming t;
    const int n = static_cast<int>(inputs.size());
    batch = std::max(1, std::min(batch, n));
    std::vector<const Tensor*> ptrs;
    for (const Tensor& x : inputs) ptrs.push_back(&x);
    t.outputs.resize(inputs.size());
    auto pass = [&](std::vector<double>* batch_ms) {
        for (int i = 0; i < n; i += batch) {
            const int b = std::min(batch, n - i);
            const auto t0 = Clock::now();
            run(ptrs.data() + i, t.outputs.data() + i, b);
            if (batch_ms != nullptr && b == batch) {
                batch_ms->push_back(msecs(t0, Clock::now()));
            }
        }
    };
    pass(nullptr);  // grows the arena to this batch size

    std::vector<double> batch_ms;
    int64_t images = 0;
    const double cpu0 = process_cpu_s();
    const auto t0 = Clock::now();
    do {
        pass(&batch_ms);
        images += n;
    } while (secs(t0, Clock::now()) < min_seconds);
    const double wall = secs(t0, Clock::now());
    const double cpu = process_cpu_s() - cpu0;
    t.batch_ms = median(batch_ms);
    t.gmac_per_s = static_cast<double>(macs_per_image) *
                   static_cast<double>(images) / wall / 1e9;
    t.cpu_s_per_image = cpu / static_cast<double>(images);
    return t;
}

double
median_call_ms(int reps, const std::function<void()>& fn)
{
    std::vector<double> ms;
    for (int r = 0; r < reps; ++r) {
        const auto t0 = Clock::now();
        fn();
        ms.push_back(msecs(t0, Clock::now()));
    }
    return median(ms);
}

double
thread_cpu_s()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

namespace {

constexpr int kTileOpReps = 7;

/** Median thread-CPU ms of `reps` calls of `fn`. */
template <class Fn>
double
median_thread_ms(Fn&& fn)
{
    std::vector<double> ms;
    for (int r = 0; r < kTileOpReps; ++r) {
        const double c0 = thread_cpu_s();
        fn();
        ms.push_back((thread_cpu_s() - c0) * 1e3);
    }
    return median(ms);
}

}  // namespace

TileOps
time_extract_compare(const ringcnn::stream::Tiler& tiler,
                     const std::vector<ringcnn::stream::Tile>& tiles,
                     const Tensor& frame, const Tensor& prev)
{
    TileOps ops;
    ops.tiles.resize(tiles.size());
    std::vector<Tensor> prev_tiles(tiles.size());
    for (size_t i = 0; i < tiles.size(); ++i) {
        tiler.extract(prev, tiles[i], &prev_tiles[i]);
    }
    ops.extract_ms = median_thread_ms([&]() {
        for (size_t i = 0; i < tiles.size(); ++i) {
            tiler.extract(frame, tiles[i], &ops.tiles[i]);
        }
    });
    ops.compare_ms = median_thread_ms([&]() {
        for (size_t i = 0; i < tiles.size(); ++i) {
            (void)ringcnn::simd::max_abs_diff_f32(ops.tiles[i].data(),
                                                  prev_tiles[i].data(),
                                                  ops.tiles[i].numel());
        }
    });
    return ops;
}

void
time_paste(const ringcnn::stream::Tiler& tiler,
           const std::vector<ringcnn::stream::Tile>& tiles,
           const std::vector<Tensor>& outs, const ringcnn::Shape& in_frame,
           TileOps* ops)
{
    ops->paste_ms = median_thread_ms([&]() {
        ops->assembled = Tensor(tiler.out_frame_shape(in_frame));
        for (size_t i = 0; i < tiles.size(); ++i) {
            tiler.paste(outs[i], tiles[i], &ops->assembled);
        }
    });
}

}  // namespace ringbench
