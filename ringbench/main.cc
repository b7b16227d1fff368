/**
 * @file
 * ringbench: the serving-stack benchmark program.
 *
 *   ringbench --workload camera_dn|photo_int8|screen_sr --seed N
 *             --seconds S --trace 0|1 [--trace-out PATH]
 *             [--corrupt-digest]
 *
 * --trace 0 measures one pass and reports the end-to-end metrics.
 * --trace 1 measures an untraced pass, then a traced pass (spans around
 * every call the benchmark makes into a layer), then the direct-call
 * pass, and reports the per-layer metrics, the tracing overhead
 * (traced minus untraced, per end-to-end metric) and the gap between
 * summed layer busy time and cpu_s_per_mp. Spans go to --trace-out.
 *
 * Human-readable lines start with '#'. The last line of standard output
 * is one JSON object: {"correct", "attempted", "failed", "metrics"}.
 * Errors go to standard error with a nonzero exit and no result line.
 */
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/simd.h"
#include "workload.h"

namespace ringbench {
namespace {

struct MetricSpec
{
    const char* name;
    const char* unit;
};

/** Reported with --trace 0, in this order. */
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},           {"mp_per_s", "MP/s"}, {"p50_ms", "ms"},
    {"tail_ms", "ms"},          {"cpu_s_per_mp", "s/MP"},
    {"peak_rss_mb", "MB"},
};

/** Reported with --trace 1, in this order. */
constexpr MetricSpec kPerLayer[] = {
    {"stream.push_ms", "ms"},
    {"stream.skip_rate", "ratio"},
    {"stream.overcompute", "ratio"},
    {"stream.extract_ms_per_frame", "ms"},
    {"stream.compare_ms_per_frame", "ms"},
    {"stream.paste_ms_per_frame", "ms"},
    {"serve.submit_us", "us"},
    {"serve.wait_ms", "ms"},
    {"serve.mean_batch", "count"},
    {"serve.batches_per_s", "1/s"},
    {"serve.plan_hit_rate", "ratio"},
    {"serve.plan_rebinds", "count"},
    {"serve.plan_compiles", "count"},
    {"serve.failed", "count"},
    {"serve.retries", "count"},
    {"nn.batch_ms", "ms"},
    {"nn.gmac_per_s", "GMAC/s"},
    {"nn.arena_mb", "MB"},
    {"quant.batch_ms", "ms"},
    {"quant.gmac_per_s", "GMAC/s"},
    {"quant.quantize_ms", "ms"},
    {"quant.scalar_convs", "count"},
    {"plan.compile_ms", "ms"},
    {"quant.calibrate_s", "s"},
    {"sim.nj_per_px", "nJ/px"},
    {"sim.cycles_per_frame", "cycles"},
    {"bench.cpu_s_per_mp", "s/MP"},
    {"trace.layer_cpu_s_per_mp", "s/MP"},
    {"trace.gap_cpu_s_per_mp", "s/MP"},
    {"trace.overhead_setup_s", "s"},
    {"trace.overhead_mp_per_s", "MP/s"},
    {"trace.overhead_p50_ms", "ms"},
    {"trace.overhead_tail_ms", "ms"},
    {"trace.overhead_cpu_s_per_mp", "s/MP"},
    {"trace.overhead_peak_rss_mb", "MB"},
};

[[noreturn]] void
usage(const char* why)
{
    std::fprintf(stderr,
                 "ringbench: %s\nusage: ringbench --workload "
                 "camera_dn|photo_int8|screen_sr --seed N --seconds S "
                 "--trace 0|1 [--trace-out PATH] [--corrupt-digest]\n",
                 why);
    std::exit(2);
}

Options
parse(int argc, char** argv, std::string* trace_out)
{
    Options opt;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc) usage(("missing value for " + a).c_str());
            return argv[++i];
        };
        if (a == "--workload") {
            opt.workload = value();
            have_workload = true;
        } else if (a == "--seed") {
            opt.seed = std::strtoull(value().c_str(), nullptr, 10);
        } else if (a == "--seconds") {
            opt.seconds = std::atof(value().c_str());
        } else if (a == "--trace") {
            opt.trace = value() != "0";
        } else if (a == "--trace-out") {
            *trace_out = value();
        } else if (a == "--corrupt-digest") {
            opt.corrupt_digest = true;
        } else {
            usage(("unknown argument " + a).c_str());
        }
    }
    if (!have_workload) usage("--workload is required");
    if (!(opt.seconds > 0.0 && opt.seconds <= 120.0)) {
        usage("--seconds must be in (0, 120]");
    }
    return opt;
}

std::string
cpu_model()
{
    std::ifstream f("/proc/cpuinfo");
    std::string line;
    while (std::getline(f, line)) {
        if (line.rfind("model name", 0) == 0) {
            const size_t colon = line.find(':');
            if (colon != std::string::npos) {
                return line.substr(line.find_first_not_of(' ', colon + 1));
            }
        }
    }
    return "unknown";
}

std::unique_ptr<Workload>
make_workload(const Options& opt)
{
    if (opt.workload == "camera_dn") return make_camera_dn(opt);
    if (opt.workload == "photo_int8") return make_photo_int8(opt);
    if (opt.workload == "screen_sr") return make_screen_sr(opt);
    usage(("unknown workload " + opt.workload).c_str());
}

/** Samples strictly above `v` (how far the tail percentile reaches). */
size_t
count_above(const std::vector<double>& xs, double v)
{
    return static_cast<size_t>(
        std::count_if(xs.begin(), xs.end(), [v](double x) { return x > v; }));
}

void
print_metrics(const char* title, const Metrics& m)
{
    std::printf("# %s\n", title);
    for (const Metric& x : m.all()) {
        std::printf("#   %-30s %14.6g %s\n", x.name.c_str(), x.value,
                    x.unit.c_str());
    }
}

/** The result object; false when a listed metric is missing. */
template <size_t N>
bool
result_json(const MetricSpec (&specs)[N], const Metrics& m,
            uint64_t attempted, uint64_t failed, std::string* out)
{
    std::string s = "{\"correct\": ";
    s += failed == 0 ? "true" : "false";
    s += ", \"attempted\": " + std::to_string(attempted);
    s += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
    for (size_t i = 0; i < N; ++i) {
        const Metric* x = m.find(specs[i].name);
        if (x == nullptr) {
            std::fprintf(stderr, "ringbench: metric %s was not measured\n",
                         specs[i].name);
            return false;
        }
        s += (i ? ", " : "") + json_string(x->name) + ": {\"value\": " +
             json_number(x->value) + ", \"unit\": " + json_string(x->unit) +
             "}";
    }
    *out = s + "}}";
    return true;
}

int
run(int argc, char** argv)
{
    std::string trace_out;
    Options opt = parse(argc, argv, &trace_out);
    const int nproc = static_cast<int>(std::thread::hardware_concurrency());
    opt.threads = std::clamp(nproc, 1, 4);
    // Before anything touches the library's thread pool.
    setenv("RINGCNN_THREADS", std::to_string(opt.threads).c_str(), 1);

    std::unique_ptr<Workload> wl = make_workload(opt);
    const auto p0 = Clock::now();
    wl->prepare();
    const double prepare_s = secs(p0, Clock::now());
    const bool rss_reset = reset_peak_rss();

    Tracer off(false);
    const Pass base = wl->measure(off);
    Metrics e2e;
    end_to_end_metrics(base, wl->tail_pct(), &e2e);
    uint64_t attempted = base.attempted, failed = base.failed;

    Metrics layers;
    if (opt.trace) {
        wl->release();
        reset_peak_rss();
        Tracer tr(true);
        const Pass traced = wl->measure(tr);
        Metrics e2e_traced;
        end_to_end_metrics(traced, wl->tail_pct(), &e2e_traced);
        for (const Metric& u : e2e.all()) {
            layers.set("trace.overhead_" + u.name,
                       e2e_traced.find(u.name)->value - u.value, u.unit);
        }
        attempted += traced.attempted;
        failed += traced.failed;
        wl->direct(traced, tr, &layers, &attempted, &failed);
        layers.set("trace.gap_cpu_s_per_mp",
                   e2e_traced.find("cpu_s_per_mp")->value -
                       layers.find("trace.layer_cpu_s_per_mp")->value,
                   "s/MP");
        if (!trace_out.empty() && !tr.write(trace_out)) {
            std::fprintf(stderr, "ringbench: cannot write %s\n",
                         trace_out.c_str());
        }
    }
    wl->release();

    // Self-description, then the metrics, then the result line.
    const std::vector<double> lat = base.latencies_ms();
    const double tail = percentile(lat, wl->tail_pct());
    std::string run = "{\"workload\": " + json_string(wl->name()) +
                      ", \"seed\": " + std::to_string(opt.seed) +
                      ", \"seconds\": " + json_number(opt.seconds) +
                      ", \"trace\": " + (opt.trace ? "1" : "0") +
                      ", \"nproc\": " + std::to_string(nproc) +
                      ", \"cpu_model\": " + json_string(cpu_model()) +
                      ", \"isa\": " + json_string(ringcnn::simd::active_isa()) +
                      ", \"RINGCNN_THREADS\": " + std::to_string(opt.threads);
    for (const auto& [k, v] : wl->settings()) {
        run += ", " + json_string(k) + ": " + v;
    }
    run += ", \"samples\": " + std::to_string(lat.size()) +
           ", \"tail_pct\": " + json_number(wl->tail_pct()) +
           ", \"tail_beyond\": " +
           std::to_string(count_above(lat, tail)) +
           ", \"latency_pcts_ms\": {";
    const std::pair<const char*, double> pcts[] = {
        {"p50", 50.0}, {"p90", 90.0},   {"p95", 95.0},
        {"p99", 99.0}, {"p99.5", 99.5}, {"p99.9", 99.9}};
    for (size_t i = 0; i < std::size(pcts); ++i) {
        run += (i ? ", " : "") + json_string(pcts[i].first) + ": " +
               json_number(percentile(lat, pcts[i].second));
    }
    run += "}, \"elapsed_s\": " + json_number(base.elapsed_s()) +
           ", \"setup_reps_s\": [";
    for (size_t i = 0; i < base.setup_s.size(); ++i) {
        run += (i ? ", " : "") + json_number(base.setup_s[i]);
    }
    run += "], \"prepare_s\": " + json_number(prepare_s) +
           ", \"peak_rss_reset\": " + (rss_reset ? "true" : "false") +
           ", \"attempted\": " + std::to_string(attempted) +
           ", \"failed\": " + std::to_string(failed) + "}";
    std::printf("# run: %s\n", run.c_str());
    print_metrics("end to end (untraced)", e2e);

    std::string result;
    bool ok = false;
    if (opt.trace) {
        print_metrics("per layer (traced run + direct calls)", layers);
        ok = result_json(kPerLayer, layers, attempted, failed, &result);
    } else {
        ok = result_json(kEndToEnd, e2e, attempted, failed, &result);
    }
    if (!ok) return 3;
    std::printf("%s\n", result.c_str());
    std::fflush(stdout);
    return 0;
}

}  // namespace
}  // namespace ringbench

int
main(int argc, char** argv)
{
    try {
        return ringbench::run(argc, argv);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "ringbench: %s\n", e.what());
        return 1;
    }
}
