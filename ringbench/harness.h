/**
 * @file
 * Measurement plumbing shared by the ringbench workloads: clocks,
 * process CPU and peak-RSS probes, 64-bit output digests, order
 * statistics, the span recorder used by the traced mode, and the named
 * metric set a run reports.
 *
 * Nothing here touches the library under test; it only observes it from
 * the outside, around the calls the workloads make.
 */
#ifndef RINGBENCH_HARNESS_H
#define RINGBENCH_HARNESS_H

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "tensor/tensor.h"

namespace ringbench {

using Clock = std::chrono::steady_clock;

/** Seconds from `t0` to `t1`. */
inline double
secs(Clock::time_point t0, Clock::time_point t1)
{
    return std::chrono::duration<double>(t1 - t0).count();
}

/** Milliseconds from `t0` to `t1`. */
inline double
msecs(Clock::time_point t0, Clock::time_point t1)
{
    return secs(t0, t1) * 1e3;
}

/** Process CPU time, user + system, all threads (seconds). */
double process_cpu_s();

/** Peak resident set since the last reset_peak_rss() (MB, 2^20 B). */
double peak_rss_mb();

/**
 * Returns freed heap pages to the OS and lowers the kernel's peak-RSS
 * mark to the current RSS, so peak_rss_mb() reports only what follows.
 * False when the kernel refuses the reset (the mark then also covers
 * everything before).
 */
bool reset_peak_rss();

/** 64-bit digest of a tensor's shape and float bits. Equal digests are
 *  taken as bit-identical outputs (references are kept only as these). */
uint64_t digest(const ringcnn::Tensor& t);

/** Nearest-rank percentile (q in [0, 100]) of `v`; 0 for empty input. */
double percentile(std::vector<double> v, double q);

/** Median of `v`; 0 for empty input. */
inline double
median(std::vector<double> v)
{
    return percentile(std::move(v), 50.0);
}

/**
 * Span recorder for the traced mode. A span is one call the benchmark
 * made into a layer: its name, start and end, the name of the span
 * that caused it, and the frame or request id both share. Spans stay in
 * memory and are written out once, at exit. A disabled recorder costs
 * one branch per call site.
 */
class Tracer
{
  public:
    struct Span
    {
        const char* name;
        const char* parent;  ///< enclosing span's name ("" for roots)
        int64_t item;        ///< frame / request / set-up repetition id
        double start_s;      ///< seconds since the tracer's epoch
        double end_s;
    };

    explicit Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now())
    {
        if (enabled_) spans_.reserve(1 << 14);
    }

    /** Records a finished span; no-op when disabled. Thread-safe. */
    void record(const char* name, const char* parent, int64_t item,
                Clock::time_point t0, Clock::time_point t1)
    {
        if (!enabled_) return;
        const Span s{name, parent, item, secs(epoch_, t0), secs(epoch_, t1)};
        std::lock_guard<std::mutex> lock(mu_);
        spans_.push_back(s);
    }

    /** Durations (ms) of every span named `name`. */
    std::vector<double> durations_ms(const std::string& name) const;

    /** Writes every span as tab-separated text; false on I/O failure. */
    bool write(const std::string& path) const;

  private:
    bool enabled_;
    Clock::time_point epoch_;
    mutable std::mutex mu_;
    std::vector<Span> spans_;  ///< guarded by mu_
};

/** Times the enclosing scope into a tracer span. */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer& tr, const char* name, const char* parent,
               int64_t item)
        : tr_(tr), name_(name), parent_(parent), item_(item),
          t0_(Clock::now())
    {
    }
    ~ScopedSpan() { tr_.record(name_, parent_, item_, t0_, Clock::now()); }
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

  private:
    Tracer& tr_;
    const char* name_;
    const char* parent_;
    int64_t item_;
    Clock::time_point t0_;
};

/** One named metric with its unit. */
struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/** Ordered metric set; set() replaces a metric of the same name. */
class Metrics
{
  public:
    void set(const std::string& name, double value, const std::string& unit);
    const Metric* find(const std::string& name) const;
    const std::vector<Metric>& all() const { return items_; }

  private:
    std::vector<Metric> items_;
};

/** Formats a double for JSON with every significant digit. */
std::string json_number(double v);

/** Quotes and escapes a string for JSON. */
std::string json_string(const std::string& s);

}  // namespace ringbench

#endif  // RINGBENCH_HARNESS_H
