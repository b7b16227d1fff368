#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <malloc.h>

namespace ringbench {

double
process_cpu_s()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto tv = [](const timeval& t) {
        return static_cast<double>(t.tv_sec) +
               static_cast<double>(t.tv_usec) * 1e-6;
    };
    return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double
peak_rss_mb()
{
    std::ifstream f("/proc/self/status");
    std::string line;
    while (std::getline(f, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            return std::atof(line.c_str() + 6) / 1024.0;  // kB -> MB
        }
    }
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

bool
reset_peak_rss()
{
    malloc_trim(0);
    FILE* f = std::fopen("/proc/self/clear_refs", "w");
    if (f == nullptr) return false;
    const bool wrote = std::fputs("5", f) >= 0;
    return std::fclose(f) == 0 && wrote;
}

namespace {

constexpr uint64_t kP1 = 0x9E3779B185EBCA87ULL;
constexpr uint64_t kP2 = 0xC2B2AE3D27D4EB4FULL;

inline uint64_t
rotl(uint64_t x, int r)
{
    return (x << r) | (x >> (64 - r));
}

inline uint64_t
round64(uint64_t acc, uint64_t in)
{
    return rotl(acc + in * kP2, 31) * kP1;
}

}  // namespace

uint64_t
digest(const ringcnn::Tensor& t)
{
    // Four independent multiply-rotate lanes over 8-byte words keep the
    // digest near memory speed on frame-sized outputs.
    const auto* bytes = reinterpret_cast<const unsigned char*>(t.data());
    const size_t n = static_cast<size_t>(t.numel()) * sizeof(float);
    uint64_t lane[4] = {kP1, kP2, kP1 ^ kP2, ~kP1};
    size_t i = 0;
    for (; i + 32 <= n; i += 32) {
        for (int k = 0; k < 4; ++k) {
            uint64_t w;
            std::memcpy(&w, bytes + i + 8 * k, 8);
            lane[k] = round64(lane[k], w);
        }
    }
    uint64_t h = rotl(lane[0], 1) + rotl(lane[1], 7) + rotl(lane[2], 12) +
                 rotl(lane[3], 18);
    for (; i < n; ++i) h = round64(h, bytes[i]);
    for (int d : t.shape()) h = round64(h, static_cast<uint64_t>(d));
    h ^= h >> 33;
    h *= kP2;
    h ^= h >> 29;
    return h;
}

double
percentile(std::vector<double> v, double q)
{
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const double rank = std::ceil(q / 100.0 * static_cast<double>(v.size()));
    const size_t idx = static_cast<size_t>(std::max(1.0, rank)) - 1;
    return v[std::min(idx, v.size() - 1)];
}

std::vector<double>
Tracer::durations_ms(const std::string& name) const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<double> out;
    for (const Span& s : spans_) {
        if (name == s.name) out.push_back((s.end_s - s.start_s) * 1e3);
    }
    return out;
}

bool
Tracer::write(const std::string& path) const
{
    std::lock_guard<std::mutex> lock(mu_);
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "name\tparent\titem\tstart_s\tend_s\n");
    for (const Span& s : spans_) {
        std::fprintf(f, "%s\t%s\t%lld\t%.9f\t%.9f\n", s.name, s.parent,
                     static_cast<long long>(s.item), s.start_s, s.end_s);
    }
    return std::fclose(f) == 0;
}

void
Metrics::set(const std::string& name, double value, const std::string& unit)
{
    for (Metric& m : items_) {
        if (m.name == name) {
            m.value = value;
            m.unit = unit;
            return;
        }
    }
    items_.push_back({name, value, unit});
}

const Metric*
Metrics::find(const std::string& name) const
{
    for (const Metric& m : items_) {
        if (m.name == name) return &m;
    }
    return nullptr;
}

std::string
json_number(double v)
{
    if (!std::isfinite(v)) return "null";
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
json_string(const std::string& s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

}  // namespace ringbench
