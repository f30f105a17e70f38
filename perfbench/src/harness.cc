#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <unordered_map>

namespace perfbench {

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

void Fingerprint::Add(const void* data, size_t n) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h_ ^= p[i];
    h_ *= 1099511628211ull;
  }
}

void Fingerprint::Add(const std::vector<int>& v) {
  Add(static_cast<long long>(v.size()));
  if (!v.empty()) Add(v.data(), v.size() * sizeof(int));
}

std::string Fingerprint::Hex() const {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, h_);
  return buf;
}

Tracer::Scope::Scope(Tracer* tracer, const char* name) : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  index_ = static_cast<int>(tracer_->spans_.size());
  const int parent = tracer_->open_.empty() ? -1 : tracer_->open_.back();
  tracer_->spans_.push_back(
      {name, parent, tracer_->op_,
       std::chrono::duration_cast<std::chrono::nanoseconds>(
           Clock::now() - tracer_->epoch_)
           .count(),
       0});
  tracer_->open_.push_back(index_);
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  tracer_->spans_[static_cast<size_t>(index_)].end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           tracer_->epoch_)
          .count();
  tracer_->open_.pop_back();
}

std::vector<std::pair<std::string, double>> Tracer::SelfMsByModule() const {
  // Children of one span run one after another, so the time they cover is
  // the sum of their durations.
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::vector<std::pair<std::string, double>> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const std::string name = spans_[i].name;
    const std::string module = name.substr(0, name.find('.'));
    const double self_ms =
        static_cast<double>(spans_[i].end_ns - spans_[i].start_ns -
                            child_ns[i]) /
        1e6;
    auto it = std::find_if(out.begin(), out.end(),
                           [&](const auto& p) { return p.first == module; });
    if (it == out.end()) {
      out.emplace_back(module, self_ms);
    } else {
      it->second += self_ms;
    }
  }
  return out;
}

bool Tracer::Write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "index\tparent\top\tname\tstart_ns\tend_ns\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << i << '\t' << s.parent << '\t' << s.op << '\t' << s.name << '\t'
        << s.start_ns << '\t' << s.end_ns << '\n';
  }
  return static_cast<bool>(out);
}

double ReferenceKernelMs() {
  constexpr size_t kSumN = size_t{1} << 12;    // 32 KB, stays in L1
  constexpr int kSumReps = 2048;
  constexpr size_t kTableN = size_t{1} << 18;  // 2 MB gathered at random
  constexpr int kGathers = 1 << 17;
  constexpr int kHashOps = 1 << 15;
  uint64_t x = 88172645463325252ull;
  auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  // Allocated once, outside the timed region.
  static std::vector<double> values, table;
  static std::unordered_map<uint64_t, double> map;
  if (values.empty()) {
    values.resize(kSumN);
    table.resize(kTableN);
    for (double& e : values) e = static_cast<double>(next() >> 11) * 0x1.0p-53;
    for (double& e : table) e = static_cast<double>(next() >> 11) * 0x1.0p-53;
    map.reserve(kHashOps);
  }
  auto kernel = [&] {
    // Floating-point sums over four independent chains.
    double lanes[4] = {0.0, 0.0, 0.0, 0.0};
    for (int rep = 0; rep < kSumReps; ++rep) {
      for (size_t i = 0; i + 3 < kSumN; i += 4) {
        for (size_t j = 0; j < 4; ++j) lanes[j] += values[i + j] * 1e-9 + 1.0;
      }
    }
    // Hash-map inserts and lookups, as in plan caches and pool keys.
    map.clear();
    for (int i = 0; i < kHashOps; ++i) map[next() & 0xFFFFF] += 1.0;
    double hits = 0.0;
    for (int i = 0; i < kHashOps; ++i) {
      const auto it = map.find(next() & 0xFFFFF);
      if (it != map.end()) hits += it->second;
    }
    // Random gathers over a table that misses L2.
    double acc = 0.0;
    for (int i = 0; i < kGathers; ++i) acc += table[next() & (kTableN - 1)];
    volatile double sink = lanes[0] + lanes[1] + lanes[2] + lanes[3] + hits + acc;
    (void)sink;
  };
  const Clock::time_point start = Clock::now();
  kernel();
  return MsSince(start);
}

std::string ResultJson(bool correct, long long attempted, long long failed,
                       const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char buf[64];
  for (size_t i = 0; i < metrics.size(); ++i) {
    // JSON has no NaN or infinity; a non-finite value is a harness bug and
    // must not masquerade as a measurement.
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : -1;
    std::snprintf(buf, sizeof buf, "%.17g", v);
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

double PeakRssMb() {
  // VmHWM, not getrusage: ru_maxrss survives execve, so a process started
  // by a larger parent (python3 run.py) would report the parent's peak.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

}  // namespace perfbench
