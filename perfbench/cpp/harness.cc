#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>

#include "tensor/tensor_ops.h"

namespace perfbench {

namespace {

volatile float g_sink = 0;

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

// A fixed mix of the two kinds of work the program does: a dense float
// loop (kernels) and allocation-heavy ordered-map/string churn (the
// interpreter and executors' bookkeeping). How closely a workload
// follows its drift is the workload's alpha; see kCalibReferenceMs.
double CalibrateOnceMs() {
  static std::vector<float> a(64 * 64, 1.01f);
  static std::vector<float> b(64 * 64, 0.99f);
  static std::vector<float> c(64 * 64, 0.0f);
  const Clock::time_point start = Clock::now();
  for (int i = 0; i < 64; ++i) {
    for (int k = 0; k < 64; ++k) {
      const float av = a[static_cast<size_t>(i * 64 + k)];
      for (int j = 0; j < 64; ++j) {
        c[static_cast<size_t>(i * 64 + j)] +=
            av * b[static_cast<size_t>(k * 64 + j)];
      }
    }
  }
  std::map<std::string, int> m;
  for (int i = 0; i < 300; ++i) m[std::to_string(i * 7919 % 1000)] += i;
  g_sink = c[5] + static_cast<float>(m.size());
  std::fill(c.begin(), c.end(), 0.0f);
  return MsSince(start);
}

double CalibrationBurstMs() {
  std::vector<double> runs;
  runs.reserve(16);
  for (int i = 0; i < 16; ++i) runs.push_back(CalibrateOnceMs());
  return Median(std::move(runs));
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = p * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double sum = 0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

bool BitEqual(const ag::Tensor& a, const ag::Tensor& b) {
  if (!(a.shape() == b.shape()) || a.dtype() != b.dtype()) return false;
  const auto n = static_cast<size_t>(a.num_elements());
  return n == 0 || std::memcmp(a.data(), b.data(), n * sizeof(float)) == 0;
}

bool Close(const ag::Tensor& a, const ag::Tensor& b, float atol) {
  return a.shape() == b.shape() && ag::AllClose(a, b, atol);
}

// VmHWM, not getrusage's ru_maxrss: Linux carries ru_maxrss across
// execve, so it would report the launching process's peak when that is
// larger.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;  // kB -> MB
    }
  }
  return 0;
}

void RunRounds(double seconds, double alpha, Report& report,
               const std::function<void(double)>& round) {
  std::vector<double> calib;
  const Clock::time_point start = Clock::now();
  do {
    const double burst = CalibrationBurstMs();
    calib.push_back(burst);
    round(std::pow(kCalibReferenceMs / burst, alpha));
  } while (MsSince(start) < seconds * 1000.0);
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "calibration loop raw ms: rounds=%zu p10=%.4f p50=%.4f "
                "p90=%.4f",
                calib.size(), Percentile(calib, 0.1), Percentile(calib, 0.5),
                Percentile(calib, 0.9));
  report.Note(buf);
}

void Report::Set(const std::string& name, double value,
                 const std::string& unit) {
  for (auto& [n, m] : metrics_) {
    if (n == name) {
      m = Metric{value, unit};
      return;
    }
  }
  metrics_.emplace_back(name, Metric{value, unit});
}

void Report::NotOnPath(
    const std::vector<std::pair<std::string, std::string>>& names_and_units) {
  for (const auto& [name, unit] : names_and_units) Set(name, 0, unit);
}

void Report::Fail(const std::string& what) {
  ++attempted_;
  ++failed_;
  if (failed_ <= 5) notes_.push_back("FAILED: " + what);
}

void Report::Print() const {
  for (const std::string& line : notes_) std::cout << "# " << line << "\n";
  std::ostringstream os;
  os << "{\"correct\": "
     << (attempted_ > 0 && correct_ == attempted_ ? "true" : "false")
     << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
     << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics_) {
    if (!first) os << ", ";
    first = false;
    os << JsonString(name) << ": {\"value\": " << JsonNumber(m.value)
       << ", \"unit\": " << JsonString(m.unit) << "}";
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

void NoteSamples(Report& report, const std::string& what,
                 const Samples& samples) {
  const std::vector<double>& raw = samples.Raw();
  const std::vector<double>& ref = samples.Reference();
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "%s: n=%zu raw p50=%.4f p90=%.4f | reference p50=%.4f "
                "p90=%.4f",
                what.c_str(), samples.size(), Percentile(raw, 0.5),
                Percentile(raw, 0.9), Percentile(ref, 0.5),
                Percentile(ref, 0.9));
  report.Note(buf);
}

int64_t Spans::Begin(const std::string& name, const std::string& layer,
                     int64_t call) {
  if (!enabled_) return 0;
  Span s;
  s.name = name;
  s.layer = layer;
  s.id = static_cast<int64_t>(spans_.size()) + 1;
  s.parent = open_.empty() ? 0 : open_.back();
  s.call = call != 0 || open_.empty()
               ? call
               : spans_[static_cast<size_t>(open_.back() - 1)].call;
  s.start_ms = std::chrono::duration<double, std::milli>(Clock::now() -
                                                         origin_)
                   .count();
  spans_.push_back(std::move(s));
  open_.push_back(spans_.back().id);
  return spans_.back().id;
}

void Spans::End(int64_t id) {
  if (!enabled_ || id == 0) return;
  spans_[static_cast<size_t>(id - 1)].end_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - origin_)
          .count();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

void Spans::Add(const std::string& name, const std::string& layer,
                Clock::time_point start, Clock::time_point end,
                int64_t call) {
  if (!enabled_) return;
  Span s;
  s.name = name;
  s.layer = layer;
  s.id = static_cast<int64_t>(spans_.size()) + 1;
  s.parent = open_.empty() ? 0 : open_.back();
  s.call = call;
  s.start_ms =
      std::chrono::duration<double, std::milli>(start - origin_).count();
  s.end_ms = std::chrono::duration<double, std::milli>(end - origin_).count();
  spans_.push_back(std::move(s));
}

bool Spans::Write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"traceEvents\": [\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"name\": " << JsonString(s.name)
        << ", \"cat\": " << JsonString(s.layer)
        << ", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
        << JsonNumber(s.start_ms * 1000.0)
        << ", \"dur\": " << JsonNumber((s.end_ms - s.start_ms) * 1000.0)
        << ", \"args\": {\"id\": " << s.id << ", \"parent\": " << s.parent
        << ", \"call\": " << s.call << "}}"
        << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

std::string Context::OutPath(const std::string& suffix) const {
  return args.out_dir + "/" + args.workload + "-" +
         std::to_string(args.seed) + suffix;
}

}  // namespace perfbench
