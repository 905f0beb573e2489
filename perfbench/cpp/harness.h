// Measurement harness shared by every perfbench workload: the clock, the
// CPU-speed calibration that makes timings comparable across runs on a
// drifting host, percentile helpers, the result report, and the span
// recorder used by traced runs.
//
// Everything here is the benchmark's own code: it calls into the
// program only through public functions and never changes it.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "tensor/tensor.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

// ---- CPU-speed calibration ----
//
// The host's effective CPU speed drifts by up to ~1.7x within a minute
// (other tenants share the physical cores), so raw wall times of one
// workload differ by 20-40% between runs minutes apart. Each measuring
// round therefore starts with a burst of a fixed calibration loop,
// independent of the program under test, and every time measured in the
// round is scaled by (kCalibReferenceMs / burst median)^alpha. alpha is
// the workload's measured sensitivity to the drift (log of its time
// against log of the calibration time across runs): the slowdown does
// not hit every instruction mix alike, so overhead-bound lbfgs moves
// more than the loop does and kernel-bound beam_search less. The result
// reads as "milliseconds when the calibration loop takes
// kCalibReferenceMs"; a change to the program moves it 1:1.
inline constexpr double kCalibReferenceMs = 0.1;

// One run of the calibration loop; returns its wall time in ms.
double CalibrateOnceMs();

// Median of a burst of calibration loops (raw ms).
double CalibrationBurstMs();

// ---- statistics ----

// Linear-interpolated percentile, p in [0, 1]. Sorts a copy.
[[nodiscard]] double Percentile(std::vector<double> values, double p);
[[nodiscard]] double Median(std::vector<double> values);
[[nodiscard]] double Mean(const std::vector<double>& values);

// Per-call time samples, each kept raw and with its round's scale.
class Samples {
 public:
  void Add(double raw_ms, double scale) {
    raw_.push_back(raw_ms);
    scaled_.push_back(raw_ms * scale);
  }
  [[nodiscard]] const std::vector<double>& Reference() const {
    return scaled_;
  }
  [[nodiscard]] const std::vector<double>& Raw() const { return raw_; }
  [[nodiscard]] size_t size() const { return raw_.size(); }

 private:
  std::vector<double> raw_;
  std::vector<double> scaled_;
};

// Bit-for-bit tensor equality (shape, dtype and every stored float).
[[nodiscard]] bool BitEqual(const ag::Tensor& a, const ag::Tensor& b);
// Same shape and AllClose(a, b, atol).
[[nodiscard]] bool Close(const ag::Tensor& a, const ag::Tensor& b,
                         float atol);

// Peak resident set size of this process, in MB.
[[nodiscard]] double PeakRssMb();

// ---- rounds ----

// Calls `round(scale)` until `seconds` of wall time have passed (at
// least once). `scale` converts raw ms measured inside the round into
// reference ms for a workload of drift sensitivity `alpha` (see
// kCalibReferenceMs). Notes the raw calibration medians in `report`.
class Report;
void RunRounds(double seconds, double alpha, Report& report,
               const std::function<void(double)>& round);

// ---- report ----

struct Metric {
  double value = 0;
  std::string unit;
};

// What one workload run measured. Metrics keep insertion order.
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  // Per-layer metrics of layers this workload never calls: reported as
  // 0 so every run prints the same metric names.
  void NotOnPath(const std::vector<std::pair<std::string, std::string>>&
                     names_and_units);
  // One human-readable line printed before the result (sample counts,
  // raw timings, op names).
  void Note(const std::string& line) { notes_.push_back(line); }

  // Each checked output: ok = matched its reference.
  void Check(bool ok) {
    ++attempted_;
    if (ok) ++correct_;
  }
  // An operation that threw or was refused; counts as attempted.
  void Fail(const std::string& what);

  [[nodiscard]] int64_t attempted() const { return attempted_; }
  [[nodiscard]] int64_t correct() const { return correct_; }

  // Prints the notes, then the one-line JSON result.
  void Print() const;

 private:
  std::vector<std::pair<std::string, Metric>> metrics_;
  std::vector<std::string> notes_;
  int64_t attempted_ = 0;
  int64_t correct_ = 0;
  int64_t failed_ = 0;
};

// Notes the sample count and p50/p90, raw and in reference ms.
void NoteSamples(Report& report, const std::string& what,
                 const Samples& samples);

// ---- spans (traced runs only) ----
//
// A span is recorded around each call the benchmark makes into a layer:
// name, layer, start, end, the span that caused it, and the call id
// shared by all spans of one measured call. Kept in memory and written
// as a Chrome trace when the run ends.
class Spans {
 public:
  struct Span {
    std::string name;
    std::string layer;
    int64_t id = 0;
    int64_t parent = 0;  // 0 = root
    int64_t call = 0;    // 0 = not part of a measured call
    double start_ms = 0;
    double end_ms = 0;
  };

  explicit Spans(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  // Opens a span under the innermost open one; returns its id (0 when
  // disabled).
  int64_t Begin(const std::string& name, const std::string& layer,
                int64_t call = 0);
  void End(int64_t id);
  // Records an interval measured elsewhere (e.g. a request that
  // completed on a server thread) under the innermost open span.
  void Add(const std::string& name, const std::string& layer,
           Clock::time_point start, Clock::time_point end, int64_t call);
  [[nodiscard]] bool enabled() const { return enabled_; }
  [[nodiscard]] size_t size() const { return spans_.size(); }

  // Writes Chrome-trace JSON; returns false when the file can't be
  // written.
  bool Write(const std::string& path) const;

 private:
  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int64_t> open_;
};

class SpanScope {
 public:
  SpanScope(Spans& spans, const std::string& name, const std::string& layer,
            int64_t call = 0)
      : spans_(spans), id_(spans.Begin(name, layer, call)) {}
  ~SpanScope() { spans_.End(id_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Spans& spans_;
  int64_t id_;
};

// ---- run context ----

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".bench_out";
};

struct Context {
  Args args;
  Report report;
  Spans spans;

  explicit Context(const Args& a) : args(a), spans(a.trace) {}
  // Per-run file path under out_dir, e.g. "<out>/serve_rnn-7.agc".
  [[nodiscard]] std::string OutPath(const std::string& suffix) const;
};

}  // namespace perfbench
