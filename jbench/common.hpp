// Shared plumbing of the benchmark program: run configuration, the result
// record every workload fills, clocks, heap accounting and the in-memory
// span tracer the traced runs use.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

namespace jbench {

using Clock = std::chrono::steady_clock;

inline std::uint64_t nowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

inline double secondsBetween(std::uint64_t t0Ns, std::uint64_t t1Ns) {
  return static_cast<double>(t1Ns - t0Ns) * 1e-9;
}

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory the traced run writes its span file into.
  std::string traceDir = ".bench_build/traces";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run reports: the operation tally, the correctness verdict of
/// the independent oracles, and the metrics by name.
struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Oracle findings, printed to stderr; any entry makes the run incorrect.
  std::vector<std::string> errors;

  void put(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void fail(const std::string& why) {
    correct = false;
    if (errors.size() < 16) errors.push_back(why);
  }
};

/// Bytes of heap currently allocated (all malloc arenas plus mmapped
/// chunks).
std::uint64_t heapBytes();

/// Median of `v` (by value: sorts a copy); 0 for an empty vector.
double median(std::vector<double> v);

// ------------------------------------------------------------ metric names

/// End-to-end metrics every untraced run prints, in this order.
inline constexpr const char* kSetupS = "setup_s";
inline constexpr const char* kHeapMb = "program_heap_mb";
inline constexpr const char* kOpsS = "ops_s";
inline constexpr const char* kP50Us = "p50_us";
inline constexpr const char* kAppOpsS = "app_ops_s";

struct LayerMetricDef {
  const char* name;
  const char* unit;
};

/// Per-layer metrics every traced run prints.  A workload that does not
/// reach a layer reports 0 for it (README.md lists which workload measures
/// which metric).
inline constexpr LayerMetricDef kLayerMetrics[] = {
    {"serve.submit_ns", "ns"},
    {"serve.drain_ns_per_ack", "ns"},
    {"serve.refused_submits", "count"},
    {"serve.epochs", "count"},
    {"serve.cmds_per_epoch", "count"},
    {"serve.shutdown_s", "s"},
    {"serve.monitored_cmds", "count"},
    {"serve.resync_txs", "count"},
    {"tm.tx_ns", "ns"},
    {"tm.nt_ns", "ns"},
    {"tm.aborts", "count"},
    {"monitor.capture_ns", "ns"},
    {"monitor.events_captured", "count"},
    {"monitor.units_dropped", "count"},
    {"monitor.stop_s", "s"},
    {"monitor.peak_pending_units", "count"},
    {"monitor.checker.fast_ns", "ns"},
    {"monitor.checker.cert_ns", "ns"},
    {"monitor.checker.esc_feed_us", "us"},
    {"monitor.checker.finish_us", "us"},
    {"monitor.checker.conviction_us", "us"},
    {"monitor.checker.fast_units", "count"},
    {"monitor.checker.cert_units", "count"},
    {"monitor.checker.esc_units", "count"},
    {"monitor.checker.rechecks", "count"},
    {"monitor.checker.gc_units", "count"},
    {"monitor.checker.resyncs", "count"},
    {"monitor.checker.peak_window_units", "count"},
    {"monitor.checker.violations", "count"},
    {"monitor.certifier.attempts", "count"},
    {"monitor.certifier.us", "us"},
    {"opacity.recheck_us", "us"},
    {"trace.overhead_pct", "%"},
    {"trace.spans", "count"},
};

/// Values of kLayerMetrics, all 0 until set.
class LayerValues {
 public:
  void set(const char* name, double value);
  /// Appends every per-layer metric, in kLayerMetrics order.
  void emit(RunResult& r) const;

 private:
  double values_[sizeof(kLayerMetrics) / sizeof(kLayerMetrics[0])] = {};
};

// ------------------------------------------------------------------ tracing

/// One recorded span: name, start and end (steady-clock ns), and the index
/// of the enclosing span of the same lane (-1 at top level).
struct Span {
  const char* name = nullptr;
  std::uint64_t start = 0;
  std::uint64_t end = 0;
  std::int64_t parent = -1;
  std::uint32_t lane = 0;
};

/// Per-name totals over every span of a lane, kept or not: count, wall
/// time, and self time (wall minus the part covered by child spans).
struct SpanTotals {
  const char* name = nullptr;
  std::uint64_t count = 0;
  std::uint64_t totalNs = 0;
  std::uint64_t selfNs = 0;
};

/// The spans of one thread.  The first `keep` spans are held in memory for
/// the trace file; totals cover all of them.  Single-threaded by contract:
/// each thread records into its own lane.
class TraceLane {
 public:
  TraceLane(std::uint32_t id, std::size_t keep) : id_(id), keep_(keep) {
    spans_.reserve(keep);
    stack_.reserve(16);
  }

  void begin(const char* name) {
    Frame f;
    f.name = name;
    f.start = nowNs();
    if (spans_.size() < keep_) {
      f.index = static_cast<std::int64_t>(spans_.size());
      spans_.push_back(Span{});
    }
    stack_.push_back(f);
  }

  /// Closes the innermost span; `rename` (if set) replaces its name, for
  /// spans attributed by what the call turned out to do.
  void end(const char* rename = nullptr) {
    const std::uint64_t t = nowNs();
    Frame f = stack_.back();
    stack_.pop_back();
    if (rename != nullptr) f.name = rename;
    const std::uint64_t dur = t - f.start;
    SpanTotals& tot = totals(f.name);
    ++tot.count;
    tot.totalNs += dur;
    tot.selfNs += dur > f.childNs ? dur - f.childNs : 0;
    if (!stack_.empty()) stack_.back().childNs += dur;
    if (f.index >= 0) {
      Span& s = spans_[static_cast<std::size_t>(f.index)];
      s.name = f.name;
      s.start = f.start;
      s.end = t;
      s.parent = stack_.empty() ? -1 : stack_.back().index;
      s.lane = id_;
    }
  }

  const std::vector<SpanTotals>& allTotals() const { return totals_; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  struct Frame {
    const char* name = nullptr;
    std::uint64_t start = 0;
    std::uint64_t childNs = 0;
    std::int64_t index = -1;
  };

  SpanTotals& totals(const char* name) {
    for (SpanTotals& t : totals_) {
      if (t.name == name || std::strcmp(t.name, name) == 0) return t;
    }
    totals_.push_back(SpanTotals{name, 0, 0, 0});
    return totals_.back();
  }

  std::uint32_t id_;
  std::size_t keep_;
  std::vector<Span> spans_;
  std::vector<Frame> stack_;
  std::vector<SpanTotals> totals_;
};

/// RAII span; a null lane (untraced run) records nothing and reads no
/// clock.
class ScopedSpan {
 public:
  ScopedSpan(TraceLane* lane, const char* name) : lane_(lane) {
    if (lane_) lane_->begin(name);
  }
  ~ScopedSpan() {
    if (lane_) lane_->end(rename_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void rename(const char* name) { rename_ = name; }

 private:
  TraceLane* lane_;
  const char* rename_ = nullptr;
};

/// The lanes of a traced run.  Lanes are created before the threads that
/// use them start, and read only after those threads are joined.
class Tracer {
 public:
  explicit Tracer(std::size_t keepPerLane = 1 << 16) : keep_(keepPerLane) {}

  TraceLane* newLane() {
    lanes_.push_back(std::make_unique<TraceLane>(
        static_cast<std::uint32_t>(lanes_.size()), keep_));
    return lanes_.back().get();
  }

  /// Totals of one span name summed over every lane.
  SpanTotals totals(const char* name) const;

  /// Mean self time of `name` in ns (0 when no such span was recorded).
  double meanSelfNs(const char* name) const {
    const SpanTotals t = totals(name);
    return t.count == 0 ? 0.0
                        : static_cast<double>(t.selfNs) /
                              static_cast<double>(t.count);
  }

  std::size_t spanCount() const;

  /// Writes the kept spans and the per-name totals as JSON.  Returns false
  /// when the file cannot be written.
  bool write(const std::string& path) const;

 private:
  std::size_t keep_;
  std::vector<std::unique_ptr<TraceLane>> lanes_;
};

/// Writes `tracer` to <traceDir>/<workload>-seed<n>.json; a write failure
/// is reported on stderr (the run's metrics do not depend on the file).
void writeTrace(const Tracer& tracer, const RunConfig& cfg, RunResult& r);

}  // namespace jbench
