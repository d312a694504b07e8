// Entry point of jbench, the benchmark program.
//
//   jbench --workload <serve-local|monitor-live|monitor-replay>
//          --seed <n> --seconds <s> --trace <0|1>
//   jbench repro --claim <tm kind> --intervening <n>
//   jbench serve-explore [--cross-shard-pct P] [--zipf-theta T]
//                        [--seconds S] [--seed N]
//
// A benchmark run prints one JSON object as its last stdout line:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}};
// diagnostics go to stderr.  See README.md.
#include <malloc.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

#include "common.hpp"
#include "workloads.hpp"

namespace jbench {

std::uint64_t heapBytes() {
  const struct mallinfo2 mi = mallinfo2();
  return static_cast<std::uint64_t>(mi.uordblks) +
         static_cast<std::uint64_t>(mi.hblkhd);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

void LayerValues::set(const char* name, double value) {
  for (std::size_t i = 0; i < std::size(kLayerMetrics); ++i) {
    if (std::strcmp(kLayerMetrics[i].name, name) == 0) {
      values_[i] = value;
      return;
    }
  }
  std::fprintf(stderr, "internal: unknown layer metric %s\n", name);
  std::abort();
}

void LayerValues::emit(RunResult& r) const {
  for (std::size_t i = 0; i < std::size(kLayerMetrics); ++i) {
    r.put(kLayerMetrics[i].name, values_[i], kLayerMetrics[i].unit);
  }
}

SpanTotals Tracer::totals(const char* name) const {
  SpanTotals sum{name, 0, 0, 0};
  for (const auto& lane : lanes_) {
    for (const SpanTotals& t : lane->allTotals()) {
      if (std::strcmp(t.name, name) != 0) continue;
      sum.count += t.count;
      sum.totalNs += t.totalNs;
      sum.selfNs += t.selfNs;
    }
  }
  return sum;
}

std::size_t Tracer::spanCount() const {
  std::size_t n = 0;
  for (const auto& lane : lanes_) {
    for (const SpanTotals& t : lane->allTotals()) n += t.count;
  }
  return n;
}

bool Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"spans\": [";
  bool first = true;
  for (const auto& lane : lanes_) {
    for (const Span& s : lane->spans()) {
      if (s.name == nullptr) continue;  // still open when the run ended
      out << (first ? "\n" : ",\n") << "{\"name\": \"" << s.name
          << "\", \"lane\": " << s.lane << ", \"start_ns\": " << s.start
          << ", \"end_ns\": " << s.end << ", \"parent\": " << s.parent << "}";
      first = false;
    }
  }
  out << "],\n\"totals\": [";
  first = true;
  for (const auto& lane : lanes_) {
    for (const SpanTotals& t : lane->allTotals()) {
      out << (first ? "\n" : ",\n") << "{\"name\": \"" << t.name
          << "\", \"count\": " << t.count << ", \"total_ns\": " << t.totalNs
          << ", \"self_ns\": " << t.selfNs << "}";
      first = false;
    }
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

void writeTrace(const Tracer& tracer, const RunConfig& cfg, RunResult&) {
  std::error_code ec;
  std::filesystem::create_directories(cfg.traceDir, ec);
  const std::string path =
      cfg.traceDir + "/" + cfg.workload + "-seed" + std::to_string(cfg.seed) +
      ".json";
  if (ec || !tracer.write(path)) {
    std::fprintf(stderr, "could not write trace %s\n", path.c_str());
    return;
  }
  std::fprintf(stderr, "trace: %zu spans recorded, kept ones in %s\n",
               tracer.spanCount(), path.c_str());
}

}  // namespace jbench

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: jbench --workload <serve-local|monitor-live|"
               "monitor-replay> --seed <n> --seconds <s> --trace <0|1>\n"
               "       jbench repro --claim <tm kind> --intervening <n>\n"
               "       jbench serve-explore [--cross-shard-pct P] "
               "[--zipf-theta T] [--seconds S] [--seed N]\n");
  return 2;
}

void printResult(const jbench::RunResult& r) {
  for (const std::string& e : r.errors) {
    std::fprintf(stderr, "oracle: %s\n", e.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              r.correct ? "true" : "false", r.attempted, r.failed);
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const jbench::Metric& m = r.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::string(argv[1]) == "repro") {
    std::string claim = "versioned-write";
    std::size_t intervening = 7;
    for (int i = 2; i + 1 < argc; i += 2) {
      const std::string k = argv[i];
      if (k == "--claim") {
        claim = argv[i + 1];
      } else if (k == "--intervening") {
        intervening = std::strtoull(argv[i + 1], nullptr, 10);
      } else {
        return usage();
      }
    }
    return jbench::runFoldOrderRepro(claim, intervening) < 0 ? 2 : 0;
  }

  if (argc >= 2 && std::string(argv[1]) == "serve-explore") {
    jbench::ExploreOptions o;
    for (int i = 2; i + 1 < argc; i += 2) {
      const std::string k = argv[i];
      const char* v = argv[i + 1];
      if (k == "--cross-shard-pct") {
        o.crossShardPct = std::strtod(v, nullptr);
      } else if (k == "--zipf-theta") {
        o.zipfTheta = std::strtod(v, nullptr);
      } else if (k == "--seconds") {
        o.seconds = std::strtod(v, nullptr);
      } else if (k == "--seed") {
        o.seed = std::strtoull(v, nullptr, 10);
      } else {
        return usage();
      }
    }
    if (o.crossShardPct < 0.0 || o.crossShardPct > 100.0 ||
        o.zipfTheta < 0.0 || o.zipfTheta >= 1.0) {
      return usage();
    }
    return jbench::runServeExplore(o);
  }

  jbench::RunConfig cfg;
  bool haveWorkload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") {
      cfg.workload = v;
      haveWorkload = true;
    } else if (k == "--seed") {
      cfg.seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      cfg.seconds = std::strtod(v, nullptr);
    } else if (k == "--trace") {
      cfg.trace = std::string(v) == "1";
    } else if (k == "--trace-dir") {
      cfg.traceDir = v;
    } else {
      return usage();
    }
  }
  if (!haveWorkload || argc % 2 == 0 || !(cfg.seconds > 0.0)) return usage();

  jbench::RunResult r;
  if (cfg.workload == "serve-local") {
    r = jbench::runServeLocal(cfg);
  } else if (cfg.workload == "monitor-live") {
    r = jbench::runMonitorLive(cfg);
  } else if (cfg.workload == "monitor-replay") {
    r = jbench::runMonitorReplay(cfg);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", cfg.workload.c_str());
    return 2;
  }
  printResult(r);
  return 0;
}
