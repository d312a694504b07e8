// The benchmark's workloads (one entry point each) and the minimal
// fold-order reproduction of monitor_replay.cpp.
#pragma once

#include <cstdint>
#include <string>

#include "common.hpp"

namespace jbench {

RunResult runServeLocal(const RunConfig& cfg);
RunResult runMonitorLive(const RunConfig& cfg);
RunResult runMonitorReplay(const RunConfig& cfg);

/// Open-loop load with cross-shard kTxnX traffic, outside the benchmark's
/// workloads (its acks fail on seed-dependent inputs): prints kTxnX acks,
/// kFailed acks and the p50 latency of all commands at 500 k cmd/s.
struct ExploreOptions {
  double crossShardPct = 3.0;  // percent of all commands
  double zipfTheta = 0.9;
  double seconds = 10.0;
  std::uint64_t seed = 1;
};
int runServeExplore(const ExploreOptions& o);

/// Feeds the minimal preempted-writer stream (two nested writers of x0,
/// `intervening` other units, then a reader of the writer that closed
/// last) to a StreamChecker under the claim of `tmKind` and prints the
/// verdict.  Returns the number of convictions, or -1 for an unknown kind.
int runFoldOrderRepro(const std::string& tmKind, std::size_t intervening);

}  // namespace jbench
