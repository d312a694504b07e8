// serve-local: one JungleServe (2 shards x 1 executor, tl2-weak, 64 Ki
// keys, 1 % sampled verification) driven by one client thread replaying a
// pre-generated zipf-0.9 get/put/rmw/txn stream.
//
// Phases, each made of whole rounds (one pass over the stream, ended by
// waiting for every ack):
//   * warm-up: one untimed round;
//   * deep window: up to kDeepWindow commands outstanding; ops_s is the
//     median per-round ack rate;
//   * open loop: command i of a round is due at round start + i / rate;
//     p50_us is the median over all commands of ack time minus due time.
//
// Oracle: one client and one executor per shard make every shard serial in
// submission order, so a plain array simulation of the stream predicts
// every ack's value and every key's final value.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "common.hpp"
#include "common/rng.hpp"
#include "common/sync.hpp"
#include "common/zipf.hpp"
#include "serve/service.hpp"
#include "sim/memory_policy.hpp"
#include "tm/runtime.hpp"
#include "workloads.hpp"

namespace jbench {
namespace {

using jungle::ObjectId;
using jungle::Word;
using jungle::serve::CmdKind;
using jungle::serve::CmdStatus;
using jungle::serve::Command;
using jungle::serve::CommandResult;
using jungle::serve::JungleServe;

constexpr std::size_t kKeys = 64 * 1024;
constexpr std::size_t kShards = 2;
constexpr double kZipfTheta = 0.9;
// Mix in percent; the remainder is single-shard kTxn over kTxnKeys keys.
constexpr unsigned kGetPct = 50;
constexpr unsigned kPutPct = 20;
constexpr unsigned kRmwPct = 20;
constexpr std::size_t kTxnKeys = 2;
constexpr std::size_t kRoundCmds = 512 * 1024;
constexpr std::size_t kDeepWindow = 4096;
// Open-loop offered load, commands per second (serve-explore too).  While
// the host was busy, one run of five at 1 M cmd/s had its deep-window rate
// fall to 2.8 M ops/s and its open-loop p50 rise to 467 us; 500 k leaves
// twice the headroom, and on a quiet host gave the same p50 as 1 M.
constexpr double kOpenRate = 5e5;
constexpr std::uint64_t kLatSampleMask = 3;  // 1 in 4 latencies kept
// Share of the run given to the deep-window phase (untraced runs).
constexpr double kDeepShare = 0.65;
// Services per untraced run, and set-ups timed per service (see
// runServeLocal).
constexpr int kInstances = 10;
constexpr int kSetUpsPerInstance = 5;

jungle::serve::ServeOptions serveOptions() {
  jungle::serve::ServeOptions o;
  o.kind = jungle::TmKind::kTl2Weak;
  o.shards = kShards;
  o.executorsPerShard = 1;
  o.clients = 1;
  o.numKeys = kKeys;
  o.queueCapacity = kDeepWindow;
  o.samplePermille = 10;
  return o;
}

/// The command stream of one round.  `xshardPermille` of the commands are
/// cross-shard kTxnX (0 in the benchmark's workload; used by the
/// serve-explore mode, see README.md); at 0 no extra random draws happen,
/// so the stream does not depend on the option's existence.
std::vector<Command> makeStream(std::uint64_t seed, double theta = kZipfTheta,
                                unsigned xshardPermille = 0) {
  jungle::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 11);
  const jungle::Zipfian zipf(kKeys, theta);
  std::vector<Command> cmds(kRoundCmds);
  for (std::size_t i = 0; i < kRoundCmds; ++i) {
    Command& c = cmds[i];
    if (xshardPermille > 0 && rng.below(1000) < xshardPermille) {
      c.kind = CmdKind::kTxnX;
    } else {
      const auto pick = static_cast<unsigned>(rng.below(100));
      c.kind = pick < kGetPct                      ? CmdKind::kGet
               : pick < kGetPct + kPutPct          ? CmdKind::kPut
               : pick < kGetPct + kPutPct + kRmwPct ? CmdKind::kRmw
                                                    : CmdKind::kTxn;
    }
    c.tag = i;
    c.keys[0] = static_cast<ObjectId>(zipf.next(rng));
    c.vals[0] = 1 + rng.below(1 << 20);
    if (c.kind == CmdKind::kTxn || c.kind == CmdKind::kTxnX) {
      c.nKeys = static_cast<std::uint8_t>(kTxnKeys);
      const std::uint64_t shard = c.keys[0] % kShards;
      for (std::size_t k = 1; k < kTxnKeys; ++k) {
        std::uint64_t key = zipf.next(rng);
        if (c.kind == CmdKind::kTxn) {
          // Same shard as keys[0] (the local-transaction constraint),
          // same zipfian popularity.
          key = key - key % kShards + shard;
          if (key >= kKeys) key -= kShards;
        } else if (k == 1) {
          while (key % kShards == shard) key = (key + 1) % kKeys;
        }
        c.keys[k] = static_cast<ObjectId>(key);
        c.vals[k] = 1 + rng.below(1 << 20);
      }
    }
  }
  return cmds;
}

/// The oracle: sequential semantics of one command on a plain array.
Word simulate(std::vector<Word>& st, const Command& c) {
  switch (c.kind) {
    case CmdKind::kGet:
      return st[c.keys[0]];
    case CmdKind::kPut:
      st[c.keys[0]] = c.vals[0];
      return c.vals[0];
    case CmdKind::kRmw: {
      const Word v = st[c.keys[0]];
      st[c.keys[0]] = v + c.vals[0];
      return v;
    }
    case CmdKind::kTxn:
    case CmdKind::kTxnX: {
      Word sum = 0;
      for (std::size_t i = 0; i < c.nKeys; ++i) {
        const Word v = st[c.keys[i]];
        st[c.keys[i]] = v + c.vals[i];
        sum += v;
      }
      return sum;
    }
  }
  return 0;
}

/// The single client: submits rounds, records each ack's value by the
/// command index carried in its tag.
class LoadClient {
 public:
  LoadClient(JungleServe& serve, const std::vector<Command>& cmds)
      : client_(serve.client(0)), cmds_(cmds), got_(cmds.size()) {
    resp_.reserve(2 * kDeepWindow);
  }

  void setLane(TraceLane* lane) { lane_ = lane; }

  /// One deep-window round; returns its wall seconds.  While the window is
  /// full the client backs off between empty polls (common/sync.hpp
  /// Backoff), as the built-in load generator does.  A client that spun on
  /// the response rings instead saw per-round throughput swing between 2
  /// and 7.7 M ops/s within one run on a 4-core host.
  double deepRound() {
    const std::uint64_t t0 = nowNs();
    jungle::Backoff backoff;
    std::size_t next = 0;
    while (next < cmds_.size()) {
      if (client_.outstanding() < kDeepWindow && submit(cmds_[next])) {
        ++next;
        continue;
      }
      if (drain(0) == 0) {
        backoff.pause();
      } else {
        backoff.reset();
      }
    }
    settle(0);
    return secondsBetween(t0, nowNs());
  }

  /// One open-loop round at kOpenRate; appends the latency (ack seen minus
  /// due time, ns) of every fourth command to `lat`.
  void openRound(std::vector<double>& lat) {
    lat_ = &lat;
    const double periodNs = 1e9 / kOpenRate;
    const std::uint64_t t0 = nowNs();
    openT0_ = t0;
    std::size_t next = 0;
    while (next < cmds_.size()) {
      const std::uint64_t now = nowNs();
      while (next < cmds_.size() &&
             t0 + static_cast<std::uint64_t>(static_cast<double>(next) *
                                             periodNs) <=
                 now) {
        if (!submit(cmds_[next])) break;
        const double late =
            static_cast<double>(now - t0) - static_cast<double>(next) * periodNs;
        maxLateNs_ = std::max(maxLateNs_, late);
        ++next;
      }
      drain(periodNs);
    }
    settle(periodNs);
    lat_ = nullptr;
  }

  const std::vector<Word>& values() const { return got_; }
  std::uint64_t refused() const { return refused_; }
  std::uint64_t failedAcks() const { return failedAcks_; }
  std::uint64_t acks() const { return acks_; }
  std::uint64_t acks(CmdKind k) const {
    return acksByKind_[static_cast<std::size_t>(k)];
  }
  std::uint64_t failed(CmdKind k) const {
    return failedByKind_[static_cast<std::size_t>(k)];
  }
  double maxLateUs() const { return maxLateNs_ * 1e-3; }

 private:
  bool submit(const Command& c) {
    ScopedSpan sp(lane_, "serve.submit");
    if (client_.trySubmit(c)) return true;
    ++refused_;
    return false;
  }

  /// Pops every pending ack.  With periodNs > 0 (open loop) also records
  /// each ack's latency against its due time.
  std::size_t drain(double periodNs) {
    resp_.clear();
    {
      ScopedSpan sp(lane_, "serve.drain");
      client_.drainResponses(resp_);
    }
    if (resp_.empty()) return 0;
    const std::uint64_t seen = periodNs > 0.0 ? nowNs() : 0;
    for (const CommandResult& r : resp_) {
      ++acks_;
      if (r.status != CmdStatus::kOk) {
        ++failedAcks_;
        ++failedByKind_[static_cast<std::size_t>(cmds_[r.tag].kind)];
      }
      ++acksByKind_[static_cast<std::size_t>(cmds_[r.tag].kind)];
      got_[r.tag] = r.value;
      if (periodNs > 0.0 && (r.tag & kLatSampleMask) == 0) {
        const double due = static_cast<double>(openT0_) +
                           static_cast<double>(r.tag) * periodNs;
        lat_->push_back(static_cast<double>(seen) - due);
      }
    }
    return resp_.size();
  }

  void settle(double periodNs) {
    jungle::Backoff backoff;
    while (client_.acked() < client_.submitted()) {
      if (drain(periodNs) == 0) backoff.pause();
    }
  }

  JungleServe::Client& client_;
  const std::vector<Command>& cmds_;
  std::vector<Word> got_;
  std::vector<CommandResult> resp_;
  TraceLane* lane_ = nullptr;
  std::vector<double>* lat_ = nullptr;
  std::uint64_t openT0_ = 0;
  std::uint64_t refused_ = 0;
  std::uint64_t failedAcks_ = 0;
  std::uint64_t acks_ = 0;
  std::uint64_t acksByKind_[jungle::serve::kCmdKindCount] = {};
  std::uint64_t failedByKind_[jungle::serve::kCmdKindCount] = {};
  double maxLateNs_ = 0.0;
};

/// Constructs the service and loads every key's initial value through it
/// (one pipelined put per key, all acked).
std::unique_ptr<JungleServe> setUp(const std::vector<Word>& init) {
  auto serve = std::make_unique<JungleServe>(serveOptions());
  JungleServe::Client& cl = serve->client(0);
  std::vector<CommandResult> resp;
  resp.reserve(2 * kDeepWindow);
  jungle::Backoff backoff;
  const auto drain = [&] {
    resp.clear();
    if (cl.drainResponses(resp) == 0) {
      backoff.pause();
    } else {
      backoff.reset();
    }
  };
  for (std::size_t k = 0; k < kKeys;) {
    Command c;
    c.kind = CmdKind::kPut;
    c.keys[0] = static_cast<ObjectId>(k);
    c.vals[0] = init[k];
    if (cl.outstanding() < kDeepWindow && cl.trySubmit(c)) {
      ++k;
    } else {
      drain();
    }
  }
  while (cl.acked() < cl.submitted()) drain();
  return serve;
}

/// Simulates one round on `sim` and checks every recorded ack value.
void verifyRound(const std::vector<Command>& cmds, const std::vector<Word>& got,
                 std::vector<Word>& sim, RunResult& r) {
  for (std::size_t i = 0; i < cmds.size(); ++i) {
    const Word want = simulate(sim, cmds[i]);
    if (got[i] != want) {
      r.fail("serve-local: command " + std::to_string(i) + " (" +
             jungle::serve::cmdKindName(cmds[i].kind) + ") acked " +
             std::to_string(got[i]) + ", simulation says " +
             std::to_string(want));
      return;
    }
  }
}

/// Replays one round of the stream as bare TM transactions on two tl2-weak
/// runtimes (one per shard, the shard's key layout): the TM layer alone.
void bareTmReplay(const std::vector<Command>& cmds, TraceLane* lane,
                  LayerValues& layer) {
  const std::size_t localVars = kKeys / kShards;
  std::vector<std::unique_ptr<jungle::NativeMemory>> mems;
  std::vector<std::unique_ptr<jungle::TmRuntime>> rts;
  for (std::size_t s = 0; s < kShards; ++s) {
    mems.push_back(std::make_unique<jungle::NativeMemory>(
        jungle::runtimeMemoryWords(jungle::TmKind::kTl2Weak, localVars)));
    rts.push_back(jungle::makeNativeRuntime(jungle::TmKind::kTl2Weak,
                                            *mems.back(), localVars, 1));
  }
  for (const Command& c : cmds) {
    jungle::TmRuntime& rt = *rts[c.keys[0] % kShards];
    ScopedSpan sp(lane, "tm.tx");
    // The shard's transaction bodies (shard.cpp runBody).
    rt.transaction(0, [&](jungle::TxContext& tx) {
      for (std::size_t i = 0; i < c.nKeys; ++i) {
        const auto x = static_cast<ObjectId>(c.keys[i] / kShards);
        if (c.kind == CmdKind::kPut) {
          tx.write(x, c.vals[i]);
          continue;
        }
        const Word v = tx.read(x);
        if (c.kind != CmdKind::kGet) tx.write(x, v + c.vals[i]);
      }
    });
  }
  std::uint64_t aborts = 0;
  for (const auto& rt : rts) aborts += rt->abortCount();
  layer.set("tm.aborts", static_cast<double>(aborts));
}

/// Shuts `serve` down, checks its final state and failure counts against
/// the simulation, destroys it and returns the heap (MB) it gave back.
/// Fills `stats` with the frozen ServeStats.
double finishInstance(std::unique_ptr<JungleServe>& serve, const LoadClient& drv,
                      const std::vector<Word>& sim, TraceLane* lane,
                      jungle::serve::ServeStats& stats, RunResult& r) {
  // Heap held by the service: what its destruction gives back.
  const std::uint64_t heapEnd = heapBytes();
  {
    ScopedSpan sp(lane, "serve.shutdown");
    serve->shutdown();
  }
  stats = serve->stats();
  for (std::size_t k = 0; k < kKeys; ++k) {
    const Word v = serve->finalValue(static_cast<ObjectId>(k));
    if (v != sim[k]) {
      r.fail("serve-local: key " + std::to_string(k) + " ends at " +
             std::to_string(v) + ", simulation says " + std::to_string(sim[k]));
      break;
    }
  }
  if (drv.failedAcks() != 0) {
    r.fail("serve-local: " + std::to_string(drv.failedAcks()) +
           " commands acked kFailed");
  }
  if (serve->totalViolations() != 0) {
    r.fail("serve-local: sampled monitor convicted " +
           std::to_string(serve->totalViolations()) + " window(s)");
  }
  serve.reset();
  return static_cast<double>(heapEnd - std::min(heapEnd, heapBytes())) /
         (1024.0 * 1024.0);
}

void putLayerStats(const jungle::serve::ServeStats& st, LayerValues& layer) {
  std::uint64_t epochs = 0, commands = 0, monitored = 0, resyncs = 0;
  for (const auto& s : st.shards) {
    epochs += s.epochs;
    commands += s.commands;
    monitored += s.monitoredCommands;
    resyncs += s.resyncTxs;
  }
  layer.set("serve.epochs", static_cast<double>(epochs));
  layer.set("serve.cmds_per_epoch",
            static_cast<double>(commands) / static_cast<double>(epochs));
  layer.set("serve.monitored_cmds", static_cast<double>(monitored));
  layer.set("serve.resync_txs", static_cast<double>(resyncs));
  for (const auto& s : st.shards) {
    if (!s.sampled) continue;
    const auto& m = s.monitor;
    layer.set("monitor.events_captured", static_cast<double>(m.eventsCaptured));
    layer.set("monitor.units_dropped", static_cast<double>(m.unitsDropped));
    layer.set("monitor.peak_pending_units",
              static_cast<double>(m.peakPendingUnits));
    layer.set("monitor.checker.fast_units",
              static_cast<double>(m.stream.fastPathUnits));
    layer.set("monitor.checker.cert_units",
              static_cast<double>(m.stream.certifiedUnits));
    layer.set("monitor.checker.esc_units",
              static_cast<double>(m.stream.escalatedUnits));
    layer.set("monitor.checker.rechecks", static_cast<double>(m.stream.rechecks));
    layer.set("monitor.checker.gc_units", static_cast<double>(m.stream.gcUnits));
    layer.set("monitor.checker.resyncs", static_cast<double>(m.stream.resyncs));
    layer.set("monitor.checker.peak_window_units",
              static_cast<double>(m.stream.peakWindowUnits));
    layer.set("monitor.checker.violations",
              static_cast<double>(m.stream.violations));
    layer.set("monitor.certifier.attempts",
              static_cast<double>(m.stream.certifierAttempts));
    layer.set("monitor.certifier.us",
              static_cast<double>(m.stream.certifierUsTotal));
    layer.set("opacity.recheck_us",
              static_cast<double>(m.stream.escalationUsTotal));
  }
}

}  // namespace

RunResult runServeLocal(const RunConfig& cfg) {
  RunResult r;
  const std::uint64_t runStart = nowNs();
  const double budget = cfg.seconds;
  const auto elapsed = [&] { return secondsBetween(runStart, nowNs()); };

  // Inputs, generated before anything is timed.
  const std::vector<Command> cmds = makeStream(cfg.seed);
  std::vector<Word> init(kKeys);
  {
    jungle::Rng rng(cfg.seed * 0xd1b54a32d192ed03ULL + 5);
    for (Word& w : init) w = rng.below(1ULL << 40);
  }
  std::vector<double> lat;
  lat.reserve(static_cast<std::size_t>(
                  std::ceil(budget * kOpenRate * (1.0 - kDeepShare) / 4)) +
              kRoundCmds);
  std::vector<double> setups, heaps, deepRates;
  jungle::serve::ServeStats st;

  if (!cfg.trace) {
    // kInstances services in turn, each set up, warmed up, run through
    // both phases on its share of the budget and torn down.  With one
    // service per run, run-level ops_s spread 26-29 % over five runs; the
    // medians pool several services' rounds.  A single set-up took 12 to
    // 50 ms within one run, so each service is set up kSetUpsPerInstance
    // times (all but the last torn down at once) and setup_s is the median
    // of them all.
    std::uint64_t refused = 0;
    double maxLateUs = 0.0;
    for (int inst = 0; inst < kInstances; ++inst) {
      const double slot = budget * (inst + 1) / kInstances;
      const double deepEnd = slot - budget * (1.0 - kDeepShare) / kInstances;
      std::vector<Word> sim = init;
      std::unique_ptr<JungleServe> serve;
      for (int s = 0; s < kSetUpsPerInstance; ++s) {
        serve.reset();
        const std::uint64_t t0 = nowNs();
        serve = setUp(init);
        setups.push_back(secondsBetween(t0, nowNs()));
      }
      LoadClient drv(*serve, cmds);
      drv.deepRound();  // warm-up
      verifyRound(cmds, drv.values(), sim, r);
      r.attempted += kRoundCmds;
      do {
        deepRates.push_back(static_cast<double>(kRoundCmds) / drv.deepRound());
        verifyRound(cmds, drv.values(), sim, r);
        r.attempted += kRoundCmds;
      } while (elapsed() < deepEnd);
      do {
        drv.openRound(lat);
        verifyRound(cmds, drv.values(), sim, r);
        r.attempted += kRoundCmds;
      } while (elapsed() < slot);
      heaps.push_back(finishInstance(serve, drv, sim, nullptr, st, r));
      refused += drv.refused();
      maxLateUs = std::max(maxLateUs, drv.maxLateUs());
    }
    const std::size_t latSamples = lat.size();
    const double opsS = median(deepRates);
    r.put(kSetupS, median(setups), "s");
    r.put(kHeapMb, median(heaps), "MB");
    r.put(kOpsS, opsS, "ops/s");
    r.put(kP50Us, median(std::move(lat)) * 1e-3, "us");
    // Every command here is one key-value operation of the application.
    r.put(kAppOpsS, opsS, "ops/s");
    std::fprintf(stderr,
                 "serve-local: %d services, %zu deep rounds, %zu open-loop "
                 "samples, generator at most %.1f us late, %llu refused "
                 "submits\n",
                 kInstances, deepRates.size(), latSamples, maxLateUs,
                 static_cast<unsigned long long>(refused));
    return r;
  }

  // Traced: one service.  Untraced deep-window rounds (the tracing
  // overhead's base), then the same rounds with spans around every client
  // call; the rest of the budget is for shutdown and the bare-TM replay.
  Tracer tracer;
  LayerValues layer;
  std::vector<Word> sim = init;
  std::unique_ptr<JungleServe> serve = setUp(init);
  LoadClient drv(*serve, cmds);
  do {
    deepRates.push_back(static_cast<double>(kRoundCmds) / drv.deepRound());
    verifyRound(cmds, drv.values(), sim, r);
    r.attempted += kRoundCmds;
  } while (elapsed() < 0.4 * budget);
  drv.setLane(tracer.newLane());
  std::vector<double> tracedRates;
  do {
    tracedRates.push_back(static_cast<double>(kRoundCmds) / drv.deepRound());
    verifyRound(cmds, drv.values(), sim, r);
    r.attempted += kRoundCmds;
  } while (elapsed() < 0.8 * budget);
  const SpanTotals drains = tracer.totals("serve.drain");
  layer.set("serve.submit_ns", tracer.meanSelfNs("serve.submit"));
  layer.set("serve.drain_ns_per_ack",
            static_cast<double>(drains.selfNs) /
                static_cast<double>(tracedRates.size() * kRoundCmds));
  layer.set("serve.refused_submits", static_cast<double>(drv.refused()));
  TraceLane* mainLane = tracer.newLane();
  finishInstance(serve, drv, sim, mainLane, st, r);
  putLayerStats(st, layer);
  layer.set("serve.shutdown_s",
            static_cast<double>(tracer.totals("serve.shutdown").totalNs) * 1e-9);
  bareTmReplay(cmds, mainLane, layer);
  layer.set("tm.tx_ns", tracer.meanSelfNs("tm.tx"));
  layer.set("trace.overhead_pct",
            100.0 * (median(deepRates) / median(tracedRates) - 1.0));
  layer.set("trace.spans", static_cast<double>(tracer.spanCount()));
  writeTrace(tracer, cfg, r);
  layer.emit(r);
  return r;
}

int runServeExplore(const ExploreOptions& o) {
  const std::vector<Command> cmds =
      makeStream(o.seed, o.zipfTheta,
                 static_cast<unsigned>(o.crossShardPct * 10.0 + 0.5));
  std::vector<Word> init(kKeys, 0);
  auto serve = setUp(init);
  LoadClient drv(*serve, cmds);
  std::vector<double> lat;
  const std::uint64_t t0 = nowNs();
  std::size_t rounds = 0;
  do {
    drv.openRound(lat);
    ++rounds;
  } while (secondsBetween(t0, nowNs()) < o.seconds);
  serve->shutdown();
  std::printf(
      "cross-shard %.1f%%, zipf %.2f, %.0f cmd/s, seed %llu: %zu rounds, "
      "%llu commands\n  kTxnX acked %llu, of which kFailed %llu; all kinds "
      "kFailed %llu\n  p50 of all commands %.2f us; generator at most %.1f "
      "us late\n",
      o.crossShardPct, o.zipfTheta, kOpenRate,
      static_cast<unsigned long long>(o.seed), rounds,
      static_cast<unsigned long long>(drv.acks()),
      static_cast<unsigned long long>(drv.acks(CmdKind::kTxnX)),
      static_cast<unsigned long long>(drv.failed(CmdKind::kTxnX)),
      static_cast<unsigned long long>(drv.failedAcks()), median(lat) * 1e-3,
      drv.maxLateUs());
  return 0;
}

}  // namespace jbench
