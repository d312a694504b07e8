// monitor-live: a TmMonitor over versioned-write (the paper's Theorem 5
// TM) verifying two producer threads.  Each producer runs a pre-generated
// plan of transactions and non-transactional accesses on its own 32
// variables.  Rings hold a whole round of events, so nothing can drop, and
// a round ends when stop() returns with every unit checked.
//
// A round: set up (runtime + monitor + one initial-value transaction per
// producer), release both producers at once, join them, stop().  ops_s is
// units verified per second from the release until stop() returns;
// app_ops_s is units the producers completed per second of their own run;
// p50_us is the mean time one monitored operation takes (a producer's run
// time over its operations, averaged over the producers).  All three are
// medians over rounds.  A sampled per-operation median moved between 0.49
// and 0.89 us from run to run with ops_s, as the collector's concurrent
// ring reads slowed the producers' pushes more or less; the mean did not.
//
// Oracle: every variable has one writer, so every read must return its
// owner's last write; unitsChecked must equal the units produced; drops
// and violations must be 0.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include <pthread.h>
#include <sched.h>

#include "common.hpp"
#include "common/rng.hpp"
#include "monitor/monitor.hpp"
#include "sim/memory_policy.hpp"
#include "tm/runtime.hpp"
#include "workloads.hpp"

namespace jbench {
namespace {

using jungle::ObjectId;
using jungle::ProcessId;
using jungle::Word;

constexpr std::size_t kProducers = 2;
constexpr std::size_t kVarsPerProducer = 32;
constexpr std::size_t kVars = kProducers * kVarsPerProducer;
constexpr std::size_t kOpsPerRound = 100000;  // per producer
constexpr unsigned kTxPct = 75;               // rest: nt reads and writes
constexpr std::size_t kTxOpsMax = 4;
constexpr jungle::TmKind kKind = jungle::TmKind::kVersionedWrite;

struct Op {
  enum Kind : std::uint8_t { kTx, kNtRead, kNtWrite } kind = kTx;
  std::uint8_t n = 0;
  std::uint8_t writeMask = 0;
  ObjectId vars[kTxOpsMax] = {};
  Word vals[kTxOpsMax] = {};
};

struct Plan {
  std::vector<Op> ops;
  Word init[kVarsPerProducer] = {};
  std::size_t events = 0;  // capture events the plan produces
};

Plan makePlan(std::uint64_t seed, std::size_t p) {
  jungle::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 101 + p);
  Plan plan;
  const auto base = static_cast<ObjectId>(p * kVarsPerProducer);
  for (Word& w : plan.init) w = rng() >> 1;
  plan.events = 2 + kVarsPerProducer;  // the initial-value transaction
  plan.ops.resize(kOpsPerRound);
  for (Op& op : plan.ops) {
    if (rng.below(100) < kTxPct) {
      op.kind = Op::kTx;
      op.n = static_cast<std::uint8_t>(1 + rng.below(kTxOpsMax));
      for (std::size_t i = 0; i < op.n; ++i) {
        op.vars[i] = base + static_cast<ObjectId>(rng.below(kVarsPerProducer));
        if (rng.below(2) == 0) {
          op.writeMask |= static_cast<std::uint8_t>(1u << i);
          op.vals[i] = rng() >> 1;
        }
      }
      plan.events += 2 + op.n;
    } else {
      op.kind = rng.below(2) == 0 ? Op::kNtRead : Op::kNtWrite;
      op.n = 1;
      op.vars[0] = base + static_cast<ObjectId>(rng.below(kVarsPerProducer));
      op.vals[0] = rng() >> 1;
      plan.events += 1;
    }
  }
  return plan;
}

struct ProducerOut {
  std::uint64_t badReads = 0;
  std::uint64_t endNs = 0;
};

/// Runs one producer's plan on `rt` as process `p`, checking every read
/// against the owner's last write (counted in out.badReads).
void runPlan(jungle::TmRuntime& rt, ProcessId p, const Plan& plan,
             TraceLane* lane, const char* txName, const char* ntName,
             ProducerOut& out) {
  const ObjectId base = static_cast<ObjectId>(p * kVarsPerProducer);
  Word shadow[kVarsPerProducer];
  for (std::size_t i = 0; i < kVarsPerProducer; ++i) shadow[i] = plan.init[i];
  for (const Op& op : plan.ops) {
    if (op.kind == Op::kTx) {
      ScopedSpan sp(lane, txName);
      std::size_t nw = 0;
      ObjectId wVar[kTxOpsMax];
      Word wVal[kTxOpsMax];
      std::uint64_t bad = 0;
      rt.transaction(p, [&](jungle::TxContext& tx) {
        // The body may rerun after a conflict abort: start over each time.
        nw = 0;
        bad = 0;
        for (std::size_t i = 0; i < op.n; ++i) {
          const ObjectId x = op.vars[i];
          if (op.writeMask & (1u << i)) {
            tx.write(x, op.vals[i]);
            wVar[nw] = x;
            wVal[nw++] = op.vals[i];
            continue;
          }
          Word want = shadow[x - base];
          for (std::size_t j = 0; j < nw; ++j) {
            if (wVar[j] == x) want = wVal[j];  // read of an own write
          }
          if (tx.read(x) != want) ++bad;
        }
      });
      for (std::size_t j = 0; j < nw; ++j) shadow[wVar[j] - base] = wVal[j];
      out.badReads += bad;
    } else if (op.kind == Op::kNtRead) {
      ScopedSpan sp(lane, ntName);
      if (rt.ntRead(p, op.vars[0]) != shadow[op.vars[0] - base]) ++out.badReads;
    } else {
      ScopedSpan sp(lane, ntName);
      rt.ntWrite(p, op.vars[0], op.vals[0]);
      shadow[op.vars[0] - base] = op.vals[0];
    }
  }
  out.endNs = nowNs();
}

/// Pins the calling thread to CPU `cpu` when the host has it: producer p
/// on CPU p, the collector on CPU kProducers, so a round does not depend on
/// where the scheduler first places the threads it creates.
void pinTo(int cpu) {
  if (cpu >= static_cast<int>(std::thread::hardware_concurrency())) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

/// Constructs a monitor whose collector thread runs on CPU kProducers.  The
/// collector inherits the creating thread's affinity, so this thread is
/// pinned there only for the construction.  Afterwards it gets its own
/// affinity back, less the collector's CPU where it has others: the thread
/// that calls stop() does not share the collector's CPU.
std::unique_ptr<jungle::monitor::TmMonitor> makeMonitor(
    jungle::TmRuntime& rt, const jungle::monitor::MonitorOptions& mo) {
  cpu_set_t own;
  const bool haveOwn =
      pthread_getaffinity_np(pthread_self(), sizeof(own), &own) == 0;
  pinTo(static_cast<int>(kProducers));
  auto mon = std::make_unique<jungle::monitor::TmMonitor>(rt, kProducers, mo);
  if (haveOwn) {
    if (CPU_ISSET(kProducers, &own) && CPU_COUNT(&own) > 1) {
      CPU_CLR(kProducers, &own);
    }
    pthread_setaffinity_np(pthread_self(), sizeof(own), &own);
  }
  return mon;
}

std::size_t nextPow2(std::size_t n) {
  std::size_t c = 1;
  while (c < n) c <<= 1;
  return c;
}

/// Starts one thread per producer, releases them together, joins them.
/// Returns the release time (ns).
std::uint64_t runProducers(jungle::TmRuntime& rt, const std::vector<Plan>& plans,
                           const std::vector<TraceLane*>& lanes,
                           const char* txName, const char* ntName,
                           std::vector<ProducerOut>& outs) {
  std::atomic<bool> go{false};
  std::atomic<std::size_t> ready{0};
  std::vector<std::thread> threads;
  for (std::size_t p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      pinTo(static_cast<int>(p));
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      runPlan(rt, static_cast<ProcessId>(p), plans[p], lanes[p], txName,
              ntName, outs[p]);
    });
  }
  while (ready.load() < kProducers) std::this_thread::yield();
  const std::uint64_t t0 = nowNs();
  go.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();
  return t0;
}

struct RoundOut {
  double setupS = 0.0;
  double opsS = 0.0;
  double appOpsS = 0.0;
  double opUs = 0.0;
  double heapMb = 0.0;
  jungle::monitor::MonitorStats stats;
};

/// One monitored round.  Verifies it into `r`.
RoundOut monitoredRound(const std::vector<Plan>& plans, std::size_t ringCap,
                        const std::vector<TraceLane*>& lanes,
                        TraceLane* mainLane, RunResult& r) {
  std::vector<ProducerOut> outs(kProducers);
  RoundOut ro;

  const std::uint64_t s0 = nowNs();
  auto mem = std::make_unique<jungle::NativeMemory>(
      jungle::runtimeMemoryWords(kKind, kVars));
  auto rt = jungle::makeNativeRuntime(kKind, *mem, kVars, kProducers);
  jungle::monitor::MonitorOptions mo;
  mo.capture.ringCapacity = ringCap;
  auto mon = makeMonitor(*rt, mo);
  for (std::size_t p = 0; p < kProducers; ++p) {
    const ObjectId base = static_cast<ObjectId>(p * kVarsPerProducer);
    mon->runtime().transaction(
        static_cast<ProcessId>(p), [&](jungle::TxContext& tx) {
          for (std::size_t i = 0; i < kVarsPerProducer; ++i) {
            tx.write(base + static_cast<ObjectId>(i), plans[p].init[i]);
          }
        });
  }
  ro.setupS = secondsBetween(s0, nowNs());

  const std::uint64_t t0 =
      runProducers(mon->runtime(), plans, lanes, "monitor.tx", "monitor.nt",
                   outs);
  {
    ScopedSpan sp(mainLane, "monitor.stop");
    mon->stop();
  }
  const std::uint64_t t1 = nowNs();
  std::uint64_t appEnd = 0;
  for (const ProducerOut& o : outs) {
    appEnd = std::max(appEnd, o.endNs);
    ro.opUs += secondsBetween(t0, o.endNs) * 1e6 /
               static_cast<double>(kOpsPerRound * kProducers);
  }

  // Units produced after the release; the two initial-value units of the
  // set-up are checked too (unitsChecked counts them) but not timed.
  const std::uint64_t units = kProducers * kOpsPerRound;
  ro.opsS = static_cast<double>(units) / secondsBetween(t0, t1);
  ro.appOpsS = static_cast<double>(units) / secondsBetween(t0, appEnd);
  ro.stats = mon->stats();

  std::uint64_t bad = 0;
  for (const ProducerOut& o : outs) bad += o.badReads;
  const auto& st = ro.stats;
  if (bad != 0) {
    r.fail("monitor-live: " + std::to_string(bad) +
           " reads did not return the owner's last write");
  }
  if (st.stream.unitsChecked != units + kProducers) {
    r.fail("monitor-live: checked " + std::to_string(st.stream.unitsChecked) +
           " units of " + std::to_string(units + kProducers) + " produced");
  }
  if (st.unitsDropped != 0 || st.eventsDropped != 0) {
    r.fail("monitor-live: " + std::to_string(st.unitsDropped) +
           " units dropped");
  }
  if (!mon->violations().empty()) {
    r.fail("monitor-live: " + std::to_string(mon->violations().size()) +
           " violation(s) on a correct run");
  }

  // Heap held by the program objects: what their destruction gives back.
  const std::uint64_t h0 = heapBytes();
  mon.reset();
  rt.reset();
  mem.reset();
  ro.heapMb = static_cast<double>(h0 - std::min(h0, heapBytes())) /
              (1024.0 * 1024.0);
  return ro;
}

/// The same plans on a bare runtime (no monitor), spans per operation.
void bareRound(const std::vector<Plan>& plans,
               const std::vector<TraceLane*>& lanes, LayerValues& layer) {
  jungle::NativeMemory mem(jungle::runtimeMemoryWords(kKind, kVars));
  auto rt = jungle::makeNativeRuntime(kKind, mem, kVars, kProducers);
  for (std::size_t p = 0; p < kProducers; ++p) {
    const ObjectId base = static_cast<ObjectId>(p * kVarsPerProducer);
    rt->transaction(static_cast<ProcessId>(p), [&](jungle::TxContext& tx) {
      for (std::size_t i = 0; i < kVarsPerProducer; ++i) {
        tx.write(base + static_cast<ObjectId>(i), plans[p].init[i]);
      }
    });
  }
  std::vector<ProducerOut> outs(kProducers);
  runProducers(*rt, plans, lanes, "tm.tx", "tm.nt", outs);
  layer.set("tm.aborts", static_cast<double>(rt->abortCount()));
}

}  // namespace

RunResult runMonitorLive(const RunConfig& cfg) {
  RunResult r;
  const std::uint64_t runStart = nowNs();
  std::vector<Plan> plans;
  std::size_t maxEvents = 0;
  for (std::size_t p = 0; p < kProducers; ++p) {
    plans.push_back(makePlan(cfg.seed, p));
    maxEvents = std::max(maxEvents, plans.back().events);
  }
  // Room for a whole round per ring: no drop is possible.
  const std::size_t ringCap = nextPow2(maxEvents + 1024);

  const std::vector<TraceLane*> noLanes(kProducers, nullptr);
  std::vector<RoundOut> rounds;
  const double untracedEnd = cfg.trace ? 0.45 * cfg.seconds : cfg.seconds;
  do {
    rounds.push_back(monitoredRound(plans, ringCap, noLanes, nullptr, r));
  } while (secondsBetween(runStart, nowNs()) < untracedEnd);
  std::uint64_t attempted = rounds.size() * kProducers * (1 + kOpsPerRound);

  std::vector<double> setups, ops, app, opUs, heap;
  for (const RoundOut& ro : rounds) {
    setups.push_back(ro.setupS);
    ops.push_back(ro.opsS);
    app.push_back(ro.appOpsS);
    opUs.push_back(ro.opUs);
    heap.push_back(ro.heapMb);
  }
  if (!cfg.trace) {
    r.attempted = attempted;
    r.put(kSetupS, median(setups), "s");
    r.put(kHeapMb, median(heap), "MB");
    r.put(kOpsS, median(ops), "ops/s");
    r.put(kP50Us, median(opUs), "us");
    r.put(kAppOpsS, median(app), "ops/s");
    std::fprintf(stderr, "monitor-live: %zu rounds of %zu units\n",
                 rounds.size(), kProducers * (1 + kOpsPerRound));
    return r;
  }

  // Traced rounds: spans around every monitored operation and stop(), then
  // the same plans on the bare runtime.
  Tracer tracer;
  std::vector<TraceLane*> lanes;
  for (std::size_t p = 0; p < kProducers; ++p) lanes.push_back(tracer.newLane());
  TraceLane* mainLane = tracer.newLane();
  std::vector<double> tracedOps;
  jungle::monitor::MonitorStats sum;
  std::size_t tracedRounds = 0;
  do {
    const RoundOut ro =
        monitoredRound(plans, ringCap, lanes, mainLane, r);
    tracedOps.push_back(ro.opsS);
    const auto& s = ro.stats;
    sum.eventsCaptured += s.eventsCaptured;
    sum.unitsDropped += s.unitsDropped;
    sum.peakPendingUnits = std::max(sum.peakPendingUnits, s.peakPendingUnits);
    jungle::monitor::mergeStreamStats(sum.stream, s.stream);
    ++tracedRounds;
  } while (secondsBetween(runStart, nowNs()) < 0.85 * cfg.seconds);
  attempted += tracedRounds * kProducers * (1 + kOpsPerRound);
  r.attempted = attempted;

  LayerValues layer;
  for (int i = 0; i < 3; ++i) bareRound(plans, lanes, layer);
  const auto perUnitNs = [&](const char* tx, const char* nt) {
    const SpanTotals a = tracer.totals(tx);
    const SpanTotals b = tracer.totals(nt);
    return static_cast<double>(a.selfNs + b.selfNs) /
           static_cast<double>(a.count + b.count);
  };
  const auto perRound = [&](std::uint64_t v) {
    return static_cast<double>(v) / static_cast<double>(tracedRounds);
  };
  layer.set("tm.tx_ns", tracer.meanSelfNs("tm.tx"));
  layer.set("tm.nt_ns", tracer.meanSelfNs("tm.nt"));
  layer.set("monitor.capture_ns", perUnitNs("monitor.tx", "monitor.nt") -
                                      perUnitNs("tm.tx", "tm.nt"));
  layer.set("monitor.events_captured", perRound(sum.eventsCaptured));
  layer.set("monitor.units_dropped", perRound(sum.unitsDropped));
  layer.set("monitor.stop_s",
            static_cast<double>(tracer.totals("monitor.stop").totalNs) * 1e-9 /
                static_cast<double>(tracedRounds));
  layer.set("monitor.peak_pending_units",
            static_cast<double>(sum.peakPendingUnits));
  const auto& ss = sum.stream;
  layer.set("monitor.checker.fast_units", perRound(ss.fastPathUnits));
  layer.set("monitor.checker.cert_units", perRound(ss.certifiedUnits));
  layer.set("monitor.checker.esc_units", perRound(ss.escalatedUnits));
  layer.set("monitor.checker.rechecks", perRound(ss.rechecks));
  layer.set("monitor.checker.gc_units", perRound(ss.gcUnits));
  layer.set("monitor.checker.resyncs", perRound(ss.resyncs));
  layer.set("monitor.checker.peak_window_units",
            static_cast<double>(ss.peakWindowUnits));
  layer.set("monitor.checker.violations", perRound(ss.violations));
  layer.set("monitor.certifier.attempts", perRound(ss.certifierAttempts));
  layer.set("monitor.certifier.us", perRound(ss.certifierUsTotal));
  layer.set("opacity.recheck_us", perRound(ss.escalationUsTotal));
  layer.set("trace.overhead_pct",
            100.0 * (median(ops) / median(tracedOps) - 1.0));
  layer.set("trace.spans", static_cast<double>(tracer.spanCount()));
  writeTrace(tracer, cfg, r);
  layer.emit(r);
  return r;
}

}  // namespace jbench
