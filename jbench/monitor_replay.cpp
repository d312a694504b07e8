// monitor-replay: one thread feeds a pre-generated StreamUnit stream
// straight into a StreamChecker under the versioned-write claim (opacity
// parametrized by Alpha, whose transform is the identity, so the TMS2
// certifier is active).  No thread scheduling is involved: every round
// decides exactly the same units on exactly the same path.
//
// A round is one fresh checker fed the whole stream, then finish().  The
// stream's structure is fixed; the seed picks variables, values and
// process ids of the plain units.  In feed (start-ticket) order:
//   * kBlocks blocks of plain in-order units (fast path), each holding
//     claim-inverted pairs that the certifier decides: a reader that
//     started before the writer it read from, and an old-snapshot reader
//     nested inside an overwriting writer;
//   * every kEscEvery-th block, one legal preempted-writer pattern (writer
//     W1 starts first and closes last, W2 nested inside it, two units in
//     between, then a reader of W1's value): the engine decides it;
//   * a tail of kPlanted planted corrupt reads (genuine violations) and
//     kKnownFault preempted-writer patterns with 7 units in between.
// The last kind is convicted today although the stream is legal:
// StreamChecker::gc() folds W1 into the prefix state before W2 and the
// reader of W1's value then contradicts it.  Each such conviction counts as
// a failed operation; the count is fixed per round and does not depend on
// the seed.
//
// Oracle: clean units are never convicted, every planted corrupt read is,
// and the per-round path counts repeat exactly.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "common.hpp"
#include "common/rng.hpp"
#include "monitor/monitor.hpp"
#include "monitor/stream_checker.hpp"
#include "tm/runtime.hpp"
#include "workloads.hpp"

namespace jbench {
namespace {

using jungle::ObjectId;
using jungle::ProcessId;
using jungle::Word;
using jungle::monitor::EventKind;
using jungle::monitor::MonitorEvent;
using jungle::monitor::StreamChecker;
using jungle::monitor::StreamStats;
using jungle::monitor::StreamUnit;

constexpr std::size_t kGeneralVars = 64;
// Pattern variables, disjoint from the plain units' ones.
constexpr ObjectId kEscVar = 100;
constexpr ObjectId kFaultVar = 101;
constexpr ObjectId kPlantVar = 102;
constexpr std::size_t kVarSpace = 103;
constexpr ProcessId kPlainPids = 4;  // plain units use pids 0..3
constexpr ProcessId kPidA = 4;       // pattern pids
constexpr ProcessId kPidB = 5;
constexpr ProcessId kPidC = 6;

constexpr std::size_t kBlocks = 1024;
constexpr std::size_t kBlockPlain = 96;  // plain units per block
constexpr std::size_t kEscEvery = 2;
constexpr std::size_t kPlanted = 2;
constexpr std::size_t kKnownFault = 2;
// Units after a pattern's reader: enough for the escalation, its
// confirmation run (2 x settleUnits) and publication.
constexpr std::size_t kSettleTail = 12;
constexpr std::uint64_t kLatSampleMask = 15;  // 1 in 16 feeds timed
constexpr std::uint64_t kPlantedTag = 0xBAD0000000000000ULL;

const jungle::monitor::MonitorClaim& claim() {
  static const jungle::monitor::MonitorClaim c =
      jungle::monitor::monitorModelFor(jungle::TmKind::kVersionedWrite);
  return c;
}

jungle::monitor::StreamOptions checkerOptions(
    const jungle::monitor::MonitorClaim& c) {
  // The TmMonitor defaults (monitor.hpp MonitorOptions).
  const jungle::monitor::MonitorOptions mo;
  jungle::monitor::StreamOptions so;
  so.model = c.model;
  so.condition = c.condition;
  so.gcRetain = mo.gcRetain;
  so.settleUnits = mo.settleUnits;
  so.recheckTimeout = mo.recheckTimeout;
  so.certify = mo.certifier;
  return so;
}

/// Builds the stream: tickets, values and the true state as it goes.
class StreamBuilder {
 public:
  /// Plain units use variables [firstPlainVar, kGeneralVars).
  explicit StreamBuilder(std::uint64_t seed, ObjectId firstPlainVar = 0)
      : rng_(seed), firstPlainVar_(firstPlainVar) {}

  std::vector<StreamUnit> take() { return std::move(units_); }

  /// One committed transaction writing every general variable (the
  /// initial state).
  void initUnit() {
    std::vector<MonitorEvent> body;
    for (ObjectId x = 0; x < kGeneralVars; ++x) {
      state_[x] = fresh();
      body.push_back(write(x, state_[x]));
    }
    tx(0, body, 1);
  }

  /// A transaction whose interval ends before the next unit starts,
  /// reading the true state.  Plain units are transactions only: with
  /// non-transactional units in escalation windows the checker convicts
  /// clean streams on some seeds (see README.md), and a failure that
  /// depends on the seed cannot be counted exactly.
  void plain() {
    const auto pid = static_cast<ProcessId>(rng_.below(kPlainPids));
    std::vector<MonitorEvent> body;
    const std::size_t n = 1 + rng_.below(4);
    for (std::size_t i = 0; i < n; ++i) {
      const ObjectId x = plainVar();
      if (rng_.below(2) == 0) {
        body.push_back(write(x, fresh()));
      } else {
        body.push_back(read(x, ownOrState(body, x)));
      }
    }
    tx(pid, body, 1);
    for (const MonitorEvent& e : body) {
      if (e.kind == EventKind::kTxWrite) state_[e.obj] = e.value;
    }
  }

  /// Claim-inverted pair: R starts first and reads the value W (which
  /// starts after R and closes before it) writes.
  void readerBeforeWriter() {
    const auto x = static_cast<ObjectId>(rng_.below(kGeneralVars));
    const Word v = fresh();
    const std::uint64_t e = ticket_;
    units_.push_back(unit(kPidA, e, {read(x, v)}, e + 3));
    units_.push_back(unit(kPidB, e + 1, {write(x, v)}, e + 2));
    ticket_ = e + 4;
    state_[x] = v;
  }

  /// Old-snapshot reader: R, nested inside W, reads the value W overwrites.
  void nestedOldReader() {
    const auto x = static_cast<ObjectId>(rng_.below(kGeneralVars));
    const Word old = state(x);
    const Word v = fresh();
    const std::uint64_t e = ticket_;
    units_.push_back(unit(kPidA, e, {write(x, v)}, e + 3));
    units_.push_back(unit(kPidB, e + 1, {read(x, old)}, e + 2));
    ticket_ = e + 4;
    state_[x] = v;
  }

  /// Preempted writer: W1 starts first and closes last writing x = A, W2
  /// nested in it writes x = B, `between` plain units, then a reader that
  /// starts after W1 closed reads A.  Legal (W2, W1, reader).
  void preemptedWriter(ObjectId x, std::size_t between) {
    const Word a = fresh();
    const Word b = fresh();
    const std::size_t w1 = units_.size();
    units_.push_back(unit(kPidA, ticket_, {write(x, a)}, 0));
    units_.push_back(unit(kPidB, ticket_ + 1, {write(x, b)}, ticket_ + 2));
    ticket_ += 3;
    for (std::size_t i = 0; i < between; ++i) plain();
    units_[w1].events.back().ticket = ticket_++;  // W1 closes here
    units_.push_back(unit(kPidC, ticket_, {read(x, a)}, ticket_ + 1));
    ticket_ += 2;
    state_[x] = a;
  }

  /// Fixed-shape end of the stream: one transaction writing every general
  /// variable, then single-write transactions until the retained window
  /// holds only them, so the checker's final state has the same shape on
  /// every seed.
  void closing(std::size_t singles) {
    initUnit();
    for (std::size_t i = 0; i < singles; ++i) {
      const Word v = fresh();
      tx(kPidA, {write(static_cast<ObjectId>(i), v)}, 1);
      state_[i] = v;
    }
  }

  /// A committed write of x, then a reader of a value nobody wrote.
  void plantedCorruptRead(std::size_t i) {
    const Word v = fresh();
    tx(kPidA, {write(kPlantVar, v)}, 1);
    tx(kPidC, {read(kPlantVar, kPlantedTag | i)}, 1);
    state_[kPlantVar] = v;
  }

 private:
  static MonitorEvent read(ObjectId x, Word v) {
    return {0, x, EventKind::kTxRead, v};
  }
  static MonitorEvent write(ObjectId x, Word v) {
    return {0, x, EventKind::kTxWrite, v};
  }

  Word fresh() { return (rng_() >> 4) | 1; }  // never 0, never planted

  ObjectId plainVar() {
    return firstPlainVar_ +
           static_cast<ObjectId>(rng_.below(kGeneralVars - firstPlainVar_));
  }

  Word state(ObjectId x) const { return state_[x]; }

  Word ownOrState(const std::vector<MonitorEvent>& body, ObjectId x) const {
    for (auto it = body.rbegin(); it != body.rend(); ++it) {
      if (it->kind == EventKind::kTxWrite && it->obj == x) return it->value;
    }
    return state(x);
  }

  static StreamUnit unit(ProcessId pid, std::uint64_t start,
                         std::vector<MonitorEvent> body, std::uint64_t end) {
    StreamUnit u;
    u.kind = StreamUnit::Kind::kCommittedTx;
    u.pid = pid;
    u.epoch = start;
    u.events.reserve(body.size() + 2);
    u.events.push_back({start, jungle::kNoObject, EventKind::kTxStart, 0});
    for (MonitorEvent e : body) {
      e.ticket = start;
      u.events.push_back(e);
    }
    u.events.push_back({end, jungle::kNoObject, EventKind::kTxCommit, 0});
    return u;
  }

  void tx(ProcessId pid, const std::vector<MonitorEvent>& body,
          std::uint64_t len) {
    units_.push_back(unit(pid, ticket_, body, ticket_ + len));
    ticket_ += len + 1;
  }

  jungle::Rng rng_;
  ObjectId firstPlainVar_;
  std::uint64_t ticket_ = 1;
  std::vector<StreamUnit> units_;
  /// True value of every variable (all start at 0).
  std::vector<Word> state_ = std::vector<Word>(kVarSpace, 0);
};

struct Stream {
  StreamUnit init;  // the initial-value unit, fed as part of set-up
  std::vector<StreamUnit> units;
  std::uint64_t accesses = 0;  // reads and writes in `units`
};

Stream makeStream(std::uint64_t seed) {
  StreamBuilder b(seed * 0x9e3779b97f4a7c15ULL + 7);
  b.initUnit();
  for (std::size_t blk = 0; blk < kBlocks; ++blk) {
    for (std::size_t i = 0; i < kBlockPlain; ++i) {
      b.plain();
      // Patterns sit at fixed offsets, each followed by enough plain units
      // to settle before the next one.
      if (i == 16) b.readerBeforeWriter();
      if (i == 40) b.nestedOldReader();
      if (i == 64 && blk % kEscEvery == 0) b.preemptedWriter(kEscVar, 2);
    }
  }
  for (std::size_t i = 0; i < kPlanted; ++i) {
    b.plantedCorruptRead(i);
    for (std::size_t j = 0; j < kSettleTail; ++j) b.plain();
  }
  for (std::size_t i = 0; i < kKnownFault; ++i) {
    b.preemptedWriter(kFaultVar, 7);
    for (std::size_t j = 0; j < kSettleTail; ++j) b.plain();
  }
  b.closing(kSettleTail);
  std::vector<StreamUnit> all = b.take();
  Stream s;
  s.init = std::move(all.front());
  s.units.assign(std::make_move_iterator(all.begin() + 1),
                 std::make_move_iterator(all.end()));
  for (const StreamUnit& u : s.units) {
    for (const MonitorEvent& e : u.events) {
      if (e.obj != jungle::kNoObject) ++s.accesses;
    }
  }
  return s;
}

/// Which kind of unit a conviction's window convicts.
enum class Verdict { kPlanted, kKnownFault, kClean };

Verdict classify(const jungle::monitor::MonitorViolation& v) {
  bool fault = false;
  for (const jungle::OpInstance& op : v.window.ops()) {
    if (!op.isCommand() || op.cmd.kind != jungle::CmdKind::kRead) continue;
    if ((op.cmd.value & kPlantedTag) == kPlantedTag) return Verdict::kPlanted;
    if (op.obj == kFaultVar) fault = true;
  }
  return fault ? Verdict::kKnownFault : Verdict::kClean;
}

struct RoundOut {
  double setupS = 0.0;
  double decideS = 0.0;
  double heapMb = 0.0;
  StreamStats stats;
  std::size_t planted = 0;
  std::size_t knownFault = 0;
  std::size_t clean = 0;
};

/// Feeds one copy of the stream into a fresh checker.  With a lane, every
/// feed() becomes a span named by the StreamStats bucket it moved.
RoundOut runRound(const Stream& proto, TraceLane* lane,
                  std::vector<double>* latNs) {
  RoundOut ro;
  StreamUnit init = proto.init;
  std::vector<StreamUnit> units = proto.units;  // feed() consumes them

  const std::uint64_t s0 = nowNs();
  auto chk = std::make_unique<StreamChecker>(checkerOptions(claim()));
  chk->feed(std::move(init));
  ro.setupS = secondsBetween(s0, nowNs());

  const std::uint64_t t0 = nowNs();
  std::uint64_t seq = 0;
  for (StreamUnit& u : units) {
    if (lane == nullptr) {
      const bool timed = latNs != nullptr && (seq++ & kLatSampleMask) == 0;
      const std::uint64_t f0 = timed ? nowNs() : 0;
      chk->feed(std::move(u));
      if (timed) latNs->push_back(static_cast<double>(nowNs() - f0));
      if (chk->hasPendingConviction()) chk->onQuiescent();
      continue;
    }
    const StreamStats before = chk->stats();
    {
      ScopedSpan sp(lane, "checker.feed");
      chk->feed(std::move(u));
      const StreamStats& after = chk->stats();
      if (after.rechecks != before.rechecks) {
        sp.rename(chk->hasPendingConviction() ? "checker.confirm"
                                              : "checker.esc_feed");
      } else if (after.certifiedUnits != before.certifiedUnits) {
        sp.rename("checker.cert");
      } else if (after.fastPathUnits != before.fastPathUnits) {
        sp.rename("checker.fast");
      } else {
        sp.rename("checker.buffer");
      }
    }
    if (chk->hasPendingConviction()) {
      ScopedSpan sp(lane, "checker.publish");
      chk->onQuiescent();
    }
  }
  {
    ScopedSpan sp(lane, "checker.finish");
    chk->finish();
  }
  ro.decideS = secondsBetween(t0, nowNs());
  ro.stats = chk->stats();
  for (const auto& v : chk->violations()) {
    switch (classify(v)) {
      case Verdict::kPlanted:
        ++ro.planted;
        break;
      case Verdict::kKnownFault:
        ++ro.knownFault;
        break;
      case Verdict::kClean:
        ++ro.clean;
        break;
    }
  }
  const std::uint64_t h0 = heapBytes();
  chk.reset();
  ro.heapMb =
      static_cast<double>(h0 - std::min(h0, heapBytes())) / (1024.0 * 1024.0);
  return ro;
}

/// The per-round path counts that must repeat exactly.
std::vector<std::uint64_t> pathCounts(const StreamStats& s) {
  return {s.unitsChecked,   s.fastPathUnits,      s.certifiedUnits,
          s.escalatedUnits, s.discardedUnits,     s.rechecks,
          s.gcUnits,        s.resyncs,            s.violations,
          s.certifierAttempts, s.suppressedVerdicts, s.peakWindowUnits};
}

void verifyRound(const RoundOut& ro, const RoundOut& first, RunResult& r) {
  if (ro.clean != 0) {
    r.fail("monitor-replay: " + std::to_string(ro.clean) +
           " conviction(s) of clean units");
  }
  if (ro.planted != kPlanted) {
    r.fail("monitor-replay: " + std::to_string(ro.planted) + " of " +
           std::to_string(kPlanted) + " planted corrupt reads convicted");
  }
  if (ro.stats.fastPathUnits == 0 || ro.stats.certifiedUnits == 0 ||
      ro.stats.escalatedUnits == 0) {
    r.fail("monitor-replay: a decision path saw no units");
  }
  // A fix of gc() can only lower the known-fault count; a conviction above
  // it is a new one and fails the run.
  if (ro.knownFault > kKnownFault) {
    r.fail("monitor-replay: " + std::to_string(ro.knownFault) +
           " convictions next to the " + std::to_string(kKnownFault) +
           " fold-order patterns");
  }
  if (pathCounts(ro.stats) != pathCounts(first.stats) ||
      ro.knownFault != first.knownFault) {
    r.fail("monitor-replay: per-round path counts differ between rounds");
  }
}

}  // namespace

RunResult runMonitorReplay(const RunConfig& cfg) {
  RunResult r;
  const std::uint64_t runStart = nowNs();
  const Stream stream = makeStream(cfg.seed);
  const std::uint64_t perRound = stream.units.size();
  std::vector<double> latNs;
  latNs.reserve(1 << 21);

  std::vector<RoundOut> rounds;
  const double untracedEnd = cfg.trace ? 0.5 * cfg.seconds : cfg.seconds;
  do {
    rounds.push_back(runRound(stream, nullptr, &latNs));
    verifyRound(rounds.back(), rounds.front(), r);
  } while (secondsBetween(runStart, nowNs()) < untracedEnd);

  std::vector<double> setups, ops, app, heap;
  std::uint64_t knownFault = 0;
  for (const RoundOut& ro : rounds) {
    setups.push_back(ro.setupS);
    ops.push_back(static_cast<double>(perRound) / ro.decideS);
    app.push_back(static_cast<double>(stream.accesses) / ro.decideS);
    heap.push_back(ro.heapMb);
    knownFault += ro.knownFault;
  }
  r.attempted = rounds.size() * perRound;
  r.failed = knownFault;

  if (!cfg.trace) {
    r.put(kSetupS, median(setups), "s");
    r.put(kHeapMb, median(heap), "MB");
    r.put(kOpsS, median(ops), "ops/s");
    r.put(kP50Us, median(latNs) * 1e-3, "us");
    // The application operations here are the reads and writes the
    // stream's units carry.
    r.put(kAppOpsS, median(app), "ops/s");
    std::fprintf(stderr,
                 "monitor-replay: %zu rounds of %llu units; per round %llu "
                 "fast, %llu certified, %llu escalated, %zu known-fault "
                 "convictions\n",
                 rounds.size(), static_cast<unsigned long long>(perRound),
                 static_cast<unsigned long long>(rounds[0].stats.fastPathUnits),
                 static_cast<unsigned long long>(rounds[0].stats.certifiedUnits),
                 static_cast<unsigned long long>(rounds[0].stats.escalatedUnits),
                 rounds[0].knownFault);
    return r;
  }

  Tracer tracer;
  TraceLane* lane = tracer.newLane();
  std::vector<double> tracedOps;
  std::size_t tracedRounds = 0;
  do {
    const RoundOut ro = runRound(stream, lane, nullptr);
    verifyRound(ro, rounds.front(), r);
    tracedOps.push_back(static_cast<double>(perRound) / ro.decideS);
    r.attempted += perRound;
    r.failed += ro.knownFault;
    ++tracedRounds;
  } while (secondsBetween(runStart, nowNs()) < 0.9 * cfg.seconds);

  LayerValues layer;
  const StreamStats& s = rounds.front().stats;  // identical every round
  const auto meanUs = [&](const char* name) {
    return tracer.meanSelfNs(name) * 1e-3;
  };
  const SpanTotals confirm = tracer.totals("checker.confirm");
  const SpanTotals publish = tracer.totals("checker.publish");
  layer.set("monitor.checker.fast_ns", tracer.meanSelfNs("checker.fast"));
  layer.set("monitor.checker.cert_ns", tracer.meanSelfNs("checker.cert"));
  layer.set("monitor.checker.esc_feed_us", meanUs("checker.esc_feed"));
  layer.set("monitor.checker.finish_us", meanUs("checker.finish"));
  layer.set("monitor.checker.conviction_us",
            publish.count == 0
                ? 0.0
                : static_cast<double>(confirm.selfNs + publish.selfNs) * 1e-3 /
                      static_cast<double>(publish.count));
  layer.set("monitor.checker.fast_units", static_cast<double>(s.fastPathUnits));
  layer.set("monitor.checker.cert_units", static_cast<double>(s.certifiedUnits));
  layer.set("monitor.checker.esc_units", static_cast<double>(s.escalatedUnits));
  layer.set("monitor.checker.rechecks", static_cast<double>(s.rechecks));
  layer.set("monitor.checker.gc_units", static_cast<double>(s.gcUnits));
  layer.set("monitor.checker.resyncs", static_cast<double>(s.resyncs));
  layer.set("monitor.checker.peak_window_units",
            static_cast<double>(s.peakWindowUnits));
  layer.set("monitor.checker.violations", static_cast<double>(s.violations));
  layer.set("monitor.certifier.attempts",
            static_cast<double>(s.certifierAttempts));
  // Times vary run to run: medians over the untraced rounds.
  std::vector<double> certUs, recheckUs;
  for (const RoundOut& ro : rounds) {
    certUs.push_back(static_cast<double>(ro.stats.certifierUsTotal));
    recheckUs.push_back(static_cast<double>(ro.stats.escalationUsTotal));
  }
  layer.set("monitor.certifier.us", median(certUs));
  layer.set("opacity.recheck_us", median(recheckUs));
  layer.set("trace.overhead_pct",
            100.0 * (median(ops) / median(tracedOps) - 1.0));
  layer.set("trace.spans", static_cast<double>(tracer.spanCount()));
  std::fprintf(stderr, "monitor-replay: %zu untraced + %zu traced rounds\n",
               rounds.size(), tracedRounds);
  writeTrace(tracer, cfg, r);
  layer.emit(r);
  return r;
}

int runFoldOrderRepro(const std::string& tmKind, std::size_t intervening) {
  const jungle::monitor::MonitorClaim* c = nullptr;
  jungle::monitor::MonitorClaim found;
  for (jungle::TmKind k : jungle::allTmKinds()) {
    if (tmKind == jungle::tmKindName(k)) {
      found = jungle::monitor::monitorModelFor(k);
      c = &found;
    }
  }
  if (c == nullptr) {
    std::fprintf(stderr, "unknown TM kind '%s'\n", tmKind.c_str());
    return -1;
  }
  StreamBuilder b(1, /*firstPlainVar=*/1);
  b.preemptedWriter(0, intervening);
  for (std::size_t j = 0; j < kSettleTail; ++j) b.plain();
  std::vector<StreamUnit> units = b.take();
  const std::size_t fed = units.size();
  StreamChecker chk(checkerOptions(*c));
  for (StreamUnit& u : units) {
    chk.feed(std::move(u));
    if (chk.hasPendingConviction()) chk.onQuiescent();
  }
  chk.finish();
  const std::size_t n = chk.violations().size();
  std::printf("claim %s, %zu intervening units, %zu units fed: %s\n",
              tmKind.c_str(), intervening, fed,
              n == 0 ? "not convicted" : "CONVICTED");
  for (const auto& v : chk.violations()) {
    std::printf("  %s\n", v.description.c_str());
  }
  return static_cast<int>(n);
}

}  // namespace jbench
