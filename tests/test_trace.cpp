// SimTrace tests: schema-valid JSON, span nesting, state-transition
// legality, flow pairing, and — the load-bearing guarantee — that tracing
// on/off leaves virtual time, sim_events, and the per-query TSV content
// byte-identical across all three host-sync modes.
#include <gtest/gtest.h>

#include <cctype>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "baselines/static_engine.hpp"
#include "core/engine.hpp"
#include "core/slot.hpp"
#include "metrics/collector.hpp"
#include "simgpu/channel.hpp"
#include "simgpu/trace.hpp"
#include "test_util.hpp"

namespace algas::sim {
namespace {

// ---------------- minimal JSON syntax validator ----------------
//
// A recursive-descent checker for the JSON grammar — enough to guarantee
// Perfetto's parser will not reject the file outright. CI additionally
// runs scripts/check_trace.py (python stdlib json) for schema checks.
class JsonValidator {
 public:
  explicit JsonValidator(const std::string& s) : s_(s) {}

  bool valid() {
    ws();
    if (!value()) return false;
    ws();
    return i_ == s_.size();
  }

 private:
  void ws() {
    while (i_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[i_]))) {
      ++i_;
    }
  }
  bool consume(char c) {
    if (i_ < s_.size() && s_[i_] == c) {
      ++i_;
      return true;
    }
    return false;
  }
  bool literal(const char* lit) {
    const std::size_t n = std::char_traits<char>::length(lit);
    if (s_.compare(i_, n, lit) != 0) return false;
    i_ += n;
    return true;
  }
  bool string_() {
    if (!consume('"')) return false;
    while (i_ < s_.size()) {
      const char c = s_[i_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (i_ >= s_.size()) return false;
        const char e = s_[i_++];
        if (e == 'u') {
          for (int k = 0; k < 4; ++k) {
            if (i_ >= s_.size() ||
                !std::isxdigit(static_cast<unsigned char>(s_[i_]))) {
              return false;
            }
            ++i_;
          }
        } else if (std::string("\"\\/bfnrt").find(e) == std::string::npos) {
          return false;
        }
      } else if (static_cast<unsigned char>(c) < 0x20) {
        return false;
      }
    }
    return false;
  }
  bool number() {
    const std::size_t start = i_;
    if (i_ < s_.size() && s_[i_] == '-') ++i_;
    while (i_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[i_])) ||
            s_[i_] == '.' || s_[i_] == 'e' || s_[i_] == 'E' ||
            s_[i_] == '+' || s_[i_] == '-')) {
      ++i_;
    }
    return i_ > start;
  }
  bool object() {
    if (!consume('{')) return false;
    ws();
    if (consume('}')) return true;
    while (true) {
      ws();
      if (!string_()) return false;
      ws();
      if (!consume(':')) return false;
      ws();
      if (!value()) return false;
      ws();
      if (consume('}')) return true;
      if (!consume(',')) return false;
    }
  }
  bool array() {
    if (!consume('[')) return false;
    ws();
    if (consume(']')) return true;
    while (true) {
      ws();
      if (!value()) return false;
      ws();
      if (consume(']')) return true;
      if (!consume(',')) return false;
    }
  }
  bool value() {
    if (i_ >= s_.size()) return false;
    switch (s_[i_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string_();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }

  const std::string& s_;
  std::size_t i_ = 0;
};

std::string to_json(const Tracer& t) {
  std::ostringstream out;
  t.write_json(out);
  return out.str();
}

// ---------------- shared run helpers ----------------

core::AlgasConfig traced_engine_config(core::HostSync sync) {
  core::AlgasConfig cfg;
  cfg.search.topk = 10;
  cfg.search.candidate_len = 64;
  cfg.search.beam_width = 2;
  cfg.search.offset_beam = 16;
  cfg.slots = 4;
  cfg.host_threads = 2;
  cfg.host_sync = sync;
  return cfg;
}

/// Every per-query measurement, formatted bit-faithfully — the content the
/// bench TSVs derive from. Byte-equality here means TSV byte-equality.
std::string records_tsv(const metrics::Collector& c) {
  std::ostringstream out;
  out.precision(17);
  for (const auto& r : c.records()) {
    out << r.query_index << '\t' << r.slot << '\t' << r.arrival_ns << '\t'
        << r.dispatch_ns << '\t' << r.gpu_done_ns << '\t' << r.done_ns
        << '\t' << r.steps << '\t' << r.rounds << '\n';
  }
  return out.str();
}

core::SlotState parse_state(const std::string& s) {
  if (s == "None") return core::SlotState::kNone;
  if (s == "Work") return core::SlotState::kWork;
  if (s == "Finish") return core::SlotState::kFinish;
  if (s == "Done") return core::SlotState::kDone;
  if (s == "Quit") return core::SlotState::kQuit;
  ADD_FAILURE() << "unknown state name in trace: " << s;
  return core::SlotState::kNone;
}

// ---------------- Tracer unit behaviour ----------------

TEST(Tracer, LaneAndProcessRegistrationEmitsMetadata) {
  Tracer t;
  const int pid = t.begin_process("engine");
  const int a = t.lane(pid, "lane-a");
  const int b = t.lane(pid, "lane-b");
  EXPECT_NE(a, b);
  const int pid2 = t.begin_process("other");
  EXPECT_NE(pid, pid2);
  // Each begin_process/lane call emits name + sort_index metadata.
  EXPECT_EQ(t.events_recorded(), 8u);
  for (const auto& e : t.events()) {
    EXPECT_EQ(e.ph, TracePhase::kMetadata);
  }
}

TEST(Tracer, JsonIsSyntacticallyValid) {
  Tracer t;
  const int pid = t.begin_process("p \"quoted\"\n");
  const int tid = t.lane(pid, "lane\t1");
  TraceArgs args;
  args.add("str", "va\"lue");
  args.add("num", 1.5);
  args.add("count", std::uint64_t{7});
  t.complete(pid, tid, "span", 100.0, 50.0, std::move(args));
  t.instant(pid, tid, "mark", 120.0);
  t.counter(pid, "ctr", 130.0, 2.0);
  const std::uint64_t id = t.new_flow_id();
  t.flow_begin(pid, tid, "f", id, 100.0);
  t.flow_end(pid, tid, "f", id, 150.0);
  const std::string json = to_json(t);
  EXPECT_TRUE(JsonValidator(json).valid()) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ns\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"bp\":\"e\""), std::string::npos);
}

TEST(Tracer, TimestampsSerializeAsFixedMicroseconds) {
  Tracer t;
  const int pid = t.begin_process("p");
  const int tid = t.lane(pid, "l");
  t.complete(pid, tid, "s", 1500.0, 250.0);  // 1.5us for 0.25us
  const std::string json = to_json(t);
  EXPECT_NE(json.find("\"ts\":1.500"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":0.250"), std::string::npos);
}

TEST(Tracer, SaveRejectsUnwritablePath) {
  Tracer t;
  t.begin_process("p");
  EXPECT_THROW(t.save("/nonexistent-dir/trace.json"), std::runtime_error);
}

TEST(Tracer, ClearResetsEverything) {
  Tracer t;
  const int pid = t.begin_process("p");
  t.counter(pid, "c", 0.0, 1.0);
  t.clear();
  EXPECT_EQ(t.events_recorded(), 0u);
  EXPECT_EQ(t.begin_process("again"), 1);
}

// ---------------- Channel + StateSync emission ----------------

TEST(ChannelTrace, DataPlaneTransfersEmitLinkSpansAndFlows) {
  const CostModel cm;
  Channel ch(cm);
  Tracer t;
  const int pid = t.begin_process("chan");
  const int tid = t.lane(pid, "pcie link");
  ch.set_tracer(&t, pid, tid);
  ch.post(0.0, 4096, Xfer::kBulk);       // data plane: span + flow pair
  ch.post(10.0, 4, Xfer::kStateWrite);   // control plane: counter only
  std::size_t spans = 0, begins = 0, ends = 0, counters = 0;
  for (const auto& e : t.events()) {
    if (e.ph == TracePhase::kComplete) ++spans;
    if (e.ph == TracePhase::kFlowBegin) ++begins;
    if (e.ph == TracePhase::kFlowEnd) ++ends;
    if (e.ph == TracePhase::kCounter) ++counters;
  }
  EXPECT_EQ(spans, 1u);
  EXPECT_EQ(begins, 1u);
  EXPECT_EQ(ends, 1u);
  EXPECT_EQ(counters, 2u);  // one cumulative-bytes sample per post
}

TEST(ChannelTrace, TracingDoesNotChangeCosts) {
  const CostModel cm;
  Channel plain(cm);
  Channel traced(cm);
  Tracer t;
  const int pid = t.begin_process("chan");
  traced.set_tracer(&t, pid, t.lane(pid, "link"));
  for (int i = 0; i < 8; ++i) {
    const double at = 100.0 * i;
    EXPECT_DOUBLE_EQ(plain.post(at, 4096, Xfer::kBulk),
                     traced.post(at, 4096, Xfer::kBulk));
    EXPECT_DOUBLE_EQ(plain.transfer(at, 4, Xfer::kStatePoll),
                     traced.transfer(at, 4, Xfer::kStatePoll));
  }
  EXPECT_EQ(plain.total().bytes, traced.total().bytes);
  EXPECT_DOUBLE_EQ(plain.utilization(1000.0), traced.utilization(1000.0));
}

// ---------------- traced ALGAS runs ----------------

struct TracedRun {
  Tracer tracer;
  core::EngineReport report;
};

TracedRun traced_algas_run(core::HostSync sync, std::size_t queries = 40) {
  const auto& world = algas::testing::tiny_world();
  TracedRun out;
  auto cfg = traced_engine_config(sync);
  cfg.tracer = &out.tracer;
  core::AlgasEngine engine(world.ds, world.nsw, cfg);
  out.report = engine.run_closed_loop(queries);
  return out;
}

TEST(EngineTrace, TracedRunRecordsAllEventKinds) {
  const auto run = traced_algas_run(core::HostSync::kPollMirrored);
  EXPECT_GT(run.report.trace_events, 0u);
  EXPECT_EQ(run.report.trace_events, run.tracer.events_recorded());
  bool has_span = false, has_instant = false, has_counter = false,
       has_flow = false;
  for (const auto& e : run.tracer.events()) {
    has_span |= e.ph == TracePhase::kComplete;
    has_instant |= e.ph == TracePhase::kInstant;
    has_counter |= e.ph == TracePhase::kCounter;
    has_flow |= e.ph == TracePhase::kFlowBegin;
  }
  EXPECT_TRUE(has_span);
  EXPECT_TRUE(has_instant);
  EXPECT_TRUE(has_counter);
  EXPECT_TRUE(has_flow);
  const std::string json = to_json(run.tracer);
  EXPECT_TRUE(JsonValidator(json).valid());
}

TEST(EngineTrace, StateInstantsAreLegalFig5Transitions) {
  const auto run = traced_algas_run(core::HostSync::kPollMirrored);
  std::size_t seen = 0;
  for (const auto& e : run.tracer.events()) {
    if (e.ph != TracePhase::kInstant || e.cat != "state") continue;
    ++seen;
    const auto arrow = e.name.find("->");
    ASSERT_NE(arrow, std::string::npos) << e.name;
    const auto from = parse_state(e.name.substr(0, arrow));
    const auto to = parse_state(e.name.substr(arrow + 2));
    EXPECT_TRUE(core::is_legal_transition(from, to)) << e.name;
  }
  // Every query drives each CTA state word through Work/Finish/Done, plus
  // the final Quit round: state instants must be plentiful.
  EXPECT_GT(seen, 100u);
}

TEST(EngineTrace, SpansNestWithinEachLane) {
  const auto run = traced_algas_run(core::HostSync::kPollMirrored);
  // Group complete-spans per lane; within a lane spans must be properly
  // nested (the DES actors are serial: a lane never partially overlaps).
  std::map<std::pair<int, int>, std::vector<std::pair<double, double>>> lanes;
  for (const auto& e : run.tracer.events()) {
    if (e.ph != TracePhase::kComplete) continue;
    EXPECT_GE(e.dur_ns, 0.0);
    lanes[{e.pid, e.tid}].emplace_back(e.ts_ns, e.ts_ns + e.dur_ns);
  }
  EXPECT_GT(lanes.size(), 1u);
  constexpr double kEps = 1e-6;
  for (auto& [lane, spans] : lanes) {
    std::sort(spans.begin(), spans.end(),
              [](const auto& a, const auto& b) {
                return a.first != b.first ? a.first < b.first
                                          : a.second > b.second;
              });
    std::vector<double> open;  // stack of enclosing span ends
    for (const auto& [start, end] : spans) {
      while (!open.empty() && open.back() <= start + kEps) open.pop_back();
      if (!open.empty()) {
        EXPECT_LE(end, open.back() + kEps)
            << "partial overlap in lane (" << lane.first << ","
            << lane.second << ")";
      }
      open.push_back(end);
    }
  }
}

TEST(EngineTrace, FlowArrowsPairUp) {
  const auto run = traced_algas_run(core::HostSync::kPollMirrored);
  std::map<std::uint64_t, int> balance;
  for (const auto& e : run.tracer.events()) {
    if (e.ph == TracePhase::kFlowBegin) ++balance[e.flow_id];
    if (e.ph == TracePhase::kFlowEnd) --balance[e.flow_id];
  }
  EXPECT_FALSE(balance.empty());
  for (const auto& [id, b] : balance) {
    EXPECT_EQ(b, 0) << "unpaired flow id " << id;
  }
}

TEST(EngineTrace, DeterministicAcrossIdenticalRuns) {
  const auto a = traced_algas_run(core::HostSync::kPollMirrored);
  const auto b = traced_algas_run(core::HostSync::kPollMirrored);
  EXPECT_EQ(to_json(a.tracer), to_json(b.tracer));
}

TEST(EngineTrace, TracingPreservesVirtualTimeAndTsvAllSyncModes) {
  const auto& world = algas::testing::tiny_world();
  for (core::HostSync sync :
       {core::HostSync::kPollMirrored, core::HostSync::kPollNaive,
        core::HostSync::kBlocking}) {
    auto cfg = traced_engine_config(sync);
    core::AlgasEngine plain(world.ds, world.nsw, cfg);
    const auto rp = plain.run_closed_loop(40);

    Tracer tracer;
    cfg.tracer = &tracer;
    core::AlgasEngine traced(world.ds, world.nsw, cfg);
    const auto rt = traced.run_closed_loop(40);

    const char* mode = core::host_sync_name(sync);
    EXPECT_EQ(rp.sim_events, rt.sim_events) << mode;
    EXPECT_EQ(rp.elided_polls, rt.elided_polls) << mode;
    EXPECT_EQ(rp.pcie_transactions, rt.pcie_transactions) << mode;
    EXPECT_EQ(rp.pcie_bytes, rt.pcie_bytes) << mode;
    EXPECT_EQ(rp.host_polls, rt.host_polls) << mode;
    EXPECT_EQ(rp.summary.span_ns, rt.summary.span_ns) << mode;
    EXPECT_EQ(rp.summary.mean_service_us, rt.summary.mean_service_us)
        << mode;
    EXPECT_EQ(rp.summary.p99_latency_us, rt.summary.p99_latency_us) << mode;
    EXPECT_EQ(records_tsv(rp.collector), records_tsv(rt.collector)) << mode;
    EXPECT_EQ(rp.trace_events, 0u);
    EXPECT_GT(rt.trace_events, 0u) << mode;
  }
}

// Tracing and SimCheck must stay pure observers under every storage codec:
// a traced+checked run produces the same virtual time, PCIe accounting,
// and per-query TSV as a bare run of the same quantized dataset, and the
// trace itself is deterministic. Quantized runs are labeled with the codec
// suffix; the f32 label keeps its historical spelling.
TEST(EngineTrace, TracedCheckedRunsByteIdenticalPerStorageCodec) {
  const auto& world = algas::testing::tiny_world();
  for (StorageCodec codec : {StorageCodec::kF32, StorageCodec::kF16,
                             StorageCodec::kInt8}) {
    Dataset ds = world.ds;  // copy: the shared fixture must stay f32
    ds.set_storage(codec);
    auto cfg = traced_engine_config(core::HostSync::kPollMirrored);
    core::AlgasEngine plain(ds, world.nsw, cfg);
    const auto rp = plain.run_closed_loop(40);

    auto run_traced_checked = [&] {
      TracedRun out;
      auto tcfg = traced_engine_config(core::HostSync::kPollMirrored);
      tcfg.tracer = &out.tracer;
      SimCheck checker;
      tcfg.checker = &checker;
      core::AlgasEngine engine(ds, world.nsw, tcfg);
      out.report = engine.run_closed_loop(40);
      EXPECT_EQ(checker.run_label(),
                codec == StorageCodec::kF32
                    ? std::string("algas:poll-mirrored")
                    : std::string("algas:poll-mirrored:") +
                          storage_codec_name(codec));
      return out;
    };
    const auto rt = run_traced_checked();
    const auto rt2 = run_traced_checked();

    const char* name = storage_codec_name(codec);
    // (No assertion that the plain run is unchecked: ALGAS_SIMCHECK
    // builds check every run by default, and checking is free anyway.)
    EXPECT_GT(rt.report.simcheck_checks, 0u) << name;
    EXPECT_EQ(rp.sim_events, rt.report.sim_events) << name;
    EXPECT_EQ(rp.elided_polls, rt.report.elided_polls) << name;
    EXPECT_EQ(rp.pcie_transactions, rt.report.pcie_transactions) << name;
    EXPECT_EQ(rp.pcie_bytes, rt.report.pcie_bytes) << name;
    EXPECT_EQ(rp.summary.span_ns, rt.report.summary.span_ns) << name;
    EXPECT_EQ(records_tsv(rp.collector), records_tsv(rt.report.collector))
        << name;
    // Same codec, same run: the trace JSON is byte-identical.
    EXPECT_EQ(to_json(rt.tracer), to_json(rt2.tracer)) << name;
  }
}

// Narrower rows move fewer PCIe bytes for the same query stream — the
// storage codec must show up in the modeled transfer sizes.
TEST(EngineTrace, QuantizedRunsMoveFewerModeledBytes) {
  const auto& world = algas::testing::tiny_world();
  std::map<StorageCodec, std::uint64_t> bytes;
  for (StorageCodec codec : {StorageCodec::kF32, StorageCodec::kF16,
                             StorageCodec::kInt8}) {
    Dataset ds = world.ds;
    ds.set_storage(codec);
    auto cfg = traced_engine_config(core::HostSync::kPollMirrored);
    core::AlgasEngine engine(ds, world.nsw, cfg);
    bytes[codec] = engine.run_closed_loop(40).pcie_bytes;
  }
  EXPECT_LT(bytes[StorageCodec::kF16], bytes[StorageCodec::kF32]);
  EXPECT_LT(bytes[StorageCodec::kInt8], bytes[StorageCodec::kF16]);
}

// ---------------- traced baselines ----------------

TEST(BaselineTrace, StaticBatchShowsTheFig4Bubble) {
  const auto& world = algas::testing::tiny_world();
  baselines::StaticConfig cfg;
  cfg.search.topk = 10;
  cfg.search.candidate_len = 64;
  cfg.batch_size = 8;
  cfg.n_parallel = 2;
  Tracer tracer;
  cfg.tracer = &tracer;
  baselines::StaticBatchEngine engine(world.ds, world.cagra, cfg);
  const auto rep = engine.run_closed_loop(32);
  EXPECT_EQ(rep.trace_events, tracer.events_recorded());
  std::size_t bubbles = 0, query_spans = 0, batch_spans = 0;
  for (const auto& e : tracer.events()) {
    if (e.ph != TracePhase::kComplete) continue;
    if (e.cat == "bubble") {
      ++bubbles;
      EXPECT_GT(e.dur_ns, 0.0);
    }
    if (e.cat == "cta") ++query_spans;
    if (e.cat == "batch") ++batch_spans;
  }
  // All but each batch's slowest query wait at the barrier: with 8-query
  // batches the majority of queries must show a bubble span.
  EXPECT_GT(bubbles, 32u / 2);
  EXPECT_EQ(query_spans, 32u);
  EXPECT_EQ(batch_spans, 32u / 8);
  EXPECT_TRUE(JsonValidator(to_json(tracer)).valid());
}

TEST(BaselineTrace, AlgasSlotLanesHaveNoBubbleSpans) {
  const auto run = traced_algas_run(core::HostSync::kPollMirrored);
  for (const auto& e : run.tracer.events()) {
    EXPECT_NE(e.cat, "bubble");
  }
}

TEST(BaselineTrace, TracedAndUntracedStaticRunsAgree) {
  const auto& world = algas::testing::tiny_world();
  baselines::StaticConfig cfg;
  cfg.search.topk = 10;
  cfg.search.candidate_len = 64;
  cfg.batch_size = 8;
  cfg.n_parallel = 2;
  baselines::StaticBatchEngine plain(world.ds, world.cagra, cfg);
  const auto rp = plain.run_closed_loop(32);
  Tracer tracer;
  cfg.tracer = &tracer;
  baselines::StaticBatchEngine traced(world.ds, world.cagra, cfg);
  const auto rt = traced.run_closed_loop(32);
  EXPECT_EQ(rp.pcie_transactions, rt.pcie_transactions);
  EXPECT_EQ(rp.pcie_bytes, rt.pcie_bytes);
  EXPECT_EQ(rp.summary.span_ns, rt.summary.span_ns);
  EXPECT_EQ(records_tsv(rp.collector), records_tsv(rt.collector));
}

TEST(BaselineTrace, GannsTracesUnderItsOwnLabel) {
  const auto& world = algas::testing::tiny_world();
  baselines::StaticConfig cfg;
  cfg.search.topk = 10;
  cfg.search.candidate_len = 64;
  cfg.batch_size = 8;
  Tracer tracer;
  cfg.tracer = &tracer;
  baselines::StaticBatchEngine engine(world.ds, world.nsw,
                                      baselines::ganns_config(cfg));
  const auto rep = engine.run_closed_loop(16);
  EXPECT_EQ(rep.summary.queries, 16u);
  EXPECT_GT(rep.trace_events, 0u);
  EXPECT_NE(to_json(tracer).find("\"name\":\"ganns\""), std::string::npos);
}

// Two engines into one tracer: separate process groups, shared file — the
// side-by-side comparison the acceptance criterion asks for.
TEST(BaselineTrace, DynamicAndStaticShareOneTraceFile) {
  const auto& world = algas::testing::tiny_world();
  Tracer tracer;

  auto acfg = traced_engine_config(core::HostSync::kPollMirrored);
  acfg.tracer = &tracer;
  core::AlgasEngine dynamic(world.ds, world.nsw, acfg);
  dynamic.run_closed_loop(24);

  baselines::StaticConfig scfg;
  scfg.search.topk = 10;
  scfg.search.candidate_len = 64;
  scfg.batch_size = 8;
  scfg.n_parallel = 2;
  scfg.tracer = &tracer;
  baselines::StaticBatchEngine static_engine(world.ds, world.nsw, scfg);
  static_engine.run_closed_loop(24);

  std::vector<int> pids;
  for (const auto& e : tracer.events()) {
    if (e.ph == TracePhase::kMetadata && e.name == "process_name") {
      pids.push_back(e.pid);
    }
  }
  ASSERT_EQ(pids.size(), 2u);
  EXPECT_NE(pids[0], pids[1]);
  const std::string json = to_json(tracer);
  EXPECT_TRUE(JsonValidator(json).valid());
  EXPECT_NE(json.find("algas:poll-mirrored"), std::string::npos);
  EXPECT_NE(json.find("static-batch"), std::string::npos);
}

}  // namespace
}  // namespace algas::sim
