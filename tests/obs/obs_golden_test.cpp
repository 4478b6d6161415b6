// Golden pins for every meltrace output that goes through the trace
// reader: summarize (text and mel.summary/1 JSON), the reconstructed
// comm matrix, diff text, replay digest and critical-path JSON, each as
// an FNV-1a hash over a small recorded trace of one backend or fault
// scenario. The hashes were captured before the trace reader was
// rewritten and must never move when the reader changes: a reader
// refactor that changes a single byte of any output fails here.
//
// The schema-violation fixtures pin the exact violation strings too.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "mel/gen/generators.hpp"
#include "mel/match/driver.hpp"
#include "mel/obs/analysis.hpp"
#include "mel/obs/critical.hpp"
#include "mel/obs/recorder.hpp"
#include "mel/obs/replay.hpp"

namespace mel::obs {
namespace {

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

enum class Scenario { kPlain, kLossy, kCrash };

/// One self-contained trace, recorded exactly as `melsim --trace` does.
std::string record(match::Model model, Scenario scenario) {
  const auto g = gen::erdos_renyi(300, 2100, 11);
  Recorder rec;
  match::RunConfig cfg;
  cfg.tracer = &rec;
  cfg.sample_interval_ns = 100000;  // counter tracks ("C" events)
  if (scenario == Scenario::kLossy) {
    cfg.net.chaos.loss = 0.15;  // ft flows + instants that reference them
    cfg.net.chaos.seed = 5;
  } else if (scenario == Scenario::kCrash) {
    const auto clean = match::run_match(g, 8, model, {});
    cfg.ft.enabled = true;
    cfg.ft.checkpoint_ns = clean.time / 8;
    cfg.net.chaos.crashes.push_back({/*rank=*/2, /*at=*/clean.time / 2});
  }
  rec.set_run_info("match", match::model_name(model), 8, 11);
  rec.set_net_params(cfg.net);
  const auto run = match::run_match(g, 8, model, cfg);
  rec.set_run_result(run.time, run.trace_hash, run.sim_events);
  return rec.to_chrome_json();
}

struct Pin {
  const char* label;
  match::Model model;
  Scenario scenario;
  std::uint64_t summary_json;
  std::uint64_t summary_text;
  std::uint64_t matrix;
  std::uint64_t diff_vs_nsr;
  std::uint64_t replay_digest;
  std::uint64_t critical_json;
};

constexpr Pin kPins[] = {
    {"NSR", match::Model::kNsr, Scenario::kPlain,
     0x2256d016ef761794ull, 0xe8dc47fd50e0923bull, 0xd33f8bd4593fd2faull,
     0x848182bef8447f20ull, 0x27ef21085b3f2035ull, 0x9fc35a12f15daed4ull},
    {"RMA", match::Model::kRma, Scenario::kPlain,
     0x4b1125aa1ebeba00ull, 0xfcd4528ebc341ea4ull, 0x8e42ada09485546dull,
     0x30da67d0ebcfbca3ull, 0x396ce48e722ab447ull, 0x82bbde081df2cb70ull},
    {"NCL", match::Model::kNcl, Scenario::kPlain,
     0xa740531b0a9112dcull, 0x3445c4f2f0231ef5ull, 0xa07d329227ebf5e6ull,
     0x6d52d04615c9c2e1ull, 0xfcab0a705ebb0f54ull, 0x91753c6bc601ba1cull},
    {"NCL-PERSIST", match::Model::kNclPersist, Scenario::kPlain,
     0x499e83e669eeacc7ull, 0xa060104f02355afbull, 0x41024fb657332191ull,
     0x0f927b8a0de74babull, 0xd36387dabeb4e439ull, 0x6063fe199ccc23deull},
    {"NSR-lossy", match::Model::kNsr, Scenario::kLossy,
     0x5a05c4954f4173acull, 0x04cca083c35d9d9dull, 0xa2cc5b01faba15cfull,
     0x7b3a0a6b94de23b1ull, 0xaae398885bf6ebacull, 0xb52d7c515d487d33ull},
    {"NSR-crash", match::Model::kNsr, Scenario::kCrash,
     0xb2ad08844921fc84ull, 0x8685a53f6b745853ull, 0xea0ef2ab5dc8805cull,
     0x0ff447ecc5069400ull, 0x0b103213568e1c86ull, 0xc0d5639890e18144ull},
};

TEST(ObsGolden, ReaderOutputsArePinned) {
  const TraceStats nsr =
      analyze_trace_text(record(match::Model::kNsr, Scenario::kPlain));
  for (const Pin& pin : kPins) {
    const std::string text = record(pin.model, pin.scenario);
    const TraceStats stats = analyze_trace_text(text, 10);
    EXPECT_EQ(fnv1a(summarize_json(stats)), pin.summary_json) << pin.label;
    EXPECT_EQ(fnv1a(summarize(stats)), pin.summary_text) << pin.label;
    EXPECT_EQ(fnv1a(matrix_json(stats.to_comm_matrix())), pin.matrix)
        << pin.label;
    EXPECT_EQ(fnv1a(diff(nsr, stats, "NSR", pin.label)), pin.diff_vs_nsr)
        << pin.label;
    const Replayer rp(load_replay_trace_text(text));
    EXPECT_EQ(rp.replay().digest, pin.replay_digest) << pin.label;
    EXPECT_EQ(fnv1a(critical_json(critical_path(rp), rp.trace(), 10)),
              pin.critical_json)
        << pin.label;
  }
}

TEST(ObsGolden, SchemaViolationsArePinned) {
  using V = std::vector<std::string>;
  // Dangling flow: started, never finished.
  EXPECT_EQ(analyze_trace_text(
                R"({"traceEvents":[{"name":"p2p","ph":"s","ts":1.0,"pid":0,)"
                R"("tid":0,"id":5}]})")
                .errors,
            V{"1 dangling flow id(s): started but never finished"});
  // Finish before start.
  EXPECT_EQ(analyze_trace_text(
                R"({"traceEvents":[)"
                R"({"name":"p2p","ph":"s","ts":9.0,"pid":0,"tid":0,"id":1},)"
                R"({"name":"p2p","ph":"f","bp":"e","ts":2.0,"pid":0,"tid":1,)"
                R"("id":1}]})")
                .errors,
            V{"flow 1 finishes at 2000ns before its start at 9000ns"});
  // Missing ts.
  EXPECT_EQ(analyze_trace_text(R"({"traceEvents":[{"name":"x","ph":"X",)"
                               R"("pid":0,"tid":0,"dur":1.0}]})")
                .errors,
            V{"event missing numeric ts/pid/tid (event 0)"});
  // Instant referencing a flow id that never started.
  EXPECT_EQ(
      analyze_trace_text(
          R"({"traceEvents":[{"name":"ft-ack","cat":"instant","ph":"i",)"
          R"("s":"t","ts":1.0,"pid":0,"tid":0,"args":{"flow":99}}]})")
          .errors,
      V{"instant references unknown flow id 99"});
}

// Hand-built documents that exercise the reader's corner cases: first
// member wins on duplicate keys (as Value::find), escaped strings decode
// exactly as json::parse does, top-k ties keep stream order, and every
// per-event violation kind is reported in stream order.
TEST(ObsGolden, CornerCaseDocumentsArePinned) {
  const std::string dup =
      R"({"otherData":{"ranks":3},"traceEvents":[)"
      R"({"name":"abc","name":"zz","ph":"X","ts":1,"ts":"x","pid":0,)"
      R"("tid":1,"dur":2,"dur":-1},)"
      R"({"name":"q\"\\\/\n","ph":"C","ts":1.5,"pid":0,"tid":2,)"
      R"("args":{"v":1,"v":"x"}},)"
      R"({"name":"p2p","cat":"flow","ph":"s","ts":2,"pid":0,"tid":0,"id":7,)"
      R"("args":{"bytes":40,"bytes":9},"args":{"bytes":1}},)"
      R"({"name":"p2p","cat":"flow","ph":"f","ts":3,"pid":0,"tid":1,"id":7},)"
      R"({"name":"wire","cat":"wire","ph":"i","ts":2,"pid":0,"tid":0,)"
      R"("args":{"src":0,"dst":2,"bytes":40}},)"
      R"({"name":"ft-ack","cat":"instant","ph":"i","ts":4,"pid":0,"tid":3,)"
      R"("args":{"x":1},"args":{"flow":99}}],)"
      R"("traceEvents":5,"otherData":{"ranks":9}})";
  EXPECT_EQ(summarize_json(analyze_trace_text(dup)),
            R"j({"schema":"mel.summary/1","events":6,"nranks":3,"max_ran)j"
            R"j(k":3,"ts_min_ns":1000,"ts_max_ns":4000,"violations":[],")j"
            R"j(dangling_flows":0,"spans_by_category":{"abc":{"count":1,)j"
            R"j("total_ns":2000,"max_ns":2000}},"spans_by_rank":{"1":{"c)j"
            R"j(ount":1,"total_ns":2000,"max_ns":2000}},"flows_by_class")j"
            R"j(:{"p2p":{"count":1,"ended":1,"bytes":40,"total_latency_n)j"
            R"j(s":1000}},"top_spans":[{"category":"abc","rank":1,"start)j"
            R"j(_ns":1000,"dur_ns":2000}],"instants":{"ft-ack":1},"count)j"
            R"j(er_tracks":{"q\"\\/\n":1},"wire":{"pairs":1,"msgs":1,"by)j"
            R"j(tes":40}})j");

  const std::string ties =
      R"({"traceEvents":[)"
      R"({"name":"a","ph":"X","ts":1,"pid":0,"tid":0,"dur":5},)"
      R"({"name":"b","ph":"X","ts":2,"pid":0,"tid":1,"dur":3},)"
      R"({"name":"c","ph":"X","ts":3,"pid":0,"tid":2,"dur":5},)"
      R"({"name":"d","ph":"X","ts":4,"pid":0,"tid":3,"dur":3},)"
      R"({"name":"e","ph":"X","ts":5,"pid":0,"tid":4,"dur":5},)"
      R"({"name":"f","cat":"op","ph":"i","ts":6,"pid":0,"tid":5}]})";
  EXPECT_EQ(summarize_json(analyze_trace_text(ties, 2)),
            R"j({"schema":"mel.summary/1","events":6,"nranks":0,"max_ran)j"
            R"j(k":5,"ts_min_ns":1000,"ts_max_ns":6000,"violations":[],")j"
            R"j(dangling_flows":0,"spans_by_category":{"a":{"count":1,"t)j"
            R"j(otal_ns":5000,"max_ns":5000},"b":{"count":1,"total_ns":3)j"
            R"j(000,"max_ns":3000},"c":{"count":1,"total_ns":5000,"max_n)j"
            R"j(s":5000},"d":{"count":1,"total_ns":3000,"max_ns":3000},")j"
            R"j(e":{"count":1,"total_ns":5000,"max_ns":5000},"f":{"count)j"
            R"j(":1,"total_ns":0,"max_ns":0}},"spans_by_rank":{"0":{"cou)j"
            R"j(nt":1,"total_ns":5000,"max_ns":5000},"1":{"count":1,"tot)j"
            R"j(al_ns":3000,"max_ns":3000},"2":{"count":1,"total_ns":500)j"
            R"j(0,"max_ns":5000},"3":{"count":1,"total_ns":3000,"max_ns")j"
            R"j(:3000},"4":{"count":1,"total_ns":5000,"max_ns":5000},"5")j"
            R"j(:{"count":1,"total_ns":0,"max_ns":0}},"flows_by_class":{)j"
            R"j(},"top_spans":[{"category":"a","rank":0,"start_ns":1000,)j"
            R"j("dur_ns":5000},{"category":"c","rank":2,"start_ns":3000,)j"
            R"j("dur_ns":5000}],"instants":{},"counter_tracks":{},"wire")j"
            R"j(:{"pairs":0,"msgs":0,"bytes":0}})j");
  EXPECT_EQ(summarize_json(analyze_trace_text(ties, 4)),
            R"j({"schema":"mel.summary/1","events":6,"nranks":0,"max_ran)j"
            R"j(k":5,"ts_min_ns":1000,"ts_max_ns":6000,"violations":[],")j"
            R"j(dangling_flows":0,"spans_by_category":{"a":{"count":1,"t)j"
            R"j(otal_ns":5000,"max_ns":5000},"b":{"count":1,"total_ns":3)j"
            R"j(000,"max_ns":3000},"c":{"count":1,"total_ns":5000,"max_n)j"
            R"j(s":5000},"d":{"count":1,"total_ns":3000,"max_ns":3000},")j"
            R"j(e":{"count":1,"total_ns":5000,"max_ns":5000},"f":{"count)j"
            R"j(":1,"total_ns":0,"max_ns":0}},"spans_by_rank":{"0":{"cou)j"
            R"j(nt":1,"total_ns":5000,"max_ns":5000},"1":{"count":1,"tot)j"
            R"j(al_ns":3000,"max_ns":3000},"2":{"count":1,"total_ns":500)j"
            R"j(0,"max_ns":5000},"3":{"count":1,"total_ns":3000,"max_ns")j"
            R"j(:3000},"4":{"count":1,"total_ns":5000,"max_ns":5000},"5")j"
            R"j(:{"count":1,"total_ns":0,"max_ns":0}},"flows_by_class":{)j"
            R"j(},"top_spans":[{"category":"a","rank":0,"start_ns":1000,)j"
            R"j("dur_ns":5000},{"category":"c","rank":2,"start_ns":3000,)j"
            R"j("dur_ns":5000},{"category":"e","rank":4,"start_ns":5000,)j"
            R"j("dur_ns":5000},{"category":"b","rank":1,"start_ns":2000,)j"
            R"j("dur_ns":3000}],"instants":{},"counter_tracks":{},"wire")j"
            R"j(:{"pairs":0,"msgs":0,"bytes":0}})j");
  EXPECT_EQ(summarize_json(analyze_trace_text(ties, 0)),
            R"j({"schema":"mel.summary/1","events":6,"nranks":0,"max_ran)j"
            R"j(k":5,"ts_min_ns":1000,"ts_max_ns":6000,"violations":[],")j"
            R"j(dangling_flows":0,"spans_by_category":{"a":{"count":1,"t)j"
            R"j(otal_ns":5000,"max_ns":5000},"b":{"count":1,"total_ns":3)j"
            R"j(000,"max_ns":3000},"c":{"count":1,"total_ns":5000,"max_n)j"
            R"j(s":5000},"d":{"count":1,"total_ns":3000,"max_ns":3000},")j"
            R"j(e":{"count":1,"total_ns":5000,"max_ns":5000},"f":{"count)j"
            R"j(":1,"total_ns":0,"max_ns":0}},"spans_by_rank":{"0":{"cou)j"
            R"j(nt":1,"total_ns":5000,"max_ns":5000},"1":{"count":1,"tot)j"
            R"j(al_ns":3000,"max_ns":3000},"2":{"count":1,"total_ns":500)j"
            R"j(0,"max_ns":5000},"3":{"count":1,"total_ns":3000,"max_ns")j"
            R"j(:3000},"4":{"count":1,"total_ns":5000,"max_ns":5000},"5")j"
            R"j(:{"count":1,"total_ns":0,"max_ns":0}},"flows_by_class":{)j"
            R"j(},"top_spans":[],"instants":{},"counter_tracks":{},"wire)j"
            R"j(":{"pairs":0,"msgs":0,"bytes":0}})j");

  const std::string bad_events =
      R"({"traceEvents":[1,"s",[],{"ph":"X"},{"name":"n","ph":"XX"},)"
      R"({"name":"n","ph":"Q"},{"name":"m","ph":"M"},)"
      R"({"name":"x","ph":"X","ts":1,"pid":0,"tid":0,"dur":-2},)"
      R"({"name":"s","ph":"s","ts":1,"pid":0,"tid":0},)"
      R"({"name":"c","ph":"C","ts":1,"pid":0,"tid":0,"args":{}},)"
      R"({"name":"w","cat":"wire","ph":"i","ts":1,"pid":0,"tid":0,)"
      R"("args":{"src":0,"dst":"1","bytes":3}},)"
      R"({"name":"t","ph":"t","ts":1,"pid":0,"tid":0,"id":4},)"
      R"({"name":"s","ph":"s","ts":1,"pid":0,"tid":0,"id":4},)"
      R"({"name":"s","ph":"s","ts":1,"pid":0,"tid":0,"id":4},)"
      R"({"name":"f","ph":"f","ts":1,"pid":0,"tid":0,"id":4},)"
      R"({"name":"f","ph":"f","ts":1,"pid":0,"tid":0,"id":4},)"
      R"({"name":"g","ph":"f","ts":1,"pid":0,"tid":0,"id":6},)"
      R"({"name":"z","ph":"i","ts":1,"pid":0,"tid":0,"args":{"flow":0}}]})";
  EXPECT_EQ(summarize_json(analyze_trace_text(bad_events)),
            R"j({"schema":"mel.summary/1","events":12,"nranks":0,"max_ra)j"
            R"j(nk":0,"ts_min_ns":1000,"ts_max_ns":1000,"violations":["t)j"
            R"j(raceEvents entry is not an object (event 0)","traceEvent)j"
            R"j(s entry is not an object (event 1)","traceEvents entry i)j"
            R"j(s not an object (event 2)","event without a string name/)j"
            R"j(ph (event 3)","event without a string name/ph (event 4)")j"
            R"j(,"unknown phase 'Q' (event 5)","X event without a non-ne)j"
            R"j(gative dur (event 7)","flow event without an id (event 8)j"
            R"j()","C event without a numeric args value (event 9)","wir)j"
            R"j(e event without numeric args src/dst/bytes (event 10)",")j"
            R"j(flow 4 has 2 start events","flow 4 has 2 finish events",)j"
            R"j("flow 6 has steps/finish but no start","instant referenc)j"
            R"j(es unknown flow id 0"],"dangling_flows":0,"spans_by_cate)j"
            R"j(gory":{},"spans_by_rank":{},"flows_by_class":{"s":{"coun)j"
            R"j(t":1,"ended":1,"bytes":0,"total_latency_ns":0}},"top_spa)j"
            R"j(ns":[],"instants":{"z":1},"counter_tracks":{},"wire":{"p)j"
            R"j(airs":0,"msgs":0,"bytes":0}})j");

  // Duplicate root members: the first traceEvents decides.
  EXPECT_EQ(summarize_json(
                analyze_trace_text(R"({"traceEvents":[],"traceEvents":[1]})")),
            summarize_json(analyze_trace_text(R"({"traceEvents":[]})")));
  EXPECT_EQ(
      analyze_trace_text(R"({"traceEvents":5,"traceEvents":[]})").errors,
      std::vector<std::string>{"missing or non-array traceEvents"});

  EXPECT_EQ(summarize_json(analyze_trace_text("[1,2,3]")),
            R"j({"schema":"mel.summary/1","events":0,"nranks":0,"max_ran)j"
            R"j(k":-1,"ts_min_ns":0,"ts_max_ns":0,"violations":["root is)j"
            R"j( not a JSON object"],"dangling_flows":0,"spans_by_catego)j"
            R"j(ry":{},"spans_by_rank":{},"flows_by_class":{},"top_spans)j"
            R"j(":[],"instants":{},"counter_tracks":{},"wire":{"pairs":0)j"
            R"j(,"msgs":0,"bytes":0}})j");
  EXPECT_EQ(summarize_json(analyze_trace_text(R"({"traceEvents":{}})")),
            R"j({"schema":"mel.summary/1","events":0,"nranks":0,"max_ran)j"
            R"j(k":-1,"ts_min_ns":0,"ts_max_ns":0,"violations":["missing)j"
            R"j( or non-array traceEvents"],"dangling_flows":0,"spans_by)j"
            R"j(_category":{},"spans_by_rank":{},"flows_by_class":{},"to)j"
            R"j(p_spans":[],"instants":{},"counter_tracks":{},"wire":{"p)j"
            R"j(airs":0,"msgs":0,"bytes":0}})j");
  EXPECT_EQ(summarize_json(analyze_trace_text(R"({"otherData":{"ranks":4}})")),
            R"j({"schema":"mel.summary/1","events":0,"nranks":0,"max_ran)j"
            R"j(k":-1,"ts_min_ns":0,"ts_max_ns":0,"violations":["missing)j"
            R"j( or non-array traceEvents"],"dangling_flows":0,"spans_by)j"
            R"j(_category":{},"spans_by_rank":{},"flows_by_class":{},"to)j"
            R"j(p_spans":[],"instants":{},"counter_tracks":{},"wire":{"p)j"
            R"j(airs":0,"msgs":0,"bytes":0}})j");
}

}  // namespace
}  // namespace mel::obs
