// perfbench_driver: runs one phase of one benchmark workload in this
// process and prints one JSON object on stdout. perfbench/run.py starts
// every phase in a process of its own, so that a phase's peak RSS is its
// own, and times the melsim/meltrace CLI children itself.
//
//   perfbench_driver PHASE --model NSR|RMA|NCL --gen rgg|rmat --seed S
//                    --whatif KEY=VALUE --budget SECONDS --min-reps N
//                    [--ref] [--out TRACE_FILE]
//   perfbench_driver ref --min-reps N
//
// Phases (each repeats its timed work at least N times and until SECONDS
// are spent, and reports every repetition; with --ref, setup, sim and
// trace time the reference kernel before each repetition):
//   ref    the reference kernel alone, N times
//   setup  graph generation + block DistGraph
//   sim    untraced run_match with the auditor on, plus one untraced run
//          under the what-if parameters (the truth replay is scored on)
//   trace  run_match with an obs::Recorder, then write_chrome_file(FILE),
//          as `melsim --trace FILE` does
//   spans  the traced run: a span around each public call into a layer,
//          mel::prof enabled on some repetitions, and the read side
//          (analyze_trace_file, load_replay_trace_file, Replayer,
//          critical_path) on FILE
//
// Every phase also checks its outputs and reports the checks it made and
// the ones that failed. Only library entry points that the CLI tools use
// are called: no json::Value overloads, no RunConfig::threads.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <optional>
#include <queue>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include <sys/mman.h>

#include "mel/gen/generators.hpp"
#include "mel/graph/dist.hpp"
#include "mel/match/driver.hpp"
#include "mel/match/verify.hpp"
#include "mel/net/params_io.hpp"
#include "mel/obs/analysis.hpp"
#include "mel/obs/critical.hpp"
#include "mel/obs/recorder.hpp"
#include "mel/obs/replay.hpp"
#include "mel/prof/prof.hpp"
#include "mel/util/cli.hpp"

using namespace mel;

namespace {

constexpr int kRanks = 128;
constexpr graph::VertexId kRggVerts = 16000;
constexpr double kRggDegree = 24.0;
constexpr int kRmatScale = 14;
constexpr int kRmatEdgeFactor = 16;
constexpr sim::Time kSampleInterval = 100000;  // melsim's --trace default
constexpr int kMaxReps = 64;

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::string fmt(const char* spec, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, spec, v);
  return buf;
}

/// An anonymous private mapping, made outside malloc, unmapped on exit.
class Mapping {
 public:
  explicit Mapping(std::size_t bytes)
      : bytes_(bytes),
        data_(mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0)) {
    if (data_ == MAP_FAILED) throw std::runtime_error("mmap failed");
  }
  ~Mapping() { munmap(data_, bytes_); }
  Mapping(const Mapping&) = delete;
  Mapping& operator=(const Mapping&) = delete;
  void* data() const { return data_; }

 private:
  std::size_t bytes_;
  void* data_;
};

// Written by the reference kernel so that its work is not elided.
volatile std::uint64_t g_reference_sink = 0;

/// The reference kernel: fixed work shaped like the simulator's (a
/// dependent walk over 16 MB feeding a binary heap, with small
/// allocations) that uses no mel++ code. run.py divides each timed sample
/// by the reference time measured next to it, which cancels much of the
/// host's minute-long speed swings; see README.md. The table is mapped
/// and filled untimed, outside malloc, and the heap stays under glibc's
/// mmap threshold, so the kernel leaves the allocator's state as it
/// found it for the phase it is interleaved with.
std::uint64_t reference_ns() {
  constexpr std::size_t kSize = std::size_t{1} << 22;
  constexpr int kSteps = 400000;
  constexpr std::size_t kHeapCap = 4000;
  const Mapping table(kSize * sizeof(std::uint32_t));
  auto* next = static_cast<std::uint32_t*>(table.data());
  // An affine map with odd increment and multiplier = 1 mod 4: one cycle
  // through all kSize slots.
  for (std::size_t i = 0; i < kSize; ++i) {
    next[i] = static_cast<std::uint32_t>((i * 2654435761u + 12345u) &
                                         (kSize - 1));
  }
  const auto t0 = now_ns();
  std::vector<std::uint64_t> storage;
  storage.reserve(kHeapCap + 1);
  std::priority_queue<std::uint64_t, std::vector<std::uint64_t>,
                      std::greater<>>
      heap(std::greater<>{}, std::move(storage));
  std::uint32_t j = 0;
  std::uint64_t sink = 0;
  for (int k = 0; k < kSteps; ++k) {
    j = next[j];
    heap.push((std::uint64_t{j} << 20) | static_cast<std::uint64_t>(k));
    if (heap.size() > kHeapCap) {
      sink += heap.top();
      heap.pop();
    }
    if ((k & 63) == 0) {
      std::vector<std::uint64_t> v(1000 + (j & 1023));
      v[j % v.size()] = sink;
      sink += v[k % v.size()];
    }
  }
  const auto t1 = now_ns();
  g_reference_sink = sink;
  return t1 - t0;
}

/// Minimal JSON object writer; every key is the benchmark's own, so no
/// escaping is needed.
class JsonObject {
 public:
  JsonObject& num(const std::string& key, std::uint64_t v) {
    return raw(key, std::to_string(v));
  }
  JsonObject& num(const std::string& key, std::int64_t v) {
    return raw(key, std::to_string(v));
  }
  JsonObject& real(const std::string& key, double v) {
    return raw(key, fmt("%.17g", v));
  }
  JsonObject& str(const std::string& key, const std::string& v) {
    return raw(key, "\"" + v + "\"");
  }
  JsonObject& list(const std::string& key,
                   const std::vector<std::uint64_t>& v) {
    std::string out = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (i) out += ",";
      out += std::to_string(v[i]);
    }
    return raw(key, out + "]");
  }
  JsonObject& raw(const std::string& key, const std::string& json) {
    if (!body_.empty()) body_ += ",";
    body_ += "\"" + key + "\":" + json;
    return *this;
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

/// Each check is one operation: counted when made, listed when failed.
struct Checks {
  std::uint64_t attempted = 0;
  std::vector<std::string> failed;

  void expect(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) failed.push_back(what);
  }
  std::string json() const {
    std::string out = "{\"attempted\":" + std::to_string(attempted) +
                      ",\"failed\":[";
    for (std::size_t i = 0; i < failed.size(); ++i) {
      if (i) out += ",";
      out += "\"" + failed[i] + "\"";
    }
    return out + "]}";
  }
};

/// Repeat at least `min_reps` times, then until `budget_s` has passed.
class Reps {
 public:
  Reps(double budget_s, int min_reps)
      : deadline_(now_ns() + static_cast<std::uint64_t>(budget_s * 1e9)),
        min_reps_(min_reps) {}
  bool next() {
    if (done_ < min_reps_ || (done_ < kMaxReps && now_ns() < deadline_)) {
      ++done_;
      return true;
    }
    return false;
  }
  bool first() const { return done_ == 1; }

 private:
  std::uint64_t deadline_;
  int min_reps_;
  int done_ = 0;
};

struct Options {
  std::string phase;
  match::Model model = match::Model::kNsr;
  std::string gen;
  std::uint64_t seed = 1;
  std::string whatif_key;
  double whatif_value = 0;
  double budget_s = 1;
  int min_reps = 1;
  bool ref = false;  // time the reference kernel before each repetition
  std::string out;
};

match::Model parse_model(const std::string& name) {
  for (const auto m : {match::Model::kNsr, match::Model::kRma,
                       match::Model::kNcl}) {
    if (name == match::model_name(m)) return m;
  }
  throw std::invalid_argument("unknown --model " + name);
}

Options parse_options(int argc, char** argv) {
  if (argc < 2) throw std::invalid_argument("missing phase");
  const util::Cli cli(argc - 1, argv + 1);
  Options o;
  o.phase = argv[1];
  o.model = parse_model(cli.get("model", ""));
  o.gen = cli.get("gen", "");
  if (o.gen != "rgg" && o.gen != "rmat") {
    throw std::invalid_argument("unknown --gen " + o.gen);
  }
  o.seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  const std::string whatif = cli.get("whatif", "");
  const auto eq = whatif.find('=');
  if (eq == std::string::npos) {
    throw std::invalid_argument("--whatif expects KEY=VALUE");
  }
  o.whatif_key = net::canonical_param_name(whatif.substr(0, eq));
  if (o.whatif_key.empty()) throw std::invalid_argument("unknown --whatif key");
  o.whatif_value = std::stod(whatif.substr(eq + 1));
  o.budget_s = cli.get_double("budget", 1.0);
  o.min_reps = static_cast<int>(cli.get_int("min-reps", 1));
  o.ref = cli.get_bool("ref", false);
  o.out = cli.get("out", "");
  return o;
}

graph::Csr make_graph(const Options& o) {
  if (o.gen == "rmat") return gen::rmat(kRmatScale, kRmatEdgeFactor, o.seed);
  return gen::random_geometric(
      kRggVerts, gen::rgg_radius_for_degree(kRggVerts, kRggDegree), o.seed);
}

match::RunConfig untraced_config() {
  match::RunConfig cfg;
  cfg.audit = true;  // the auditor throws on any conservation violation
  return cfg;
}

match::RunConfig whatif_config(const Options& o) {
  match::RunConfig cfg = untraced_config();
  net::set_param(cfg.net, o.whatif_key, o.whatif_value);
  return cfg;
}

std::string graph_json(const graph::Csr& g, const graph::DistGraph& dg) {
  std::int64_t ghost_entries = 0;
  std::uint64_t max_degree = 0;
  for (int r = 0; r < dg.nranks(); ++r) {
    ghost_entries += dg.local(r).total_ghost_edges;
    max_degree = std::max<std::uint64_t>(max_degree,
                                         dg.local(r).neighbor_ranks.size());
  }
  return JsonObject()
      .num("nverts", static_cast<std::int64_t>(g.nverts()))
      .num("nedges", static_cast<std::int64_t>(g.nedges()))
      .num("cross_edges", ghost_entries / 2)  // each is counted at both ends
      .num("max_process_degree", max_degree)
      .str();
}

/// Fills in the matched weight (as melsim does) and checks validity,
/// maximality and a complete (crash-free) run.
void check_run(Checks& c, const graph::Csr& g, match::RunResult& r,
               const std::string& label) {
  r.matching.weight = match::matching_weight(g, r.matching.mate);
  c.expect(r.failed_ranks.empty(), label + ": ranks failed");
  c.expect(match::is_valid_matching(g, r.matching.mate),
           label + ": matching is not valid");
  c.expect(match::is_maximal_matching(g, r.matching.mate),
           label + ": matching is not maximal");
}

/// A repetition must reproduce the first one bit for bit.
void check_same(Checks& c, const match::RunResult& first,
                const match::RunResult& r, const std::string& label) {
  c.expect(r.trace_hash == first.trace_hash && r.time == first.time &&
               r.sim_events == first.sim_events &&
               r.matching.mate == first.matching.mate,
           label + ": trace_hash/time/events/mates differ between runs");
}

std::string run_json(const match::RunResult& r) {
  const auto& t = r.totals;
  return JsonObject()
      .num("events", r.sim_events)
      .num("virtual_ns", static_cast<std::int64_t>(r.time))
      .num("trace_hash", r.trace_hash)
      .num("iterations", r.iterations)
      .num("cardinality", static_cast<std::int64_t>(r.matching.cardinality))
      .real("weight", r.matching.weight)
      .str("csv_seconds", fmt("%.6f", r.seconds()))
      .str("csv_weight", fmt("%.3f", r.matching.weight))
      .num("isends", t.isends)
      .num("recvs", t.recvs)
      .num("iprobes", t.iprobes)
      .num("puts", t.puts)
      .num("flushes", t.flushes)
      .num("neighbor_colls", t.neighbor_colls)
      .num("allreduces", t.allreduces)
      .num("payload_bytes", t.bytes_sent + t.bytes_put + t.bytes_coll)
      .str();
}

/// Configures `rec` the way melsim --trace does and returns the config.
match::RunConfig traced_config(const Options& o, obs::Recorder& rec) {
  match::RunConfig cfg = untraced_config();
  cfg.tracer = &rec;
  cfg.sample_interval_ns = kSampleInterval;
  rec.set_run_info("match", match::model_name(o.model), kRanks, o.seed);
  rec.set_net_params(cfg.net);
  return cfg;
}

std::string recorder_json(const obs::Recorder& rec) {
  return JsonObject()
      .num("spans", static_cast<std::uint64_t>(rec.spans().size()))
      .num("flows", static_cast<std::uint64_t>(rec.flows().size()))
      .num("instants", static_cast<std::uint64_t>(rec.instants().size()))
      .num("samples", static_cast<std::uint64_t>(rec.samples().size()))
      .str();
}

// ---------------------------------------------------------------- phases

std::string phase_setup(const Options& o, Checks& c) {
  std::vector<std::uint64_t> gen_ns, dist_ns, ref_ns;
  std::string graph, first_graph;
  Reps reps(o.budget_s, o.min_reps);
  while (reps.next()) {
    if (o.ref) ref_ns.push_back(reference_ns());
    const auto t0 = now_ns();
    const graph::Csr g = make_graph(o);
    const auto t1 = now_ns();
    const graph::DistGraph dg(g, kRanks);
    const auto t2 = now_ns();
    gen_ns.push_back(t1 - t0);
    dist_ns.push_back(t2 - t1);
    graph = graph_json(g, dg);
    if (reps.first()) first_graph = graph;
    c.expect(graph == first_graph, "setup: graph differs between repetitions");
  }
  return JsonObject()
      .raw("graph", graph)
      .list("gen_ns", gen_ns)
      .list("dist_ns", dist_ns)
      .list("ref_ns", ref_ns)
      .str();
}

std::string phase_sim(const Options& o, Checks& c) {
  const graph::Csr g = make_graph(o);
  const graph::DistGraph dg(g, kRanks);
  const match::RunConfig cfg = untraced_config();
  c.expect(cfg.audit, "sim: RunConfig::audit is off");
  std::vector<std::uint64_t> run_ns, ref_ns;
  match::RunResult first;
  Reps reps(o.budget_s, o.min_reps);
  while (reps.next()) {
    if (o.ref) ref_ns.push_back(reference_ns());
    const auto t0 = now_ns();
    match::RunResult r = match::run_match(dg, o.model, cfg);
    run_ns.push_back(now_ns() - t0);
    check_run(c, g, r, "sim");
    if (reps.first()) {
      first = std::move(r);
    } else {
      check_same(c, first, r, "sim");
    }
  }
  match::RunResult w = match::run_match(dg, o.model, whatif_config(o));
  check_run(c, g, w, "sim what-if");
  c.expect(w.matching.weight == first.matching.weight,
           "sim what-if: matched weight moved with the network parameters");
  return JsonObject()
      .raw("run", run_json(first))
      .num("whatif_virtual_ns", static_cast<std::int64_t>(w.time))
      .list("run_ns", run_ns)
      .list("ref_ns", ref_ns)
      .str();
}

std::string phase_trace(const Options& o, Checks& c) {
  const graph::Csr g = make_graph(o);
  const graph::DistGraph dg(g, kRanks);
  std::vector<std::uint64_t> run_ns, write_ns, ref_ns;
  match::RunResult first;
  std::uintmax_t first_bytes = 0;
  std::string counts;
  Reps reps(o.budget_s, o.min_reps);
  while (reps.next()) {
    if (o.ref) ref_ns.push_back(reference_ns());
    obs::Recorder rec;
    const match::RunConfig cfg = traced_config(o, rec);
    const auto t0 = now_ns();
    match::RunResult r = match::run_match(dg, o.model, cfg);
    const auto t1 = now_ns();
    rec.set_run_result(r.time, r.trace_hash, r.sim_events);
    rec.write_chrome_file(o.out);
    const auto t2 = now_ns();
    run_ns.push_back(t1 - t0);
    write_ns.push_back(t2 - t1);
    const auto bytes = std::filesystem::file_size(o.out);
    check_run(c, g, r, "trace");
    if (reps.first()) {
      first = std::move(r);
      first_bytes = bytes;
      counts = recorder_json(rec);
    } else {
      check_same(c, first, r, "trace");
      c.expect(bytes == first_bytes, "trace: file size differs between "
                                     "repetitions");
    }
  }
  return JsonObject()
      .raw("run", run_json(first))
      .raw("recorder", counts)
      .num("trace_bytes", static_cast<std::uint64_t>(first_bytes))
      .list("run_ns", run_ns)
      .list("write_ns", write_ns)
      .list("ref_ns", ref_ns)
      .str();
}

/// Spans recorded by the benchmark around each call into a layer: name,
/// start, end and the enclosing span. Kept in memory, printed at the end.
class SpanLog {
 public:
  template <class F>
  auto time(const char* name, F&& f) {
    const std::size_t id = open(name);
    if constexpr (std::is_void_v<std::invoke_result_t<F>>) {
      f();
      close(id);
    } else {
      auto result = f();
      close(id);
      return result;
    }
  }
  std::size_t open(const char* name) {
    spans_.push_back({name, stack_.empty() ? -1 : stack_.back(), now_ns(), 0});
    stack_.push_back(static_cast<std::int64_t>(spans_.size() - 1));
    return spans_.size() - 1;
  }
  void close(std::size_t id) {
    spans_[id].end = now_ns();
    stack_.pop_back();
  }
  std::string json() const {
    std::string out = "[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      if (i) out += ",";
      out += JsonObject()
                 .str("name", spans_[i].name)
                 .num("parent", spans_[i].parent)
                 .num("start_ns", spans_[i].start)
                 .num("end_ns", spans_[i].end)
                 .str();
    }
    return out + "]";
  }

 private:
  struct Span {
    const char* name;
    std::int64_t parent;
    std::uint64_t start;
    std::uint64_t end;
  };
  std::vector<Span> spans_;
  std::vector<std::int64_t> stack_;
};

std::string prof_json() {
  JsonObject o;
  for (int i = 0; i < prof::kSectionCount; ++i) {
    const auto s = static_cast<prof::Section>(i);
    const prof::Stats st = prof::section_stats(s);
    o.raw(prof::section_name(s), JsonObject()
                                     .num("calls", st.calls)
                                     .num("ns", st.ns)
                                     .str());
  }
  return o.str();
}

std::string phase_spans(const Options& o, Checks& c) {
  SpanLog log;
  std::string prof_reps = "[";
  JsonObject out;
  // The budget is shared out over the sub-phases; the read side dominates.
  const double b = o.budget_s;

  std::optional<graph::Csr> g;
  std::optional<graph::DistGraph> dg;
  {
    const auto phase = log.open("phase.setup");
    Reps reps(0.05 * b, o.min_reps);
    while (reps.next()) {
      dg.reset();
      g = log.time("gen.graph", [&] { return make_graph(o); });
      log.time("graph.distribute", [&] { dg.emplace(*g, kRanks); });
    }
    log.close(phase);
    out.raw("graph", graph_json(*g, *dg));
  }

  match::RunResult first;
  {
    const auto phase = log.open("phase.sim");
    const match::RunConfig cfg = untraced_config();
    Reps reps(0.15 * b, o.min_reps);
    while (reps.next()) {
      // Scales this run's times against the sim child's (span overhead).
      log.time("bench.reference", reference_ns);
      match::RunResult r = log.time(
          "match.run_match", [&] { return match::run_match(*dg, o.model, cfg); });
      log.time("match.verify", [&] { check_run(c, *g, r, "spans"); });
      if (reps.first()) {
        first = std::move(r);
      } else {
        check_same(c, first, r, "spans");
      }
    }
    Reps prof_rep(0.15 * b, o.min_reps);
    bool any = false;
    while (prof_rep.next()) {
      prof::reset();
      prof::set_enabled(true);
      const match::RunResult r = log.time("match.run_match.prof", [&] {
        return match::run_match(*dg, o.model, cfg);
      });
      prof::set_enabled(false);
      check_same(c, first, r, "spans with mel::prof");
      prof_reps += std::string(any ? "," : "") + prof_json();
      any = true;
    }
    prof_reps += "]";
    match::RunResult w = log.time("match.run_match.whatif", [&] {
      return match::run_match(*dg, o.model, whatif_config(o));
    });
    check_run(c, *g, w, "spans what-if");
    out.num("whatif_virtual_ns", static_cast<std::int64_t>(w.time));
    log.close(phase);
  }
  out.raw("run", run_json(first));

  {
    const auto phase = log.open("phase.trace");
    Reps reps(0.2 * b, std::max(1, o.min_reps - 1));
    while (reps.next()) {
      obs::Recorder rec;
      const match::RunConfig cfg = traced_config(o, rec);
      const match::RunResult r = log.time("obs.run_match_traced", [&] {
        return match::run_match(*dg, o.model, cfg);
      });
      check_same(c, first, r, "spans traced");
      rec.set_run_result(r.time, r.trace_hash, r.sim_events);
      log.time("obs.write_chrome_file", [&] { rec.write_chrome_file(o.out); });
      if (reps.first()) out.raw("recorder", recorder_json(rec));
    }
    log.close(phase);
  }
  dg.reset();
  g.reset();

  {
    const auto phase = log.open("phase.read");
    Reps reps(0.45 * b, 1);
    while (reps.next()) {
      {
        const auto sum = log.open("obs.summarize");
        const obs::TraceStats stats = log.time(
            "obs.analyze_trace_file", [&] { return obs::analyze_trace_file(o.out); });
        log.time("obs.summarize_json", [&] { return obs::summarize_json(stats); });
        log.close(sum);
        c.expect(stats.errors.empty(), "spans: trace has violations");
        c.expect(stats.dangling_flows == 0, "spans: trace has dangling flows");
      }
      obs::ReplayTrace trace = log.time("obs.load_replay_trace_file", [&] {
        return obs::load_replay_trace_file(o.out);
      });
      const obs::Replayer replayer = log.time(
          "obs.replayer_build", [&] { return obs::Replayer(std::move(trace)); });
      net::Params params = replayer.trace().net;
      net::set_param(params, o.whatif_key, o.whatif_value);
      const obs::ReplayResult rr =
          log.time("obs.replay", [&] { return replayer.replay(params); });
      const auto errors =
          log.time("obs.fidelity_errors", [&] { return replayer.fidelity_errors(); });
      c.expect(errors.empty(), "spans: Replayer::fidelity_errors() not empty");
      const obs::CriticalPath cp =
          log.time("obs.critical_path", [&] { return obs::critical_path(replayer); });
      c.expect(cp.total_ns == replayer.trace().run_time_ns,
               "spans: critical path does not sum to the recorded total");
      c.expect(replayer.trace().run_time_ns == first.time,
               "spans: recorded total differs from the simulated time");
      if (reps.first()) {
        out.raw("replay", JsonObject()
                              .num("recorded_total_ns",
                                   static_cast<std::int64_t>(
                                       replayer.trace().run_time_ns))
                              .num("replayed_total_ns",
                                   static_cast<std::int64_t>(rr.total_ns))
                              .num("anchors", static_cast<std::uint64_t>(
                                                  replayer.anchors().size()))
                              .str());
      }
    }
    log.close(phase);
  }
  return out.raw("prof", prof_reps).raw("spans", log.json()).str();
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc >= 2 && std::string(argv[1]) == "ref") {
      const util::Cli cli(argc - 1, argv + 1);
      std::vector<std::uint64_t> ref_ns;
      for (std::int64_t i = 0; i < cli.get_int("min-reps", 1); ++i) {
        ref_ns.push_back(reference_ns());
      }
      std::printf("%s\n", JsonObject().list("ref_ns", ref_ns).str().c_str());
      return 0;
    }
    const Options o = parse_options(argc, argv);
    if ((o.phase == "trace" || o.phase == "spans") && o.out.empty()) {
      throw std::invalid_argument("--out is required for " + o.phase);
    }
    Checks checks;
    std::string body;
    if (o.phase == "setup") {
      body = phase_setup(o, checks);
    } else if (o.phase == "sim") {
      body = phase_sim(o, checks);
    } else if (o.phase == "trace") {
      body = phase_trace(o, checks);
    } else if (o.phase == "spans") {
      body = phase_spans(o, checks);
    } else {
      throw std::invalid_argument("unknown phase " + o.phase);
    }
    // Splice the checks into the phase's object.
    body.insert(body.size() - 1, ",\"checks\":" + checks.json());
    std::printf("%s\n", body.c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 2;
  }
}
