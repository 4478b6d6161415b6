#include "mel/obs/analysis.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <string_view>

#include "mel/obs/trace_reader.hpp"

namespace mel::obs {

using sim::Time;

std::string matrix_json(const mpi::CommMatrix& m) {
  std::string out = "{\"nranks\":" + std::to_string(m.nranks()) +
                    ",\"total_msgs\":" + std::to_string(m.total_msgs()) +
                    ",\"total_bytes\":" + std::to_string(m.total_bytes()) +
                    ",\"msgs\":[";
  for (int s = 0; s < m.nranks(); ++s) {
    if (s > 0) out += ",";
    out += "[";
    for (int d = 0; d < m.nranks(); ++d) {
      if (d > 0) out += ",";
      out += std::to_string(m.msgs(s, d));
    }
    out += "]";
  }
  out += "],\"bytes\":[";
  for (int s = 0; s < m.nranks(); ++s) {
    if (s > 0) out += ",";
    out += "[";
    for (int d = 0; d < m.nranks(); ++d) {
      if (d > 0) out += ",";
      out += std::to_string(m.bytes(s, d));
    }
    out += "]";
  }
  out += "]}";
  return out;
}

mpi::CommMatrix TraceStats::to_comm_matrix() const {
  int n = nranks;
  for (const auto& [pair, cell] : wire_matrix) {
    n = std::max(n, std::max(pair.first, pair.second) + 1);
  }
  mpi::CommMatrix m(std::max(n, 1));
  for (const auto& [pair, cell] : wire_matrix) {
    // record() adds one message at a time; rebuild counts exactly.
    for (std::uint64_t i = 1; i < cell.msgs; ++i) {
      m.record(pair.first, pair.second, 0);
    }
    if (cell.msgs > 0) m.record(pair.first, pair.second, cell.bytes);
  }
  return m;
}

namespace {

Time ts_to_ns(double ts_us) {
  return static_cast<Time>(std::llround(ts_us * 1000.0));
}

/// Per-flow-id aggregation while streaming the event array.
struct FlowAgg {
  std::uint64_t s_count = 0;
  std::uint64_t f_count = 0;
  Time s_ts = 0;
  Time f_ts = 0;
  std::uint64_t bytes = 0;
  std::uint32_t cls = 0;  // index into Analyzer::classes_
};

/// Consumes TraceEvent records in stream order and rolls them up; the
/// violation strings and their order are part of the output contract.
class Analyzer {
 public:
  Analyzer(TraceStats& out, int top_k)
      : out_(out), top_k_(static_cast<std::size_t>(std::max(top_k, 0))) {}

  void event(const TraceEvent& e) {
    const auto where = [&e] {
      return " (event " + std::to_string(e.index) + ")";
    };
    if (!e.is_object) {
      err("traceEvents entry is not an object" + where());
      return;
    }
    if (!e.name.ok || !e.ph.ok || e.ph.value.size() != 1) {
      err("event without a string name/ph" + where());
      return;
    }
    const char p = e.ph.value[0];
    if (std::string_view("XistfCM").find(p) == std::string_view::npos) {
      err("unknown phase '" + std::string(e.ph.value) + "'" + where());
      return;
    }
    out_.events += 1;
    if (p == 'M') return;  // metadata: no timestamp requirements

    if (!e.ts.ok || !e.pid.ok || !e.tid.ok) {
      err("event missing numeric ts/pid/tid" + where());
      return;
    }
    const Time t = ts_to_ns(e.ts.value.number);
    const int rank = static_cast<int>(e.tid.value.as_int());
    out_.max_rank = std::max(out_.max_rank, rank);
    if (first_ts_ || t < out_.ts_min_ns) out_.ts_min_ns = t;
    if (first_ts_ || t > out_.ts_max_ns) out_.ts_max_ns = t;
    first_ts_ = false;

    const std::string_view category = e.cat.ok ? e.cat.value : "";
    key_.assign(e.name.value);

    if (p == 'X' || (p == 'i' && category == "op")) {
      Time dur = 0;
      if (p == 'X') {
        if (!e.dur.ok || e.dur.value.number < 0) {
          err("X event without a non-negative dur" + where());
          return;
        }
        dur = ts_to_ns(e.dur.value.number);
      }
      roll_up(out_.spans_by_category[key_], dur);
      roll_up(out_.spans_by_rank[rank], dur);
      keep_if_top(e.index, rank, t, dur);
      return;
    }

    if (p == 's' || p == 't' || p == 'f') {
      if (!e.id.ok) {
        err("flow event without an id" + where());
        return;
      }
      FlowAgg& agg = flows_[static_cast<std::uint64_t>(e.id.value.as_int())];
      if (p == 's') {
        agg.s_count += 1;
        agg.s_ts = t;
        agg.cls = intern_class();
        if (e.bytes.ok) {
          agg.bytes = static_cast<std::uint64_t>(e.bytes.value.as_int());
        }
      } else if (p == 'f') {
        agg.f_count += 1;
        agg.f_ts = t;
      }
      return;
    }

    if (p == 'C') {
      if (!e.args_first_numeric) {
        err("C event without a numeric args value" + where());
        return;
      }
      out_.counter_samples[key_] += 1;
      return;
    }

    // Instants (non-"op"): faults, crashes, checkpoints, wire transfers.
    if (category == "wire") {
      if (!e.src.ok || !e.dst.ok || !e.bytes.ok) {
        err("wire event without numeric args src/dst/bytes" + where());
        return;
      }
      auto& cell = out_.wire_matrix[{static_cast<int>(e.src.value.as_int()),
                                     static_cast<int>(e.dst.value.as_int())}];
      cell.msgs += 1;
      cell.bytes += static_cast<std::uint64_t>(e.bytes.value.as_int());
      return;
    }
    out_.instants_by_name[key_] += 1;
    if (e.flow.ok) {
      flow_refs_.push_back(static_cast<std::uint64_t>(e.flow.value.as_int()));
    }
  }

  /// Flow-graph validation, per-class rollup and the top-k order.
  void finish() {
    for (const auto& [id, agg] : flows_) {
      if (agg.s_count == 0) {
        err("flow " + std::to_string(id) + " has steps/finish but no start");
        continue;
      }
      if (agg.s_count > 1) {
        err("flow " + std::to_string(id) + " has " +
            std::to_string(agg.s_count) + " start events");
      }
      if (agg.f_count > 1) {
        err("flow " + std::to_string(id) + " has " +
            std::to_string(agg.f_count) + " finish events");
      }
      auto& roll = out_.flows_by_class[*classes_[agg.cls]];
      roll.count += 1;
      roll.bytes += agg.bytes;
      if (agg.f_count >= 1) {
        if (agg.f_ts < agg.s_ts) {
          err("flow " + std::to_string(id) + " finishes at " +
              std::to_string(agg.f_ts) + "ns before its start at " +
              std::to_string(agg.s_ts) + "ns");
        }
        roll.ended += 1;
        roll.total_latency_ns += agg.f_ts - agg.s_ts;
      } else {
        out_.dangling_flows += 1;
      }
    }
    if (out_.dangling_flows > 0) {
      err(std::to_string(out_.dangling_flows) +
          " dangling flow id(s): started but never finished");
    }
    for (const std::uint64_t id : flow_refs_) {
      auto it = flows_.find(id);
      if (id == 0 || it == flows_.end() || it->second.s_count == 0) {
        err("instant references unknown flow id " + std::to_string(id));
      }
    }

    std::sort_heap(top_.begin(), top_.end(), ranks_ahead);
    out_.top_spans.reserve(top_.size());
    for (Top& t : top_) out_.top_spans.push_back(std::move(t.span));
  }

 private:
  /// A top-k candidate; `seq` (the event index) breaks duration ties in
  /// stream order, exactly as a stable sort by duration would.
  struct Top {
    std::size_t seq = 0;
    TraceStats::TopSpan span;
  };
  static bool ranks_ahead(const Top& a, const Top& b) {
    return a.span.dur_ns > b.span.dur_ns ||
           (a.span.dur_ns == b.span.dur_ns && a.seq < b.seq);
  }

  void err(std::string text) {
    if (out_.errors.size() < 64) out_.errors.push_back(std::move(text));
  }

  /// Index of the current event's name in classes_, added on first sight.
  std::uint32_t intern_class() {
    const auto [it, added] = class_index_.try_emplace(
        key_, static_cast<std::uint32_t>(classes_.size()));
    if (added) classes_.push_back(&it->first);
    return it->second;
  }

  static void roll_up(TraceStats::CategoryRoll& roll, Time dur) {
    roll.count += 1;
    roll.total_ns += dur;
    roll.max_ns = std::max(roll.max_ns, dur);
  }

  /// Bounded top-k: a heap whose front is the candidate ranked last.
  void keep_if_top(std::size_t seq, int rank, Time start, Time dur) {
    if (top_k_ == 0) return;
    if (top_.size() == top_k_) {
      const TraceStats::TopSpan& worst = top_.front().span;
      if (dur <= worst.dur_ns) return;  // equal durations: earlier wins
      std::pop_heap(top_.begin(), top_.end(), ranks_ahead);
      top_.pop_back();
    }
    top_.push_back(Top{seq, {key_, rank, start, dur}});
    std::push_heap(top_.begin(), top_.end(), ranks_ahead);
  }

  TraceStats& out_;
  std::size_t top_k_;
  bool first_ts_ = true;
  std::string key_;  // name of the current event
  std::map<std::uint64_t, FlowAgg> flows_;
  // Flow class names: class_index_ owns them, classes_ lists them by index.
  std::map<std::string, std::uint32_t> class_index_;
  std::vector<const std::string*> classes_;
  std::vector<std::uint64_t> flow_refs_;  // instants -> flows
  std::vector<Top> top_;
};

/// The analysis over one read of the document; `read(on_event)` runs
/// read_trace or read_trace_file.
template <typename Read>
TraceStats analyze(const Read& read, int top_k) {
  TraceStats out;
  Analyzer analyzer(out, top_k);
  TraceDocument doc;
  try {
    doc = read([&analyzer](const TraceEvent& e) { analyzer.event(e); });
  } catch (const json::ParseError& e) {
    TraceStats bad;
    bad.errors.push_back(e.what());
    bad.malformed = true;
    return bad;
  }
  if (!doc.root_is_object || !doc.has_events) {
    TraceStats bad;
    bad.errors.push_back(doc.root_is_object ? "missing or non-array traceEvents"
                                            : "root is not a JSON object");
    return bad;
  }
  if (const json::Value* ranks = doc.other_data.find("ranks")) {
    if (ranks->is_number()) out.nranks = static_cast<int>(ranks->as_int());
  }
  analyzer.finish();
  return out;
}

}  // namespace

TraceStats analyze_trace_text(const std::string& text, int top_k) {
  return analyze(
      [&text](const auto& on_event) { return read_trace(text, on_event); },
      top_k);
}

TraceStats analyze_trace_file(const std::string& path, int top_k) {
  return analyze(
      [&path](const auto& on_event) {
        return read_trace_file(path, on_event);
      },
      top_k);
}

std::vector<std::string> validate_metrics_text(const std::string& text) {
  std::vector<std::string> errors;
  auto err = [&errors](std::string e) {
    if (errors.size() < 64) errors.push_back(std::move(e));
  };
  std::istringstream in(text);
  std::string line;
  std::size_t lineno = 0;
  bool saw_header = false;
  std::int64_t ranks = 0;
  auto need_int = [&err](const json::Value& v, const char* key,
                         std::size_t lineno) -> bool {
    const json::Value* f = v.find(key);
    if (f == nullptr || !f->is_number()) {
      err("line " + std::to_string(lineno) + ": missing numeric '" +
          std::string(key) + "'");
      return false;
    }
    return true;
  };
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    json::Value v;
    try {
      v = json::parse(line);
    } catch (const json::ParseError& e) {
      err("line " + std::to_string(lineno) + ": " + e.what());
      continue;
    }
    const json::Value* type = v.find("type");
    if (!v.is_object() || type == nullptr || !type->is_string()) {
      err("line " + std::to_string(lineno) + ": record without a type");
      continue;
    }
    const std::string& ty = type->string;
    if (ty == "header") {
      if (lineno != 1) {
        err("line " + std::to_string(lineno) +
            ": header must be the first record");
      }
      saw_header = true;
      const json::Value* schema = v.find("schema");
      if (schema == nullptr || !schema->is_string() ||
          schema->string != "mel.metrics/1") {
        err("line " + std::to_string(lineno) +
            ": unknown or missing schema (want mel.metrics/1)");
      }
      if (need_int(v, "ranks", lineno)) ranks = v.find("ranks")->as_int();
      continue;
    }
    if (!saw_header) {
      err("line " + std::to_string(lineno) + ": record before the header");
      saw_header = true;  // report once
    }
    const bool known = ty == "sample" || ty == "iteration" ||
                       ty == "instant" || ty == "run";
    if (!known) {
      err("line " + std::to_string(lineno) + ": unknown record type '" + ty +
          "'");
      continue;
    }
    if (ty == "run") {
      need_int(v, "time_ns", lineno);
      need_int(v, "events", lineno);
      continue;
    }
    if (!need_int(v, "t", lineno) || !need_int(v, "rank", lineno)) continue;
    const std::int64_t t = v.find("t")->as_int();
    const std::int64_t rank = v.find("rank")->as_int();
    if (t < 0) err("line " + std::to_string(lineno) + ": negative t");
    if (rank < -1 || (ranks > 0 && rank >= ranks)) {
      err("line " + std::to_string(lineno) + ": rank " + std::to_string(rank) +
          " outside [-1, " + std::to_string(ranks) + ")");
    }
    if (ty == "sample") {
      need_int(v, "value", lineno);
      const json::Value* n = v.find("name");
      if (n == nullptr || !n->is_string()) {
        err("line " + std::to_string(lineno) + ": sample without a name");
      }
    } else if (ty == "iteration") {
      need_int(v, "iter", lineno);
      need_int(v, "active", lineno);
      need_int(v, "dt", lineno);
      need_int(v, "d_bytes_p2p", lineno);
      need_int(v, "d_bytes_rma", lineno);
      need_int(v, "d_bytes_coll", lineno);
    } else if (ty == "instant") {
      const json::Value* n = v.find("name");
      if (n == nullptr || !n->is_string()) {
        err("line " + std::to_string(lineno) + ": instant without a name");
      }
    }
  }
  if (!saw_header && lineno > 0) err("no header record");
  if (lineno == 0) err("empty metrics stream");
  return errors;
}

std::vector<std::string> validate_metrics_file(const std::string& path) {
  return validate_metrics_text(read_file(path));
}

namespace {
std::string ms(Time ns) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.3f", static_cast<double>(ns) / 1e6);
  return buf;
}
}  // namespace

std::string summarize(const TraceStats& s) {
  std::ostringstream os;
  os << "events: " << s.events << "  ranks: 0.." << s.max_rank
     << "  span: [" << ms(s.ts_min_ns) << ", " << ms(s.ts_max_ns) << "] ms\n";
  if (!s.errors.empty()) {
    os << "validation: " << s.errors.size() << " violation(s)\n";
    for (const auto& e : s.errors) os << "  ! " << e << "\n";
  } else {
    os << "validation: clean\n";
  }
  if (!s.spans_by_category.empty()) {
    os << "operations (category, count, total ms, max ms):\n";
    for (const auto& [cat, roll] : s.spans_by_category) {
      os << "  " << cat << "  " << roll.count << "  " << ms(roll.total_ns)
         << "  " << ms(roll.max_ns) << "\n";
    }
  }
  if (!s.flows_by_class.empty()) {
    os << "flows (class, count, ended, bytes, mean latency us):\n";
    for (const auto& [cls, roll] : s.flows_by_class) {
      const double mean_us =
          roll.ended > 0 ? static_cast<double>(roll.total_latency_ns) /
                               (1e3 * static_cast<double>(roll.ended))
                         : 0.0;
      char mean[32];
      std::snprintf(mean, sizeof mean, "%.2f", mean_us);
      os << "  " << cls << "  " << roll.count << "  " << roll.ended << "  "
         << roll.bytes << "  " << mean << "\n";
    }
    if (s.dangling_flows > 0) {
      os << "  dangling flows: " << s.dangling_flows << "\n";
    }
  }
  if (!s.top_spans.empty()) {
    os << "longest operations:\n";
    for (const auto& t : s.top_spans) {
      os << "  " << t.category << " rank " << t.rank << " @" << ms(t.start_ns)
         << "ms for " << ms(t.dur_ns) << "ms\n";
    }
  }
  if (!s.wire_matrix.empty()) {
    std::uint64_t msgs = 0, bytes = 0;
    for (const auto& [pair, cell] : s.wire_matrix) {
      msgs += cell.msgs;
      bytes += cell.bytes;
    }
    os << "comm matrix (from wire events): " << s.wire_matrix.size()
       << " pair(s), " << msgs << " msg(s), " << bytes << " byte(s)\n";
  }
  if (!s.instants_by_name.empty()) {
    os << "instants:\n";
    for (const auto& [name, count] : s.instants_by_name) {
      os << "  " << name << "  " << count << "\n";
    }
  }
  if (!s.counter_samples.empty()) {
    std::uint64_t total = 0;
    for (const auto& [track, n] : s.counter_samples) total += n;
    os << "counter tracks: " << s.counter_samples.size() << " (" << total
       << " samples)\n";
  }
  return os.str();
}

std::string summarize_json(const TraceStats& s) {
  std::ostringstream os;
  os << "{\"schema\":\"mel.summary/1\"";
  os << ",\"events\":" << s.events;
  os << ",\"nranks\":" << s.nranks;
  os << ",\"max_rank\":" << s.max_rank;
  os << ",\"ts_min_ns\":" << s.ts_min_ns;
  os << ",\"ts_max_ns\":" << s.ts_max_ns;
  os << ",\"violations\":[";
  for (std::size_t i = 0; i < s.errors.size(); ++i) {
    if (i) os << ",";
    os << "\"" << json_escape(s.errors[i]) << "\"";
  }
  os << "],\"dangling_flows\":" << s.dangling_flows;
  os << ",\"spans_by_category\":{";
  bool first = true;
  for (const auto& [cat, roll] : s.spans_by_category) {
    if (!first) os << ",";
    first = false;
    os << "\"" << json_escape(cat) << "\":{\"count\":" << roll.count
       << ",\"total_ns\":" << roll.total_ns << ",\"max_ns\":" << roll.max_ns
       << "}";
  }
  os << "},\"spans_by_rank\":{";
  first = true;
  for (const auto& [rank, roll] : s.spans_by_rank) {
    if (!first) os << ",";
    first = false;
    os << "\"" << rank << "\":{\"count\":" << roll.count
       << ",\"total_ns\":" << roll.total_ns << ",\"max_ns\":" << roll.max_ns
       << "}";
  }
  os << "},\"flows_by_class\":{";
  first = true;
  for (const auto& [cls, roll] : s.flows_by_class) {
    if (!first) os << ",";
    first = false;
    os << "\"" << json_escape(cls) << "\":{\"count\":" << roll.count
       << ",\"ended\":" << roll.ended << ",\"bytes\":" << roll.bytes
       << ",\"total_latency_ns\":" << roll.total_latency_ns << "}";
  }
  os << "},\"top_spans\":[";
  for (std::size_t i = 0; i < s.top_spans.size(); ++i) {
    const auto& t = s.top_spans[i];
    if (i) os << ",";
    os << "{\"category\":\"" << json_escape(t.category)
       << "\",\"rank\":" << t.rank << ",\"start_ns\":" << t.start_ns
       << ",\"dur_ns\":" << t.dur_ns << "}";
  }
  os << "],\"instants\":{";
  first = true;
  for (const auto& [name, count] : s.instants_by_name) {
    if (!first) os << ",";
    first = false;
    os << "\"" << json_escape(name) << "\":" << count;
  }
  os << "},\"counter_tracks\":{";
  first = true;
  for (const auto& [track, n] : s.counter_samples) {
    if (!first) os << ",";
    first = false;
    os << "\"" << json_escape(track) << "\":" << n;
  }
  std::uint64_t msgs = 0, bytes = 0;
  for (const auto& [pair, cell] : s.wire_matrix) {
    msgs += cell.msgs;
    bytes += cell.bytes;
  }
  os << "},\"wire\":{\"pairs\":" << s.wire_matrix.size()
     << ",\"msgs\":" << msgs << ",\"bytes\":" << bytes << "}";
  os << "}";
  return os.str();
}

namespace {
std::string delta(std::uint64_t a, std::uint64_t b) {
  std::ostringstream os;
  os << a << " -> " << b;
  if (b >= a) {
    os << " (+" << (b - a) << ")";
  } else {
    os << " (-" << (a - b) << ")";
  }
  return os.str();
}
}  // namespace

std::string diff(const TraceStats& a, const TraceStats& b,
                 const std::string& label_a, const std::string& label_b) {
  std::ostringstream os;
  os << "diff: " << label_a << " vs " << label_b << "\n";
  os << "events: " << delta(a.events, b.events) << "\n";
  os << "virtual span: " << ms(a.ts_max_ns - a.ts_min_ns) << "ms vs "
     << ms(b.ts_max_ns - b.ts_min_ns) << "ms\n";

  std::map<std::string, std::pair<TraceStats::CategoryRoll,
                                  TraceStats::CategoryRoll>> cats;
  for (const auto& [cat, roll] : a.spans_by_category) cats[cat].first = roll;
  for (const auto& [cat, roll] : b.spans_by_category) cats[cat].second = roll;
  if (!cats.empty()) {
    os << "operations (category: count A -> B, total ms A -> B):\n";
    for (const auto& [cat, rolls] : cats) {
      os << "  " << cat << ": " << delta(rolls.first.count, rolls.second.count)
         << ", " << ms(rolls.first.total_ns) << " -> "
         << ms(rolls.second.total_ns) << "\n";
    }
  }

  std::map<std::string,
           std::pair<TraceStats::FlowRoll, TraceStats::FlowRoll>> classes;
  for (const auto& [cls, roll] : a.flows_by_class) classes[cls].first = roll;
  for (const auto& [cls, roll] : b.flows_by_class) classes[cls].second = roll;
  if (!classes.empty()) {
    os << "flows (class: count A -> B, bytes A -> B):\n";
    for (const auto& [cls, rolls] : classes) {
      os << "  " << cls << ": "
         << delta(rolls.first.count, rolls.second.count) << ", "
         << delta(rolls.first.bytes, rolls.second.bytes) << "\n";
    }
  }

  std::uint64_t amsgs = 0, abytes = 0, bmsgs = 0, bbytes = 0;
  for (const auto& [pair, cell] : a.wire_matrix) {
    amsgs += cell.msgs;
    abytes += cell.bytes;
  }
  for (const auto& [pair, cell] : b.wire_matrix) {
    bmsgs += cell.msgs;
    bbytes += cell.bytes;
  }
  os << "wire matrix: pairs " << delta(a.wire_matrix.size(),
                                       b.wire_matrix.size())
     << ", msgs " << delta(amsgs, bmsgs) << ", bytes "
     << delta(abytes, bbytes) << "\n";
  os << "dangling flows: " << delta(a.dangling_flows, b.dangling_flows)
     << "\n";
  os << "validation: " << a.errors.size() << " vs " << b.errors.size()
     << " violation(s)\n";
  return os.str();
}

}  // namespace mel::obs
