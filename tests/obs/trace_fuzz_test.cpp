// Seeded, deterministic fuzz of the streaming trace reader.
//
// Small recorded traces are mutated (truncation, bit flips, inserted or
// deleted structural bytes, injected duplicate members, escape-encoded
// characters) with util's SplitMix64, and every mutant is checked
// against an independent oracle built on json::parse:
//   * analyze_trace_text reports a violation exactly when json::parse
//     throws or the parsed document breaks the trace schema, and a parse
//     failure is reported as json::parse's own message (byte offset
//     included);
//   * load_replay_trace_text (and the replay/critical-path machinery on
//     what it loads) either returns or throws std::runtime_error — it
//     never crashes, hangs or throws anything else;
//   * escape-encoding a character never changes any output;
//   * read_trace_file on the mutant written to a file hands over the same
//     event stream as read_trace on the text, or throws the same
//     ParseError (message and byte offset), including past the mapped
//     reader's release window.
// The ctest TIMEOUT turns a hang into a failure; the sanitizer CI job
// runs this binary like every other test.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "mel/gen/generators.hpp"
#include "mel/match/driver.hpp"
#include "mel/obs/analysis.hpp"
#include "mel/obs/critical.hpp"
#include "mel/obs/json.hpp"
#include "mel/obs/recorder.hpp"
#include "mel/obs/replay.hpp"
#include "mel/obs/trace_reader.hpp"
#include "mel/util/rng.hpp"

namespace mel::obs {
namespace {

/// A small self-contained trace (a few hundred events, ~50 KB).
std::string small_trace(match::Model model, double loss,
                        sim::Time sample_ns) {
  const auto g = gen::erdos_renyi(16, 40, 3);
  Recorder rec;
  match::RunConfig cfg;
  cfg.tracer = &rec;
  cfg.sample_interval_ns = sample_ns;
  if (loss > 0.0) {
    cfg.net.chaos.loss = loss;
    cfg.net.chaos.seed = 5;
  }
  rec.set_run_info("match", match::model_name(model), 4, 3);
  rec.set_net_params(cfg.net);
  const auto run = match::run_match(g, 4, model, cfg);
  rec.set_run_result(run.time, run.trace_hash, run.sim_events);
  return rec.to_chrome_json();
}

/// One read of a trace as text: every field of every event (numbers bit
/// for bit), then the document flags — or the ParseError message.
template <typename Read>
std::string event_stream(const Read& read) {
  std::string out;
  const auto str = [&out](const TraceEvent::Str& f) {
    out += f.present ? (f.ok ? "s" : "S") : "-";
    out += f.value;
    out += '|';
  };
  const auto num = [&out](const TraceEvent::Num& f) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &f.value.number, sizeof bits);
    out += f.present ? (f.ok ? "n" : "N") : "-";
    out += std::to_string(bits) + ":" + std::to_string(f.value.integer) +
           (f.value.is_integer ? "i|" : "d|");
  };
  try {
    const TraceDocument doc = read([&](const TraceEvent& e) {
      out += std::to_string(e.index) + (e.is_object ? "o" : "-");
      str(e.name);
      str(e.cat);
      str(e.ph);
      for (const auto* f : {&e.ts, &e.dur, &e.pid, &e.tid, &e.id, &e.src,
                            &e.dst, &e.tag, &e.bytes, &e.flow}) {
        num(*f);
      }
      out += e.args_present ? "a" : "-";
      out += e.args_object ? "o" : "-";
      out += e.args_first_numeric ? "n\n" : "-\n";
    });
    out += std::string("doc ") + (doc.root_is_object ? "o" : "-") +
           (doc.has_events ? "e" : "-") + (doc.has_other_data ? "h" : "-") +
           std::to_string(doc.other_data.object.size());
  } catch (const json::ParseError& e) {
    out += std::string("error: ") + e.what();
  }
  return out;
}

/// A file in the test temp dir holding `text`, removed on destruction;
/// named after the running test, since ctest runs tests in parallel.
class TempTrace {
 public:
  explicit TempTrace(const std::string& text)
      : path_(testing::TempDir() + "trace_fuzz_test." +
              testing::UnitTest::GetInstance()->current_test_info()->name() +
              ".json") {
    std::ofstream(path_, std::ios::binary) << text;
  }
  ~TempTrace() { std::filesystem::remove(path_); }
  TempTrace(const TempTrace&) = delete;
  TempTrace& operator=(const TempTrace&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// read_trace_file on `text` written to a file reads exactly what
/// read_trace reads on the text.
void expect_file_reads_as_text(const std::string& text) {
  const TempTrace file(text);
  const std::string want = event_stream(
      [&](const auto& on_event) { return read_trace(text, on_event); });
  ASSERT_EQ(event_stream([&](const auto& on_event) {
              return read_trace_file(file.path(), on_event);
            }),
            want);
}

/// The trace schema analyze_trace_text enforces, re-stated over the DOM
/// so it shares no code with the streaming reader.
bool schema_ok(const json::Value& root) {
  if (!root.is_object()) return false;
  const json::Value* events = root.find("traceEvents");
  if (events == nullptr || !events->is_array()) return false;
  const auto num = [](const json::Value* v) {
    return v != nullptr && v->is_number();
  };
  struct Flow {
    int s = 0;
    int f = 0;
    sim::Time s_ts = 0;
    sim::Time f_ts = 0;
  };
  std::map<std::uint64_t, Flow> flows;
  std::vector<std::uint64_t> refs;
  for (const json::Value& e : events->array) {
    if (!e.is_object()) return false;
    const json::Value* name = e.find("name");
    const json::Value* ph = e.find("ph");
    if (name == nullptr || !name->is_string() || ph == nullptr ||
        !ph->is_string() || ph->string.size() != 1) {
      return false;
    }
    const char p = ph->string[0];
    if (p == '\0' || std::string("XistfCM").find(p) == std::string::npos) {
      return false;
    }
    if (p == 'M') continue;
    const json::Value* ts = e.find("ts");
    if (!num(ts) || !num(e.find("pid")) || !num(e.find("tid"))) return false;
    const auto t = static_cast<sim::Time>(std::llround(ts->number * 1000.0));
    const json::Value* cat = e.find("cat");
    const std::string category =
        cat != nullptr && cat->is_string() ? cat->string : "";
    const json::Value* args = e.find("args");
    const auto arg = [args](const char* key) {
      return args != nullptr ? args->find(key) : nullptr;
    };
    if (p == 'X' || (p == 'i' && category == "op")) {
      const json::Value* dur = e.find("dur");
      if (p == 'X' && (!num(dur) || dur->number < 0)) return false;
    } else if (p == 's' || p == 't' || p == 'f') {
      const json::Value* id = e.find("id");
      if (!num(id)) return false;
      Flow& f = flows[static_cast<std::uint64_t>(id->as_int())];
      if (p == 's') {
        ++f.s;
        f.s_ts = t;
      } else if (p == 'f') {
        ++f.f;
        f.f_ts = t;
      }
    } else if (p == 'C') {
      if (args == nullptr || !args->is_object() || args->object.empty() ||
          !args->object.front().second.is_number()) {
        return false;
      }
    } else if (category == "wire") {
      if (!num(arg("src")) || !num(arg("dst")) || !num(arg("bytes"))) {
        return false;
      }
    } else if (num(arg("flow"))) {
      refs.push_back(static_cast<std::uint64_t>(arg("flow")->as_int()));
    }
  }
  for (const auto& [id, f] : flows) {
    if (f.s != 1 || f.f != 1 || f.f_ts < f.s_ts) return false;
  }
  for (const std::uint64_t id : refs) {
    const auto it = flows.find(id);
    if (id == 0 || it == flows.end() || it->second.s == 0) return false;
  }
  return true;
}

class Mutator {
 public:
  explicit Mutator(std::uint64_t seed) : state_(seed) {}

  std::size_t below(std::size_t n) {
    return static_cast<std::size_t>(util::splitmix64(state_) % n);
  }

  std::string mutate(const std::string& base) {
    std::string m = base;
    switch (below(7)) {
      case 0:  // truncation
        m.resize(below(m.size()));
        break;
      case 1:  // bit flip
        m[below(m.size())] ^= static_cast<char>(1u << below(8));
        break;
      case 2: {  // inserted byte from the JSON alphabet
        static const std::string kBytes = "{}[],:\"\\ 0123456789.-eEtfnux/";
        m.insert(m.begin() + static_cast<std::ptrdiff_t>(below(m.size() + 1)),
                 kBytes[below(kBytes.size())]);
        break;
      }
      case 3:  // deleted byte
        m.erase(below(m.size()), 1);
        break;
      case 4:
      case 5: {  // duplicate or ill-typed member, first or last in an object
        static const char* kKeys[] = {"name", "ph",   "ts",  "tid", "pid",
                                      "dur",  "id",   "cat", "args", "src",
                                      "dst",  "bytes", "flow"};
        static const char* kValues[] = {
            "1",     "-1",    "\"x\"",         "null", "{}",   "[]",
            "2.5",   "\"X\"", "\"s\"",         "\"f\"", "true", "1e3",
            "{\"flow\":0}", "1.2.3", "+0",  "-",    "1e",   "01"};
        const bool first = below(2) == 0;
        const std::size_t at = m.find(first ? '{' : '}', below(m.size()));
        if (at == std::string::npos) break;
        const std::string member =
            std::string("\"") + kKeys[below(std::size(kKeys))] + "\":" +
            kValues[below(std::size(kValues))];
        m.insert(at + (first ? 1 : 0), first ? member + "," : "," + member);
        break;
      }
      default: {  // escape-encode one plain character inside a string
        const std::size_t at = escapable(m, below(m.size()));
        if (at == std::string::npos) break;
        char hex[8];
        std::snprintf(hex, sizeof hex, "\\u%04x",
                      static_cast<unsigned>(static_cast<unsigned char>(m[at])));
        m.replace(at, 1, hex);
        break;
      }
    }
    return m;
  }

  /// First letter at or after `from` that sits right after a quote (the
  /// start of a key or string value), or npos.
  static std::size_t escapable(const std::string& m, std::size_t from) {
    for (std::size_t i = std::max<std::size_t>(from, 1); i < m.size(); ++i) {
      if (m[i - 1] == '"' && ((m[i] >= 'a' && m[i] <= 'z') ||
                              (m[i] >= 'A' && m[i] <= 'Z'))) {
        return i;
      }
    }
    return std::string::npos;
  }

 private:
  std::uint64_t state_;
};

/// Everything replay-side must either succeed or fail with a
/// std::runtime_error; returns whether it threw.
bool replay_threw(const std::string& text) {
  try {
    const Replayer rp(load_replay_trace_text(text));
    (void)rp.fidelity_errors();
    (void)critical_json(critical_path(rp), rp.trace(), 5);
    return false;
  } catch (const std::runtime_error&) {
    return true;
  }
}

TEST(TraceFuzz, ReaderMatchesTheJsonParseOracle) {
  const std::string bases[] = {
      small_trace(match::Model::kNsr, 0.0, 10000),
      small_trace(match::Model::kNsr, 0.2, 0),
      small_trace(match::Model::kNcl, 0.0, 10000),
  };
  constexpr int kMutantsPerBase = 300;
  int parse_errors = 0, schema_errors = 0, clean = 0;
  for (std::size_t b = 0; b < std::size(bases); ++b) {
    const std::string& base = bases[b];
    ASSERT_TRUE(analyze_trace_text(base).errors.empty());
    Mutator mut(0x7ace0000u + b);
    for (int i = 0; i < kMutantsPerBase; ++i) {
      const std::string m = mut.mutate(base);
      SCOPED_TRACE("base " + std::to_string(b) + " mutant " +
                   std::to_string(i));
      std::string parse_error;
      json::Value dom;
      try {
        dom = json::parse(m);
      } catch (const json::ParseError& e) {
        parse_error = e.what();
      }
      const TraceStats stats = analyze_trace_text(m);
      const bool threw = replay_threw(m);
      expect_file_reads_as_text(m);
      if (!parse_error.empty()) {
        ++parse_errors;
        ASSERT_EQ(stats.errors, std::vector<std::string>{parse_error});
        EXPECT_TRUE(threw);
        continue;
      }
      const bool ok = schema_ok(dom);
      ok ? ++clean : ++schema_errors;
      ASSERT_EQ(stats.errors.empty(), ok)
          << (stats.errors.empty() ? "" : stats.errors.front());
    }
  }
  // The mutation mix must reach all three verdicts.
  EXPECT_GT(parse_errors, 100);
  EXPECT_GT(schema_errors, 10);
  EXPECT_GT(clean, 50);
}

TEST(TraceFuzz, TruncationAtEveryOffsetIsANamedError) {
  const std::string base = small_trace(match::Model::kNcl, 0.0, 0);
  // Every prefix is malformed (the document closes on its last byte);
  // ~300 offsets spread over the whole document, plus its last bytes.
  const std::size_t step = base.size() / 293 + 1;
  std::vector<std::size_t> lens;
  for (std::size_t len = 0; len < base.size(); len += step) lens.push_back(len);
  for (std::size_t k = 1; k <= 8; ++k) lens.push_back(base.size() - k);
  for (const std::size_t len : lens) {
    const std::string m = base.substr(0, len);
    const TraceStats stats = analyze_trace_text(m);
    ASSERT_EQ(stats.errors.size(), 1u) << len;
    EXPECT_EQ(stats.errors[0].rfind("JSON parse error at byte ", 0), 0u)
        << stats.errors[0];
    EXPECT_THROW(load_replay_trace_text(m), json::ParseError) << len;
    expect_file_reads_as_text(m);
  }
}

// A trace several times the mapped reader's release window: the file
// path gives back consumed pages while it reads, and must still agree
// with the text path on the events, every analysis output and every
// error, including errors placed past the released prefix.
TEST(TraceFuzz, FileReaderMatchesTextPastTheReleaseWindow) {
  const auto g = gen::erdos_renyi(600, 4000, 3);
  Recorder rec;
  match::RunConfig cfg;
  cfg.tracer = &rec;
  cfg.sample_interval_ns = 5000;
  rec.set_run_info("match", "NSR", 16, 3);
  rec.set_net_params(cfg.net);
  const auto run = match::run_match(g, 16, match::Model::kNsr, cfg);
  rec.set_run_result(run.time, run.trace_hash, run.sim_events);
  const std::string base = rec.to_chrome_json();
  ASSERT_GT(base.size(), std::size_t{4} << 20);

  expect_file_reads_as_text(base);
  {
    const TempTrace file(base);
    const TraceStats text_stats = analyze_trace_text(base);
    ASSERT_TRUE(text_stats.errors.empty());
    EXPECT_EQ(summarize_json(analyze_trace_file(file.path())),
              summarize_json(text_stats));
    EXPECT_EQ(Replayer(load_replay_trace_file(file.path())).replay().digest,
              Replayer(load_replay_trace_text(base)).replay().digest);
  }
  // Truncated, bit-flipped and bad-number mutants, at offsets spread to
  // the end of the document.
  Mutator mut(0xb16);
  for (int i = 1; i <= 6; ++i) {
    const std::size_t at = base.size() * static_cast<std::size_t>(i) / 7;
    expect_file_reads_as_text(base.substr(0, at));
    std::string flipped = base;
    flipped[at] ^= static_cast<char>(1u << mut.below(8));
    expect_file_reads_as_text(flipped);
    std::string dotted = base;
    const std::size_t ts = dotted.find("\"ts\":", at) + 5;
    dotted.replace(ts, dotted.find_first_of(",}", ts) - ts, "1.2.3");
    const TempTrace file(dotted);
    EXPECT_EQ(analyze_trace_file(file.path()).errors,
              analyze_trace_text(dotted).errors);
    expect_file_reads_as_text(dotted);
  }
}

// Paths that are not readable trace files fail as read_file fails: a
// missing path and a directory with its I/O error, an empty file with the
// parse error at byte 0.
TEST(TraceFuzz, FileReaderKeepsTheInputErrors) {
  const auto message = [](const auto& fn) -> std::string {
    try {
      fn();
    } catch (const std::runtime_error& e) {
      return e.what();
    }
    return "";
  };
  const auto none = [](const TraceEvent&) {};
  const TempTrace empty("");
  for (const std::string& path :
       {testing::TempDir() + "trace_fuzz_test-no-such.json",
        testing::TempDir(), empty.path()}) {
    const std::string want =
        message([&] { read_trace(read_file(path), none); });
    ASSERT_NE(want, "") << path;
    EXPECT_EQ(message([&] { read_trace_file(path, none); }), want);
  }
  EXPECT_EQ(message([&] { read_trace_file(empty.path(), none); }),
            "JSON parse error at byte 0: unexpected end of input");
}

TEST(TraceFuzz, EscapeEncodingNeverChangesTheOutputs) {
  const std::string base = small_trace(match::Model::kNsr, 0.2, 10000);
  const std::string want_summary = summarize_json(analyze_trace_text(base));
  const std::uint64_t want_digest =
      Replayer(load_replay_trace_text(base)).replay().digest;
  Mutator mut(0xe5c);
  for (int i = 0; i < 40; ++i) {
    std::string m = base;
    for (int k = 0; k < 25; ++k) {
      const std::size_t at = Mutator::escapable(m, mut.below(m.size()));
      if (at == std::string::npos) continue;
      char hex[8];
      std::snprintf(hex, sizeof hex, "\\u%04x",
                    static_cast<unsigned>(static_cast<unsigned char>(m[at])));
      m.replace(at, 1, hex);
    }
    ASSERT_EQ(summarize_json(analyze_trace_text(m)), want_summary) << i;
    ASSERT_EQ(Replayer(load_replay_trace_text(m)).replay().digest,
              want_digest)
        << i;
  }
}

// Hand-built documents: a non-JSON number token or a nesting bomb, in an
// event field, an args member, a skipped member or otherData, is the
// same named error at the same byte for the reader as for json::parse.
TEST(TraceFuzz, MalformedNumbersAndDeepNestingAreNamedErrors) {
  const std::string base = small_trace(match::Model::kNsr, 0.0, 0);
  const std::string bomb =
      std::string(200000, '[') + std::string(200000, ']');
  std::vector<std::pair<std::string, std::string>> docs;  // (doc, error)
  for (const char* tok : {"1.2.3", "+0", "-", "1e", "01"}) {
    for (const std::string key : {"ts", "pid", "bytes", "zz"}) {
      // "zz" is a member the reader skips, inserted before the first ts.
      const std::string needle = "\"" + key + "\":";
      const std::size_t at = base.find(key == "zz" ? "\"ts\":" : needle);
      ASSERT_NE(at, std::string::npos) << needle;
      std::string m = base;
      if (key == "zz") {
        m.insert(at, needle + tok + ",");
      } else {
        const std::size_t value = at + needle.size();
        m.replace(value, m.find_first_of(",}", value) - value, tok);
      }
      docs.emplace_back(m, "malformed number");
    }
    std::string other = base;
    other.insert(other.find("\"otherData\":{") + 13,
                 std::string("\"x\":") + tok + ",");
    docs.emplace_back(other, "malformed number");
  }
  std::string deep_other = base;
  deep_other.insert(deep_other.find("\"otherData\":{") + 13,
                    "\"x\":" + bomb + ",");
  docs.emplace_back(deep_other, "nesting too deep");
  std::string deep_event = base;
  deep_event.insert(deep_event.find("\"ts\":"), "\"x\":" + bomb + ",");
  docs.emplace_back(deep_event, "nesting too deep");
  for (const auto& [doc, why] : docs) {
    std::string parse_error;
    try {
      json::parse(doc);
    } catch (const json::ParseError& e) {
      parse_error = e.what();
    }
    ASSERT_NE(parse_error.find(why), std::string::npos) << parse_error;
    EXPECT_EQ(analyze_trace_text(doc).errors,
              std::vector<std::string>{parse_error});
    EXPECT_THROW(load_replay_trace_text(doc), json::ParseError) << why;
  }
}

TEST(TraceFuzz, TrailingGarbageIsRejectedEverywhere) {
  const std::string base = small_trace(match::Model::kNsr, 0.0, 0);
  for (const char* tail : {"garbage}", "}", ",", "{}", " x", "\n]"}) {
    const std::string m = base + tail;
    const TraceStats stats = analyze_trace_text(m);
    ASSERT_EQ(stats.errors.size(), 1u) << tail;
    EXPECT_NE(stats.errors[0].find("JSON parse error at byte"),
              std::string::npos)
        << stats.errors[0];
    EXPECT_THROW(load_replay_trace_text(m), json::ParseError) << tail;
  }
  // Trailing whitespace is not garbage.
  EXPECT_TRUE(analyze_trace_text(base + " \n\t\r").errors.empty());
  EXPECT_NO_THROW(load_replay_trace_text(base + "\n"));
}

}  // namespace
}  // namespace mel::obs
