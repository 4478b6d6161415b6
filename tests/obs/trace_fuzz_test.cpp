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
//   * escape-encoding a character never changes any output.
// The ctest TIMEOUT turns a hang into a failure; the sanitizer CI job
// runs this binary like every other test.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
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
  }
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
