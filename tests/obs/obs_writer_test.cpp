// The Recorder's streaming serializer: the file writers and the string
// forms are one emitter with two sinks, so their bytes must agree; the
// trace and metrics bytes themselves are pinned (FNV-1a, captured from the
// whole-string writer the emitter replaced); the hand-rolled timestamp
// formatter must print exactly what printf("%.3f", ns / 1e3) prints; and
// I/O failures surface as the named errors melsim reports.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <string>

#include "mel/gen/generators.hpp"
#include "mel/match/driver.hpp"
#include "mel/obs/json.hpp"
#include "mel/obs/recorder.hpp"
#include "mel/obs/trace_reader.hpp"
#include "mel/util/rng.hpp"

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

/// Records one run exactly as `melsim --trace --metrics-jsonl` does (~0.5
/// to 3.3 MB of trace, so every output spans several emitter blocks).
void record(Recorder& rec, match::Model model, Scenario scenario) {
  const auto g = gen::erdos_renyi(300, 2100, 11);
  match::RunConfig cfg;
  cfg.tracer = &rec;
  cfg.sample_interval_ns = 100000;
  if (scenario == Scenario::kLossy) {
    cfg.net.chaos.loss = 0.15;
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
}

struct Pin {
  match::Model model;
  Scenario scenario;
  std::uint64_t trace;
  std::uint64_t metrics;
};

constexpr Pin kPins[] = {
    {match::Model::kNsr, Scenario::kPlain, 0x38ee9cdc606d9e7bull,
     0xd31902d1911bf1fdull},
    {match::Model::kMbp, Scenario::kPlain, 0x80acad35b01acf8eull,
     0x274b4f9756442050ull},
    {match::Model::kNsrAgg, Scenario::kPlain, 0x419a9f633db687adull,
     0x80f1331f591a9ce5ull},
    {match::Model::kNsrHier, Scenario::kPlain, 0x73eee4f4a77ce60aull,
     0x5d92b77708cb1bc3ull},
    {match::Model::kRma, Scenario::kPlain, 0xf6e2d765f3060e0dull,
     0xaeb90b1f1a0b8fbaull},
    {match::Model::kRmaFence, Scenario::kPlain, 0x73f71e97e8a1fd26ull,
     0x620abeb5379e920eull},
    {match::Model::kRmaPart, Scenario::kPlain, 0xcee05b3279eca5f5ull,
     0x6d9d0d0871c0c967ull},
    {match::Model::kNcl, Scenario::kPlain, 0x17ee00071f8a9541ull,
     0x53cc540b317575bcull},
    {match::Model::kNclNb, Scenario::kPlain, 0xaed2dba02aa07166ull,
     0x7ca0de4ad5ba4288ull},
    {match::Model::kNclPersist, Scenario::kPlain, 0xe838d012f2dc777bull,
     0xd645ad5303afc3afull},
    {match::Model::kNsr, Scenario::kLossy, 0x206ac8acb8ff86a2ull,
     0x360012c439dbd0f4ull},
    {match::Model::kNsr, Scenario::kCrash, 0xad2a269743a0df86ull,
     0x832e87e9b0dce4fdull},
};

std::string label(const Pin& pin) {
  const char* kind[] = {"plain", "lossy", "crash"};
  return std::string(match::model_name(pin.model)) + " " +
         kind[static_cast<int>(pin.scenario)];
}

TEST(ObsWriter, FilesEqualTheStringFormsAndThePinnedBytes) {
  const std::string dir = testing::TempDir();
  const std::string trace_path = dir + "obs_writer_test.trace.json";
  const std::string metrics_path = dir + "obs_writer_test.metrics.jsonl";
  for (const Pin& pin : kPins) {
    Recorder rec;
    record(rec, pin.model, pin.scenario);
    const std::string trace = rec.to_chrome_json();
    const std::string metrics = rec.metrics_jsonl();
    EXPECT_EQ(fnv1a(trace), pin.trace) << label(pin);
    EXPECT_EQ(fnv1a(metrics), pin.metrics) << label(pin);
    rec.write_chrome_file(trace_path);
    rec.write_metrics_file(metrics_path);
    EXPECT_EQ(read_file(trace_path), trace) << label(pin);
    EXPECT_EQ(read_file(metrics_path), metrics) << label(pin);
  }
  std::filesystem::remove(trace_path);
  std::filesystem::remove(metrics_path);
}

// Names are escaped straight into the emitter's block; a name far larger
// than the block, mixing plain runs and escaped bytes, must come out
// exactly as json_escape prints it.
TEST(ObsWriter, EscapesNamesAcrossBlockBoundaries) {
  std::string algo;
  for (int i = 0; algo.size() < (std::size_t{3} << 20); ++i) {
    algo += "plain-run-";
    algo += "\"\\\n\t\r\b\f\x01\x1f/"[i % 11];
  }
  const std::string model = "m\"x";
  Recorder rec;
  rec.set_run_info(algo, model, 3, 7);
  const std::string want =
      "{\"traceEvents\":[{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,"
      "\"args\":{\"name\":\"melsim " +
      json_escape(algo) + " " + json_escape(model) +
      "\"}}],\"displayTimeUnit\":\"ns\",\"otherData\":{\"schema\":\"" +
      Recorder::kTraceSchema + "\",\"algo\":\"" + json_escape(algo) +
      "\",\"model\":\"" + json_escape(model) + "\",\"ranks\":3,\"seed\":7}}";
  EXPECT_EQ(rec.to_chrome_json(), want);
  const json::Value other = *json::parse(want).find("otherData");
  EXPECT_EQ(other.find("algo")->string, algo);
}

std::string format_us_string(sim::Time ns) {
  char buf[kMaxUsChars];
  return std::string(buf, format_us(buf, ns));
}

std::string printf_us(sim::Time ns) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.3f", static_cast<double>(ns) / 1e3);
  return buf;
}

TEST(ObsWriter, TimestampsPrintExactlyAsPrintf) {
  constexpr sim::Time k50 = sim::Time{1} << 50;
  for (const sim::Time ns :
       {sim::Time{0}, sim::Time{1}, sim::Time{-1}, sim::Time{999},
        sim::Time{-999}, sim::Time{1000}, sim::Time{-1000}, k50 - 1,
        -(k50 - 1), k50, -k50, k50 + 1, INT64_MAX, INT64_MIN + 1}) {
    EXPECT_EQ(format_us_string(ns), printf_us(ns)) << ns;
  }
  EXPECT_EQ(format_us_string(1234567), "1234.567");
  EXPECT_EQ(format_us_string(-5), "-0.005");
  // Seeded sweep over every magnitude up to 2^62, both signs.
  std::uint64_t state = 0x75ull;
  for (int i = 0; i < 200000; ++i) {
    const std::uint64_t r = util::splitmix64(state);
    const int bits = 1 + static_cast<int>(r % 62);
    auto ns = static_cast<sim::Time>(util::splitmix64(state) >> (64 - bits));
    if (r & (1ull << 40)) ns = -ns;
    ASSERT_EQ(format_us_string(ns), printf_us(ns)) << ns;
  }
}

TEST(ObsWriter, UnwritablePathIsANamedError) {
  Recorder rec;
  rec.set_run_info("match", "NSR", 1, 1);
  const std::string path =
      testing::TempDir() + "obs-writer-no-such-dir/trace.json";
  for (const bool chrome : {true, false}) {
    try {
      chrome ? rec.write_chrome_file(path) : rec.write_metrics_file(path);
      FAIL() << "expected a throw";
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()), "cannot open for writing: " + path);
    }
  }
}

TEST(ObsWriter, FullDeviceIsAShortWrite) {
  if (!std::filesystem::exists("/dev/full")) {
    GTEST_SKIP() << "no /dev/full on this system";
  }
  Recorder rec;
  record(rec, match::Model::kNcl, Scenario::kPlain);
  for (const bool chrome : {true, false}) {
    try {
      chrome ? rec.write_chrome_file("/dev/full")
             : rec.write_metrics_file("/dev/full");
      FAIL() << "expected a throw";
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()), "short write: /dev/full");
    }
  }
}

}  // namespace
}  // namespace mel::obs
