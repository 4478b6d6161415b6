#include "mel/obs/recorder.hpp"

#include <charconv>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string_view>

#include "mel/net/params_io.hpp"
#include "mel/obs/json.hpp"

namespace mel::obs {

const char* channel_name(Channel ch) {
  switch (ch) {
    case Channel::kP2P: return "p2p";
    case Channel::kRma: return "rma";
    case Channel::kNeighbor: return "neighbor";
    case Channel::kFt: return "ft";
  }
  return "unknown";
}

void Recorder::record(Rank rank, const char* category, Time start, Time end) {
  spans_.push_back(Span{rank, category, start, end});
}

void Recorder::instant(Rank rank, const char* name, Time t, FlowId flow) {
  instants_.push_back(Instant{rank, name, t, flow});
}

Recorder::Flow* Recorder::find_flow(FlowId id) {
  if (id == 0 || id > flows_.size()) return nullptr;
  Flow& f = flows_[id - 1];
  return f.id == id ? &f : nullptr;
}

void Recorder::flow_begin(FlowId flow, Channel channel, Rank src, Rank dst,
                          int tag, std::size_t bytes, Time t) {
  // The machine assigns each rank its own arithmetic progression of ids
  // (counter * nranks + rank + 1), so ids are dense overall but begins do
  // not arrive in id order; size to the slot and pad the gaps with dead
  // entries to keep the id -> index mapping trivial.
  if (flow == 0) return;
  if (flow > flows_.size()) flows_.resize(flow);
  Flow f;
  f.id = flow;
  f.channel = channel;
  f.src = src;
  f.dst = dst;
  f.tag = tag;
  f.bytes = bytes;
  f.begin_t = t;
  flows_[flow - 1] = f;
}

void Recorder::flow_step(FlowId flow, Rank rank, Time t) {
  if (Flow* f = find_flow(flow)) {
    (void)rank;
    f->step_t = t;
    f->has_step = true;
  }
}

void Recorder::flow_end(FlowId flow, Rank rank, Time t) {
  if (Flow* f = find_flow(flow)) {
    if (f->ended) return;  // keep the first end (e.g. crash-path races)
    f->ended = true;
    f->end_t = t;
    f->end_rank = rank;
  }
}

void Recorder::wire(Rank src, Rank dst, std::size_t bytes, Time t) {
  wires_.push_back(Wire{src, dst, bytes, t});
}

void Recorder::counter(Rank rank, const char* name, Time t,
                       std::uint64_t value) {
  samples_.push_back(Sample{rank, name, t, value});
}

void Recorder::iteration(Rank rank, std::uint64_t iter, std::int64_t active,
                         const mpi::CommCounters& c, Time t) {
  if (rank >= static_cast<Rank>(iter_state_.size())) {
    iter_state_.resize(static_cast<std::size_t>(rank) + 1);
  }
  IterState& prev = iter_state_[rank];
  Iteration rec;
  rec.rank = rank;
  rec.iter = iter;
  rec.active = active;
  rec.t = t;
  rec.dt = t - prev.t;
  rec.d_bytes_p2p = c.bytes_sent - prev.bytes_sent;
  rec.d_bytes_rma = c.bytes_put - prev.bytes_put;
  rec.d_bytes_coll = c.bytes_coll - prev.bytes_coll;
  rec.d_comm_ns = c.comm_ns - prev.comm_ns;
  rec.d_compute_ns = c.compute_ns - prev.compute_ns;
  iterations_.push_back(rec);
  prev = IterState{t, c.bytes_sent, c.bytes_put, c.bytes_coll, c.comm_ns,
                   c.compute_ns};
}

void Recorder::set_run_info(std::string algo, std::string model, int nranks,
                            std::uint64_t seed) {
  algo_ = std::move(algo);
  model_ = std::move(model);
  nranks_ = nranks;
  seed_ = seed;
  has_run_info_ = true;
}

void Recorder::set_run_result(Time time_ns, std::uint64_t trace_hash,
                              std::uint64_t events_executed) {
  run_time_ns_ = time_ns;
  run_trace_hash_ = trace_hash;
  run_events_ = events_executed;
  has_run_result_ = true;
}

void Recorder::set_net_params(const net::Params& params) {
  net_params_ = params;
  has_net_params_ = true;
}

char* format_us(char* out, Time ns) {
  // Below 2^50 ns the double ns/1e3 lies within 2^-13 of the exact
  // three-decimal value, so %.3f always rounds back to it: print the
  // integer microseconds and the three sub-microsecond digits instead.
  constexpr Time kExact = Time{1} << 50;
  if (ns <= -kExact || ns >= kExact) {
    const int n = std::snprintf(out, kMaxUsChars, "%.3f",
                                static_cast<double>(ns) / 1e3);
    return out + n;
  }
  if (ns < 0) *out++ = '-';
  const auto u = static_cast<std::uint64_t>(ns < 0 ? -ns : ns);
  out = std::to_chars(out, out + 20, u / 1000).ptr;
  const auto frac = static_cast<unsigned>(u % 1000);
  out[0] = '.';
  out[1] = static_cast<char>('0' + frac / 100);
  out[2] = static_cast<char>('0' + frac / 10 % 10);
  out[3] = static_cast<char>('0' + frac % 10);
  return out + 4;
}

/// The one serializer behind both artifacts and both destinations. Bytes
/// go into a fixed block that is handed to the sink each time it fills
/// and once at finish(). Plain names and numbers are written straight
/// into the block, so a record allocates nothing and no output is ever
/// held whole.
class Emitter {
 public:
  using Sink = std::function<void(const char*, std::size_t)>;
  static constexpr std::size_t kCapacity = std::size_t{1} << 20;

  explicit Emitter(Sink sink)
      : buf_(new char[kCapacity]), sink_(std::move(sink)) {}

  void raw(std::string_view s) {
    if (kCapacity - pos_ < s.size()) {
      flush();
      if (s.size() > kCapacity) {
        sink_(s.data(), s.size());
        return;
      }
    }
    std::memcpy(buf_.get() + pos_, s.data(), s.size());
    pos_ += s.size();
  }

  void ch(char c) { *room(1) = c; ++pos_; }

  template <typename Int>
  void integer(Int v) {
    char* p = room(24);
    pos_ = static_cast<std::size_t>(std::to_chars(p, p + 24, v).ptr -
                                    buf_.get());
  }

  /// Virtual nanoseconds as the microseconds Chrome/Perfetto expect.
  void us(Time ns) {
    pos_ = static_cast<std::size_t>(format_us(room(kMaxUsChars), ns) -
                                    buf_.get());
  }

  /// "0x" and 16 lowercase hex digits.
  void hex(std::uint64_t v) {
    std::snprintf(room(19), 19, "0x%016llx",
                  static_cast<unsigned long long>(v));
    pos_ += 18;
  }

  /// `s` as the inside of a JSON string literal. Recorded names are
  /// plain in practice and are copied as they are; from the first byte
  /// that needs escaping on, json_escape does the work.
  void escaped(std::string_view s) {
    std::size_t plain = 0;
    while (plain < s.size() && s[plain] != '"' && s[plain] != '\\' &&
           static_cast<unsigned char>(s[plain]) >= 0x20) {
      ++plain;
    }
    raw(s.substr(0, plain));
    if (plain < s.size()) raw(json_escape(s.substr(plain)));
  }

  void finish() { flush(); }

 private:
  char* room(std::size_t n) {
    if (kCapacity - pos_ < n) flush();
    return buf_.get() + pos_;
  }

  void flush() {
    if (pos_ != 0) sink_(buf_.get(), pos_);
    pos_ = 0;
  }

  std::unique_ptr<char[]> buf_;
  std::size_t pos_ = 0;
  Sink sink_;
};

namespace {

/// Everything after the event name shared by every trace event:
/// `","cat":"<cat>","ph":"<ph>","ts":<ts>,"pid":0,"tid":<tid>`.
void event_fields(Emitter& out, const char* cat, char ph, Time ts, Rank tid) {
  out.raw("\",\"cat\":\"");
  out.raw(cat);
  out.raw("\",\"ph\":\"");
  out.ch(ph);
  out.raw("\",\"ts\":");
  out.us(ts);
  out.raw(",\"pid\":0,\"tid\":");
  out.integer(tid);
}

void event_head(Emitter& out, const char* name, const char* cat, char ph,
                Time ts, Rank tid) {
  out.raw("{\"name\":\"");
  out.escaped(name);
  event_fields(out, cat, ph, ts, tid);
}

}  // namespace

void Recorder::emit_chrome(Emitter& out) const {
  out.raw("{\"traceEvents\":[");
  bool first = true;
  auto sep = [&first, &out] {
    if (!first) out.raw(",\n");
    first = false;
  };

  if (has_run_info_) {
    sep();
    out.raw("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"args\":"
            "{\"name\":\"melsim ");
    out.escaped(algo_);
    out.ch(' ');
    out.escaped(model_);
    out.raw("\"}}");
  }

  for (const Span& s : spans_) {
    sep();
    if (s.end > s.start) {
      event_head(out, s.category, "op", 'X', s.start, s.rank);
      out.raw(",\"dur\":");
      out.us(s.end - s.start);
      out.ch('}');
    } else {
      // Zero-duration operation: visible as a thin instant marker.
      event_head(out, s.category, "op", 'i', s.start, s.rank);
      out.raw(",\"s\":\"t\"}");
    }
  }

  for (const Flow& f : flows_) {
    if (f.id == 0) continue;  // dead padding slot
    const char* name = channel_name(f.channel);
    sep();
    event_head(out, name, "flow", 's', f.begin_t, f.src);
    out.raw(",\"id\":");
    out.integer(f.id);
    out.raw(",\"args\":{\"src\":");
    out.integer(f.src);
    out.raw(",\"dst\":");
    out.integer(f.dst);
    out.raw(",\"tag\":");
    out.integer(f.tag);
    out.raw(",\"bytes\":");
    out.integer(f.bytes);
    out.raw("}}");
    if (f.has_step) {
      sep();
      event_head(out, name, "flow", 't', f.step_t, f.dst);
      out.raw(",\"id\":");
      out.integer(f.id);
      out.ch('}');
    }
    if (f.ended) {
      sep();
      event_head(out, name, "flow", 'f', f.end_t, f.end_rank);
      out.raw(",\"bp\":\"e\",\"id\":");
      out.integer(f.id);
      out.ch('}');
    }
  }

  for (const Instant& i : instants_) {
    sep();
    event_head(out, i.name, "instant", 'i', i.t, i.rank);
    out.raw(",\"s\":\"t\"");
    if (i.flow != 0) {
      out.raw(",\"args\":{\"flow\":");
      out.integer(i.flow);
      out.ch('}');
    }
    out.ch('}');
  }

  for (const Wire& w : wires_) {
    sep();
    event_head(out, "wire", "wire", 'i', w.t, w.src);
    out.raw(",\"s\":\"t\",\"args\":{\"src\":");
    out.integer(w.src);
    out.raw(",\"dst\":");
    out.integer(w.dst);
    out.raw(",\"bytes\":");
    out.integer(w.bytes);
    out.raw("}}");
  }

  for (const Sample& s : samples_) {
    // One counter track per (rank, gauge): "r<rank>/<name>"; machine-wide
    // gauges (rank -1) live under "sim/".
    sep();
    out.raw("{\"name\":\"");
    if (s.rank < 0) {
      out.raw("sim/");
    } else {
      out.ch('r');
      out.integer(s.rank);
      out.ch('/');
    }
    out.escaped(s.name);
    event_fields(out, "counter", 'C', s.t, s.rank < 0 ? 0 : s.rank);
    out.raw(",\"args\":{\"value\":");
    out.integer(s.value);
    out.raw("}}");
  }

  for (const Iteration& it : iterations_) {
    sep();
    event_head(out, "iteration", "iter", 'i', it.t, it.rank);
    out.raw(",\"s\":\"t\",\"args\":{\"iter\":");
    out.integer(it.iter);
    out.raw(",\"active\":");
    out.integer(it.active);
    out.raw("}}");
  }

  out.raw("],\"displayTimeUnit\":\"ns\"");
  if (has_run_info_) {
    out.raw(",\"otherData\":{\"schema\":\"");
    out.raw(kTraceSchema);
    out.raw("\",\"algo\":\"");
    out.escaped(algo_);
    out.raw("\",\"model\":\"");
    out.escaped(model_);
    out.raw("\",\"ranks\":");
    out.integer(nranks_);
    out.raw(",\"seed\":");
    out.integer(seed_);
    if (has_net_params_) {
      const std::string net_json = net::params_to_json(net_params_);
      out.raw(",\"net\":");
      out.raw(net_json);
      // Run-configuration digest: FNV-1a over everything that shaped the
      // pricing, so two traces with equal digests were priced under an
      // identical configuration (the replay fidelity gate keys on this).
      std::uint64_t h = 1469598103934665603ull;
      auto mix = [&h](const std::string& s) {
        for (const char c : s) {
          h ^= static_cast<unsigned char>(c);
          h *= 1099511628211ull;
        }
        h ^= 0x1f;
        h *= 1099511628211ull;
      };
      mix(algo_);
      mix(model_);
      mix(std::to_string(nranks_));
      mix(std::to_string(seed_));
      mix(net_json);
      out.raw(",\"config_digest\":\"");
      out.hex(h);
      out.ch('"');
    }
    if (has_run_result_) {
      out.raw(",\"run\":{\"time_ns\":");
      out.integer(run_time_ns_);
      out.raw(",\"trace_hash\":\"");
      out.hex(run_trace_hash_);
      out.raw("\",\"events\":");
      out.integer(run_events_);
      out.ch('}');
    }
    out.ch('}');
  }
  out.ch('}');
}

void Recorder::emit_metrics(Emitter& out) const {
  out.raw("{\"type\":\"header\",\"schema\":\"");
  out.raw(kMetricsSchema);
  out.raw("\",\"algo\":\"");
  out.escaped(algo_);
  out.raw("\",\"model\":\"");
  out.escaped(model_);
  out.raw("\",\"ranks\":");
  out.integer(nranks_);
  out.raw(",\"seed\":");
  out.integer(seed_);
  out.raw("}\n");
  for (const Sample& s : samples_) {
    out.raw("{\"type\":\"sample\",\"t\":");
    out.integer(s.t);
    out.raw(",\"rank\":");
    out.integer(s.rank);
    out.raw(",\"name\":\"");
    out.escaped(s.name);
    out.raw("\",\"value\":");
    out.integer(s.value);
    out.raw("}\n");
  }
  for (const Iteration& it : iterations_) {
    out.raw("{\"type\":\"iteration\",\"t\":");
    out.integer(it.t);
    out.raw(",\"rank\":");
    out.integer(it.rank);
    out.raw(",\"iter\":");
    out.integer(it.iter);
    out.raw(",\"active\":");
    out.integer(it.active);
    out.raw(",\"dt\":");
    out.integer(it.dt);
    out.raw(",\"d_bytes_p2p\":");
    out.integer(it.d_bytes_p2p);
    out.raw(",\"d_bytes_rma\":");
    out.integer(it.d_bytes_rma);
    out.raw(",\"d_bytes_coll\":");
    out.integer(it.d_bytes_coll);
    out.raw(",\"d_comm_ns\":");
    out.integer(it.d_comm_ns);
    out.raw(",\"d_compute_ns\":");
    out.integer(it.d_compute_ns);
    out.raw("}\n");
  }
  for (const Instant& i : instants_) {
    out.raw("{\"type\":\"instant\",\"t\":");
    out.integer(i.t);
    out.raw(",\"rank\":");
    out.integer(i.rank);
    out.raw(",\"name\":\"");
    out.escaped(i.name);
    out.raw("\",\"flow\":");
    out.integer(i.flow);
    out.raw("}\n");
  }
  if (has_run_result_) {
    out.raw("{\"type\":\"run\",\"time_ns\":");
    out.integer(run_time_ns_);
    out.raw(",\"trace_hash\":\"");
    out.hex(run_trace_hash_);
    out.raw("\",\"events\":");
    out.integer(run_events_);
    out.raw("}\n");
  }
}

namespace {

/// Runs `emit` into a string.
std::string emit_to_string(const std::function<void(Emitter&)>& emit) {
  std::string text;
  Emitter out([&text](const char* p, std::size_t n) { text.append(p, n); });
  emit(out);
  out.finish();
  return text;
}

/// Runs `emit` into the file at `path`, one block per write.
void emit_to_file(const std::string& path,
                  const std::function<void(Emitter&)>& emit) {
  struct Closer {
    void operator()(std::FILE* f) const { std::fclose(f); }
  };
  std::unique_ptr<std::FILE, Closer> file(std::fopen(path.c_str(), "wb"));
  if (!file) throw std::runtime_error("cannot open for writing: " + path);
  // The emitter already buffers; each block goes straight to the file.
  std::setvbuf(file.get(), nullptr, _IONBF, 0);
  Emitter out([&](const char* p, std::size_t n) {
    if (std::fwrite(p, 1, n, file.get()) != n) {
      throw std::runtime_error("short write: " + path);
    }
  });
  emit(out);
  out.finish();
  if (std::fclose(file.release()) != 0) {
    throw std::runtime_error("short write: " + path);
  }
}

}  // namespace

std::string Recorder::to_chrome_json() const {
  return emit_to_string([this](Emitter& out) { emit_chrome(out); });
}

std::string Recorder::metrics_jsonl() const {
  return emit_to_string([this](Emitter& out) { emit_metrics(out); });
}

void Recorder::write_chrome_file(const std::string& path) const {
  emit_to_file(path, [this](Emitter& out) { emit_chrome(out); });
}

void Recorder::write_metrics_file(const std::string& path) const {
  emit_to_file(path, [this](Emitter& out) { emit_metrics(out); });
}

}  // namespace mel::obs
