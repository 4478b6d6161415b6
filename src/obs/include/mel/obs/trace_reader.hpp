// The one trace-event reader behind every meltrace subcommand (validate,
// summarize, matrix, diff, replay, critical).
//
// read_trace() streams a Chrome/Perfetto trace document in one pass: each
// `traceEvents` entry is handed to a callback as a flat TraceEvent record
// and forgotten, so no subcommand holds a DOM of the event array. Only
// the small `otherData` header is materialized, through json::parse.
// read_trace_file() runs the same pass over a mapped file whose consumed
// pages are released as it goes.
//
// The reader accepts exactly the documents json::parse accepts (it runs on
// the same json::Lexer): trailing garbage, bad escapes, raw control
// characters and malformed literals or numbers throw json::ParseError
// with the byte offset. Strings decode exactly as json::parse decodes
// them, and on a duplicate key the first member wins, as in
// json::Value::find.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

#include "mel/obs/json.hpp"

namespace mel::obs {

/// One `traceEvents` entry, flattened. `present` says the key occurred
/// (its first occurrence decides everything); `ok` says that occurrence
/// had the expected JSON type.
struct TraceEvent {
  struct Str {
    bool present = false;
    bool ok = false;
    std::string_view value;  // valid only during the callback
  };
  struct Num {
    bool present = false;
    bool ok = false;
    json::Number value;
  };

  std::size_t index = 0;  // position in the traceEvents array
  bool is_object = false;  // every field below is absent otherwise

  Str name, cat, ph;
  Num ts, dur, pid, tid, id;

  bool args_present = false;
  bool args_object = false;
  /// args is an object whose first member holds a number (counter events).
  bool args_first_numeric = false;
  /// Fields of the args object (absent unless args_object).
  Num src, dst, tag, bytes, flow;
};

/// What the reader found around the events.
struct TraceDocument {
  bool root_is_object = false;
  /// The (first) traceEvents member exists and is an array.
  bool has_events = false;
  bool has_other_data = false;
  json::Value other_data;  // the (first) otherData member, when present
};

/// Stream `text`, calling `on_event` once per traceEvents entry in array
/// order. Throws json::ParseError exactly when json::parse(text) would.
TraceDocument read_trace(
    std::string_view text,
    const std::function<void(const TraceEvent&)>& on_event);

/// read_trace() over the file at `path`, mapped read-only instead of
/// copied: same events, same ParseError text and byte offsets. Pages of
/// the event array are given back as the reader passes them, about every
/// 1 MiB, so peak RSS does not grow with the file. Throws
/// std::runtime_error "cannot open: PATH" / "cannot read: PATH (why)" when
/// the path is missing or not a regular file. A file truncated by another
/// process while it is read ends the process with SIGBUS.
TraceDocument read_trace_file(
    const std::string& path,
    const std::function<void(const TraceEvent&)>& on_event);

/// Whole file in one read into an exactly sized buffer (metrics JSONL,
/// tests).
std::string read_file(const std::string& path);

}  // namespace mel::obs
