#include "mel/obs/trace_reader.hpp"

#include <filesystem>
#include <fstream>
#include <stdexcept>

namespace mel::obs {

namespace {

/// One pass over the document on a json::Lexer. Every production mirrors
/// json::parse's (same whitespace, same order of checks), so a malformed
/// document fails here at the same byte with the same message.
class Reader {
 public:
  Reader(std::string_view text,
         const std::function<void(const TraceEvent&)>& on_event)
      : lex_(text), on_event_(on_event) {}

  TraceDocument run() {
    TraceDocument doc;
    lex_.skip_ws();
    if (lex_.peek() != '{') {
      lex_.skip_value();
    } else {
      doc.root_is_object = true;
      bool seen_events = false;
      lex_.members([&](std::string_view key) {
        lex_.skip_ws();
        if (key == "traceEvents" && !seen_events) {
          seen_events = true;
          if (lex_.peek() == '[') {
            doc.has_events = true;
            std::size_t index = 0;
            lex_.elements([&] { event(index++); });
            return;
          }
        } else if (key == "otherData" && !doc.has_other_data) {
          doc.has_other_data = true;
          const std::size_t begin = lex_.pos();
          lex_.skip_value();
          doc.other_data =
              json::parse(lex_.text().substr(begin, lex_.pos() - begin));
          return;
        }
        lex_.skip_value();
      });
    }
    lex_.skip_ws();
    if (!lex_.at_end()) lex_.fail("trailing garbage after JSON document");
    return doc;
  }

 private:
  void event(std::size_t index) {
    ev_ = TraceEvent{};
    ev_.index = index;
    lex_.skip_ws();
    if (lex_.peek() != '{') {
      lex_.skip_value();
      on_event_(ev_);
      return;
    }
    ev_.is_object = true;
    lex_.members([this](std::string_view key) {
      if (key == "name") str_field(ev_.name, name_buf_);
      else if (key == "cat") str_field(ev_.cat, cat_buf_);
      else if (key == "ph") str_field(ev_.ph, ph_buf_);
      else if (key == "ts") num_field(ev_.ts);
      else if (key == "dur") num_field(ev_.dur);
      else if (key == "pid") num_field(ev_.pid);
      else if (key == "tid") num_field(ev_.tid);
      else if (key == "id") num_field(ev_.id);
      else if (key == "args" && !ev_.args_present) args();
      else lex_.skip_value();
    });
    on_event_(ev_);
  }

  void args() {
    ev_.args_present = true;
    lex_.skip_ws();
    if (lex_.peek() != '{') {
      lex_.skip_value();
      return;
    }
    ev_.args_object = true;
    bool first = true;
    lex_.members([&](std::string_view key) {
      if (first) {
        lex_.skip_ws();
        ev_.args_first_numeric = starts_number(lex_.peek());
        first = false;
      }
      if (key == "src") num_field(ev_.src);
      else if (key == "dst") num_field(ev_.dst);
      else if (key == "tag") num_field(ev_.tag);
      else if (key == "bytes") num_field(ev_.bytes);
      else if (key == "flow") num_field(ev_.flow);
      else lex_.skip_value();
    });
  }

  /// json::parse reads every value that does not open a container,
  /// string or literal as a number.
  static bool starts_number(char c) {
    return c != '{' && c != '[' && c != '"' && c != 't' && c != 'f' &&
           c != 'n';
  }

  void str_field(TraceEvent::Str& f, std::string& scratch) {
    lex_.skip_ws();
    if (f.present || lex_.peek() != '"') {
      f.present = true;
      lex_.skip_value();
      return;
    }
    f.present = true;
    f.ok = true;
    f.value = lex_.string(scratch);
  }

  void num_field(TraceEvent::Num& f) {
    lex_.skip_ws();
    if (f.present || !starts_number(lex_.peek())) {
      f.present = true;
      lex_.skip_value();
      return;
    }
    f.present = true;
    f.ok = true;
    f.value = lex_.number();
  }

  json::Lexer lex_;
  const std::function<void(const TraceEvent&)>& on_event_;
  TraceEvent ev_;
  // Decode buffers for escaped strings; one per field so every view in
  // ev_ stays valid until the callback returns.
  std::string name_buf_, cat_buf_, ph_buf_;
};

}  // namespace

TraceDocument read_trace(
    std::string_view text,
    const std::function<void(const TraceEvent&)>& on_event) {
  return Reader(text, on_event).run();
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open: " + path);
  std::error_code ec;
  const std::uintmax_t size = std::filesystem::file_size(path, ec);
  if (ec) {
    throw std::runtime_error("cannot read: " + path + " (" + ec.message() +
                             ")");
  }
  std::string out(size, '\0');
  if (!in.read(out.data(), static_cast<std::streamsize>(size))) {
    throw std::runtime_error("short read: " + path);
  }
  return out;
}

}  // namespace mel::obs
