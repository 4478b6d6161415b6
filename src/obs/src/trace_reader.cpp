#include "mel/obs/trace_reader.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>

namespace mel::obs {

namespace {

/// A read-only private mapping of one trace file, read front to back.
/// release_before() gives the consumed prefix's pages back in page-aligned
/// steps of kReleaseStep, so peak RSS is the window plus the consumer's
/// state, not the file. A released page that is touched again is read
/// back from the file, so releasing never changes what the reader sees.
class MappedFile {
 public:
  static constexpr std::size_t kReleaseStep = std::size_t{1} << 20;

  explicit MappedFile(const std::string& path) {
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) throw std::runtime_error("cannot open: " + path);
    std::error_code ec;
    const std::uintmax_t size = std::filesystem::file_size(path, ec);
    if (ec) {
      ::close(fd);
      throw std::runtime_error("cannot read: " + path + " (" + ec.message() +
                               ")");
    }
    size_ = static_cast<std::size_t>(size);
    // An empty file maps nothing and reads as empty text.
    void* at = size_ > 0
                   ? ::mmap(nullptr, size_, PROT_READ, MAP_PRIVATE, fd, 0)
                   : nullptr;
    const int err = errno;
    ::close(fd);
    if (at == MAP_FAILED) {
      throw std::runtime_error("cannot read: " + path + " (" +
                               std::strerror(err) + ")");
    }
    data_ = static_cast<char*>(at);
  }
  ~MappedFile() {
    if (data_ != nullptr) ::munmap(data_, size_);
  }
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  std::string_view text() const { return {data_, size_}; }

  /// Every byte before `pos` is consumed.
  void release_before(std::size_t pos) {
    if (pos - released_ < kReleaseStep) return;
    const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
    const std::size_t end = pos / page * page;
    // Only an advice: if the kernel declines, the pages stay resident and
    // the reader still sees the same bytes.
    ::madvise(data_ + released_, end - released_, MADV_DONTNEED);
    released_ = end;
  }

 private:
  char* data_ = nullptr;
  std::size_t size_ = 0;
  std::size_t released_ = 0;  // page-aligned; [0, released_) given back
};

/// One pass over the document on a json::Lexer. Every production mirrors
/// json::parse's (same whitespace, same order of checks), so a malformed
/// document fails here at the same byte with the same message.
class Reader {
 public:
  /// `window`, when given, maps `text` and is told how far the events
  /// have been consumed.
  Reader(std::string_view text,
         const std::function<void(const TraceEvent&)>& on_event,
         MappedFile* window = nullptr)
      : lex_(text), on_event_(on_event), window_(window) {}

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
            lex_.elements([&] {
              event(index++);
              if (window_ != nullptr) window_->release_before(lex_.pos());
            });
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
  MappedFile* window_;
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

TraceDocument read_trace_file(
    const std::string& path,
    const std::function<void(const TraceEvent&)>& on_event) {
  MappedFile file(path);
  return Reader(file.text(), on_event, &file).run();
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
