// The one JSON reader shared by every artifact-consuming layer, plus the
// shared append-to-buffer writer helpers.
//
// Reader.  A Document parses one complete JSON text (a line of JSONL or a
// whole file) into a flat node vector: every array/object keeps its children
// in one contiguous index range, object members carry their key, and string
// contents and number tokens are (offset, length) slices of a text buffer
// the Document owns.  Re-parsing into the same Document reuses its buffers,
// so a JSONL reader that keeps one Document and one line string allocates
// nothing per line once the buffers have grown.  Lookups are linear key
// scans, which beats a map for the repo's objects (at most a dozen keys).
//
// Lifetime rule: a View and every string_view it hands out die with their
// Document: when it is destroyed, parses again, or is moved from.
//
// Numbers are validated against the JSON grammar at parse time but only
// converted when read.  Integer accessors (i64/i32/u64) parse the token
// exactly with from_chars and throw noceas::Error on a non-integer token
// (fraction or exponent), on a non-number and on a value outside the target
// type, so a Time above 2^53 round-trips exactly and a bad field never
// truncates silently.  num() converts to double; `null` reads as NaN
// because the writers emit `null` for NaN/inf.
//
// Strings accept the JSON escapes \" \\ \/ \b \f \n \r \t and \uXXXX
// (surrogate pairs included), decoded to UTF-8.  Raw control bytes inside
// strings are accepted too, because some artifact writers still emit them.
// All errors throw noceas::Error tagged with the caller's context string
// ("manifest: expected ':'"), duplicate keys resolve to the first member.
//
// Writer.  append_string escapes '"', '\\' and '\n' in short form and every
// other byte below 0x20 as \u00XX, so its output is always valid JSON;
// doubles use the shortest round-trip form with NaN/inf written as `null`.
#pragma once

#include <charconv>
#include <concepts>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "src/util/error.hpp"

namespace noceas::json {

enum class Kind : std::uint8_t { Null, Bool, Num, Str, Arr, Obj };

class Document;

/// Read-only handle to one node of a Document.  Cheap to copy.
class View {
 public:
  class Iterator {
   public:
    View operator*() const { return View(doc_, index_); }
    Iterator& operator++() {
      ++index_;
      return *this;
    }
    bool operator==(const Iterator& o) const { return index_ == o.index_; }

   private:
    friend class View;
    Iterator(const Document* doc, std::uint32_t index) : doc_(doc), index_(index) {}
    const Document* doc_;
    std::uint32_t index_;
  };

  [[nodiscard]] Kind kind() const;

  /// Object member lookup (first match); has() is false on non-objects.
  [[nodiscard]] bool has(std::string_view key) const;
  /// Throws when this is not an object or has no member `key`.
  [[nodiscard]] View at(std::string_view key) const;

  /// Element/member count and positional access; throws on scalars.
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] View operator[](std::size_t i) const;
  /// Iterates array elements or object members; throws on scalars.
  [[nodiscard]] Iterator begin() const;
  [[nodiscard]] Iterator end() const;
  /// The member name of an object member; empty otherwise.
  [[nodiscard]] std::string_view key() const;

  [[nodiscard]] std::string_view str() const;
  [[nodiscard]] bool boolean() const;
  [[nodiscard]] double num() const;
  [[nodiscard]] std::int64_t i64() const;
  [[nodiscard]] std::int32_t i32() const;
  [[nodiscard]] std::uint64_t u64() const;

 private:
  friend class Document;
  View(const Document* doc, std::uint32_t index) : doc_(doc), index_(index) {}
  [[nodiscard]] std::uint32_t first_child() const;
  template <typename T>
  [[nodiscard]] T integer() const;

  const Document* doc_;
  std::uint32_t index_;
};

/// A parsed JSON text.  Nodes address the text by offset, so a moved
/// Document stays intact; take views from the moved-to object.
class Document {
 public:
  /// Parses `text` (copied into the document), replacing the previous
  /// content.  `what` tags error messages, e.g. "decision stream".
  void parse(std::string_view text, std::string_view what = "json");

  /// The top-level value; throws when no parse has succeeded.
  [[nodiscard]] View root() const;

 private:
  friend class View;
  friend class Parser;

  struct Node {
    std::uint32_t key_off = 0;
    std::uint32_t key_len = 0;
    std::uint32_t text_off = 0;  ///< string contents or number token
    std::uint32_t text_len = 0;
    std::uint32_t first = 0;  ///< containers: index of the first child
    std::uint32_t count = 0;  ///< containers: number of children
    Kind kind = Kind::Null;
    bool b = false;
    bool integral = false;  ///< number token without fraction or exponent
  };

  [[nodiscard]] std::string_view slice(std::uint32_t off, std::uint32_t len) const {
    return {text_.data() + off, len};
  }
  [[noreturn]] void fail(std::string_view msg) const;
  [[noreturn]] void missing_key(std::string_view key) const;

  std::string text_;
  std::string what_ = "json";
  std::vector<Node> nodes_;
  std::vector<Node> stack_;  ///< children of the containers being parsed
  bool parsed_ = false;
};

// ---- View accessors, inline: they sit on every reader's hot path ----------

inline Kind View::kind() const { return doc_->nodes_[index_].kind; }

inline std::uint32_t View::first_child() const {
  const Document::Node& n = doc_->nodes_[index_];
  if (n.kind != Kind::Arr && n.kind != Kind::Obj) doc_->fail("expected an array or object");
  return n.first;
}

inline bool View::has(std::string_view key) const {
  const Document::Node& n = doc_->nodes_[index_];
  if (n.kind != Kind::Obj) return false;
  for (std::uint32_t i = n.first; i < n.first + n.count; ++i) {
    const Document::Node& c = doc_->nodes_[i];
    if (doc_->slice(c.key_off, c.key_len) == key) return true;
  }
  return false;
}

inline View View::at(std::string_view key) const {
  const Document::Node& n = doc_->nodes_[index_];
  if (n.kind != Kind::Obj) doc_->fail("expected an object");
  for (std::uint32_t i = n.first; i < n.first + n.count; ++i) {
    const Document::Node& c = doc_->nodes_[i];
    if (doc_->slice(c.key_off, c.key_len) == key) return View(doc_, i);
  }
  doc_->missing_key(key);
}

inline std::size_t View::size() const {
  (void)first_child();
  return doc_->nodes_[index_].count;
}

inline View View::operator[](std::size_t i) const {
  const std::uint32_t first = first_child();
  if (i >= doc_->nodes_[index_].count) doc_->fail("index out of range");
  return View(doc_, first + static_cast<std::uint32_t>(i));
}

inline View::Iterator View::begin() const { return Iterator(doc_, first_child()); }

inline View::Iterator View::end() const {
  return Iterator(doc_, first_child() + doc_->nodes_[index_].count);
}

inline std::string_view View::key() const {
  const Document::Node& n = doc_->nodes_[index_];
  return doc_->slice(n.key_off, n.key_len);
}

inline std::string_view View::str() const {
  const Document::Node& n = doc_->nodes_[index_];
  if (n.kind != Kind::Str) doc_->fail("expected a string");
  return doc_->slice(n.text_off, n.text_len);
}

inline bool View::boolean() const {
  const Document::Node& n = doc_->nodes_[index_];
  if (n.kind != Kind::Bool) doc_->fail("expected a boolean");
  return n.b;
}

inline double View::num() const {
  const Document::Node& n = doc_->nodes_[index_];
  if (n.kind == Kind::Null) return std::numeric_limits<double>::quiet_NaN();
  if (n.kind != Kind::Num) doc_->fail("expected a number");
  const char* s = doc_->text_.data() + n.text_off;
  double out = 0.0;
  const auto [ptr, ec] = std::from_chars(s, s + n.text_len, out);
  if (ec != std::errc() || ptr != s + n.text_len) doc_->fail("number out of range");
  return out;
}

template <typename T>
T View::integer() const {
  const Document::Node& n = doc_->nodes_[index_];
  if (n.kind != Kind::Num || !n.integral) doc_->fail("expected an integer");
  const char* s = doc_->text_.data() + n.text_off;
  T out = 0;
  const auto [ptr, ec] = std::from_chars(s, s + n.text_len, out);
  if (ec != std::errc() || ptr != s + n.text_len) doc_->fail("integer out of range");
  return out;
}

inline std::int64_t View::i64() const { return integer<std::int64_t>(); }
inline std::int32_t View::i32() const { return integer<std::int32_t>(); }
inline std::uint64_t View::u64() const { return integer<std::uint64_t>(); }

/// One-shot parse of a whole document.
[[nodiscard]] Document parse(std::string_view text, std::string_view what = "json");

// ---- writing ---------------------------------------------------------------

template <std::integral T>
void append_int(std::string& out, T v) {
  char buf[24];
  const auto result = std::to_chars(buf, buf + sizeof(buf), v);
  out.append(buf, result.ptr);
}

/// Shortest round-trip form; NaN/inf are written as `null`.
void append_double(std::string& out, double v);

/// Appends `s` as a quoted, escaped JSON string.
void append_string(std::string& out, std::string_view s);

}  // namespace noceas::json
