// The one line/token scanner shared by the line-oriented text readers (CTG,
// platform and schedule files).
//
// A TextScanner walks a std::string_view in place: next_line() skips blank
// lines and lines whose first non-separator byte is '#', and the tokens of a
// line are separated by runs of space, tab and '\r' (so CRLF files read like
// LF files).  Nothing is copied; tokens are views into the caller's text and
// die with it.
//
// number<T>() converts one whole token with std::from_chars.  It accepts one
// optional leading '+' (istream did) and rejects a partial token ("12abc",
// "0x10"), a value outside T ("1e400", "-1" for an unsigned count) and, for
// floating point, the non-finite spellings from_chars would otherwise accept
// ("inf", "nan").  end_line() rejects trailing tokens.  Every error throws
// noceas::Error naming the format and the 1-based line number.
#pragma once

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstddef>
#include <iosfwd>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace noceas {

class TextScanner {
 public:
  /// `format` names the file kind in error messages ("CTG", "platform", ...).
  TextScanner(std::string_view text, const char* format) : text_(text), format_(format) {}

  /// Moves to the next line that is neither blank nor a comment; false at
  /// the end of the text.
  bool next_line() {
    while (pos_ < text_.size()) {
      const std::size_t end = std::min(text_.find('\n', pos_), text_.size());
      ++line_no_;
      line_ = text_.substr(pos_, end - pos_);
      pos_ = end + 1;
      cur_ = 0;
      skip_separators();
      if (cur_ < line_.size() && line_[cur_] != '#') return true;
    }
    line_ = {};
    cur_ = 0;
    return false;
  }

  /// Like next_line(), but a missing line is an error naming `what`.
  void require_line(const char* what) {
    if (!next_line()) fail_at_end(what);
  }

  /// True when the current line has no token left.
  [[nodiscard]] bool at_line_end() const { return cur_ >= line_.size(); }

  /// Next token of the current line; `field` names it when it is missing.
  std::string_view token(const char* field) {
    if (at_line_end()) fail(std::string("missing ") + field);
    const std::size_t start = cur_;
    while (cur_ < line_.size() && !is_separator(line_[cur_])) ++cur_;
    const std::string_view tok = line_.substr(start, cur_ - start);
    skip_separators();
    return tok;
  }

  /// Consumes a token that must equal `expected`.
  void keyword(std::string_view expected) {
    const std::string_view tok = token("keyword");
    if (tok != expected) {
      fail("expected '" + std::string(expected) + "', got '" + std::string(tok) + '\'');
    }
  }

  /// Tokens left on the current line (not consumed).
  [[nodiscard]] std::size_t tokens_left() const {
    std::size_t n = 0;
    for (std::size_t i = cur_; i < line_.size();) {
      ++n;
      while (i < line_.size() && !is_separator(line_[i])) ++i;
      while (i < line_.size() && is_separator(line_[i])) ++i;
    }
    return n;
  }

  /// Converts the next token to an arithmetic T (see the header comment).
  template <class T>
  T number(const char* field) {
    return parse_number<T>(token(field), field);
  }

  /// Converts `tok` (a token of the current line) to T.
  template <class T>
  T parse_number(std::string_view tok, const char* field) const {
    std::string_view digits = tok;
    if (digits.size() > 1 && digits[0] == '+' && digits[1] != '-' && digits[1] != '+') {
      digits.remove_prefix(1);
    }
    T value{};
    const char* first = digits.data();
    const char* last = first + digits.size();
    const auto [ptr, ec] = std::from_chars(first, last, value);
    if (ec == std::errc::result_out_of_range) fail_number(tok, field, "is out of range");
    if (ec != std::errc{} || ptr != last) fail_number(tok, field, "is not a number");
    if constexpr (std::is_floating_point_v<T>) {
      if (!std::isfinite(value)) fail_number(tok, field, "is not finite");
    }
    return value;
  }

  /// Requires that the current line has no token left.
  void end_line() {
    if (!at_line_end()) fail("unexpected trailing token '" + std::string(token("token")) + '\'');
  }

  /// Throws noceas::Error "<format> line <n>: <message>".
  [[noreturn]] void fail(const std::string& message) const;

 private:
  static bool is_separator(char c) { return c == ' ' || c == '\t' || c == '\r'; }

  void skip_separators() {
    while (cur_ < line_.size() && is_separator(line_[cur_])) ++cur_;
  }

  [[noreturn]] void fail_number(std::string_view tok, const char* field, const char* why) const;
  [[noreturn]] void fail_at_end(const char* what) const;

  std::string_view text_;
  const char* format_;
  std::size_t pos_ = 0;      // start of the next unread line in text_
  std::size_t line_no_ = 0;  // 1-based number of line_
  std::string_view line_;    // current line, without its '\n'
  std::size_t cur_ = 0;      // read position in line_, always at a token or the end
};

/// Reads the rest of `is` into a string (the istream reader overloads parse
/// that string); throws noceas::Error when the stream fails.
[[nodiscard]] std::string read_stream_text(std::istream& is);

}  // namespace noceas
