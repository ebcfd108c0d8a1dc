#include "src/util/json.hpp"

#include <cmath>
#include <cstring>
#include <limits>

namespace noceas::json {

// ---- parsing ---------------------------------------------------------------

/// Recursive descent over the document's own copy of the text.  Containers
/// collect their children on Document::stack_ and move them to nodes_ as
/// one contiguous block when they close, so every child range is dense.
/// Escaped strings are decoded in place: the decoded form is never longer
/// than its escaped source.
class Parser {
 public:
  explicit Parser(Document& doc)
      : doc_(doc), p_(doc.text_.data()), end_(doc.text_.data() + doc.text_.size()) {}

  void run() {
    Document::Node root = value(0);
    skip_ws();
    if (p_ != end_) doc_.fail("trailing characters");
    doc_.nodes_.push_back(root);
  }

 private:
  static constexpr int kMaxDepth = 256;

  void skip_ws() {
    while (p_ != end_ && (*p_ == ' ' || *p_ == '\n' || *p_ == '\r' || *p_ == '\t')) ++p_;
  }
  char peek() {
    skip_ws();
    if (p_ == end_) doc_.fail("unexpected end of input");
    return *p_;
  }
  void expect(char c) {
    if (peek() != c) doc_.fail(std::string("expected '") + c + '\'');
    ++p_;
  }
  bool consume(char c) {
    if (peek() != c) return false;
    ++p_;
    return true;
  }
  std::uint32_t offset(const char* q) const {
    return static_cast<std::uint32_t>(q - doc_.text_.data());
  }

  Document::Node value(int depth) {
    switch (peek()) {
      case '{': return container(depth, '}', true);
      case '[': return container(depth, ']', false);
      case '"': {
        Document::Node n;
        n.kind = Kind::Str;
        string_slice(n.text_off, n.text_len);
        return n;
      }
      case 't': return literal("true", Kind::Bool, true);
      case 'f': return literal("false", Kind::Bool, false);
      case 'n': return literal("null", Kind::Null, false);
      default: return number();
    }
  }

  Document::Node container(int depth, char close, bool is_object) {
    if (depth >= kMaxDepth) doc_.fail("nesting too deep");
    ++p_;
    std::vector<Document::Node>& stack = doc_.stack_;
    const std::size_t mark = stack.size();
    if (!consume(close)) {
      do {
        std::uint32_t key_off = 0;
        std::uint32_t key_len = 0;
        if (is_object) {
          if (peek() != '"') doc_.fail("expected a string key");
          string_slice(key_off, key_len);
          expect(':');
        }
        Document::Node child = value(depth + 1);
        child.key_off = key_off;
        child.key_len = key_len;
        stack.push_back(child);
      } while (consume(','));
      expect(close);
    }
    Document::Node n;
    n.kind = is_object ? Kind::Obj : Kind::Arr;
    n.first = static_cast<std::uint32_t>(doc_.nodes_.size());
    n.count = static_cast<std::uint32_t>(stack.size() - mark);
    doc_.nodes_.insert(doc_.nodes_.end(), stack.begin() + static_cast<std::ptrdiff_t>(mark),
                       stack.end());
    stack.resize(mark);
    return n;
  }

  Document::Node literal(std::string_view word, Kind kind, bool b) {
    if (static_cast<std::size_t>(end_ - p_) < word.size() ||
        std::memcmp(p_, word.data(), word.size()) != 0) {
      doc_.fail("bad literal");
    }
    p_ += word.size();
    Document::Node n;
    n.kind = kind;
    n.b = b;
    return n;
  }

  static bool digit(char c) { return c >= '0' && c <= '9'; }
  void digits() {
    if (p_ == end_ || !digit(*p_)) doc_.fail("bad number");
    while (p_ != end_ && digit(*p_)) ++p_;
  }

  /// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
  Document::Node number() {
    const char* const start = p_;
    if (*p_ == '-') ++p_;
    if (p_ != end_ && *p_ == '0') {
      ++p_;
    } else {
      digits();
    }
    Document::Node n;
    n.kind = Kind::Num;
    n.integral = true;
    if (p_ != end_ && *p_ == '.') {
      ++p_;
      digits();
      n.integral = false;
    }
    if (p_ != end_ && (*p_ == 'e' || *p_ == 'E')) {
      ++p_;
      if (p_ != end_ && (*p_ == '+' || *p_ == '-')) ++p_;
      digits();
      n.integral = false;
    }
    n.text_off = offset(start);
    n.text_len = static_cast<std::uint32_t>(p_ - start);
    return n;
  }

  unsigned hex4() {
    if (end_ - p_ < 4) doc_.fail("bad \\u escape");
    unsigned v = 0;
    for (int i = 0; i < 4; ++i, ++p_) {
      const char c = *p_;
      v <<= 4;
      if (digit(c)) {
        v |= static_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        v |= static_cast<unsigned>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        v |= static_cast<unsigned>(c - 'A' + 10);
      } else {
        doc_.fail("bad \\u escape");
      }
    }
    return v;
  }

  /// Writes code point `cp` as UTF-8 at `w`.
  static char* put_utf8(char* w, unsigned cp) {
    if (cp < 0x80) {
      *w++ = static_cast<char>(cp);
    } else if (cp < 0x800) {
      *w++ = static_cast<char>(0xC0 | (cp >> 6));
      *w++ = static_cast<char>(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      *w++ = static_cast<char>(0xE0 | (cp >> 12));
      *w++ = static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      *w++ = static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      *w++ = static_cast<char>(0xF0 | (cp >> 18));
      *w++ = static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
      *w++ = static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      *w++ = static_cast<char>(0x80 | (cp & 0x3F));
    }
    return w;
  }

  /// Parses the string at p_ (which is at the opening quote) and returns
  /// its decoded contents as a slice of the document text.
  void string_slice(std::uint32_t& off, std::uint32_t& len) {
    ++p_;
    char* const begin = p_;
    while (p_ != end_ && *p_ != '"' && *p_ != '\\') ++p_;
    char* w = p_;
    while (p_ != end_ && *p_ != '"') {
      if (*p_ != '\\') {
        *w++ = *p_++;
        continue;
      }
      if (++p_ == end_) break;
      const char c = *p_++;
      switch (c) {
        case '"':
        case '\\':
        case '/': *w++ = c; break;
        case 'b': *w++ = '\b'; break;
        case 'f': *w++ = '\f'; break;
        case 'n': *w++ = '\n'; break;
        case 'r': *w++ = '\r'; break;
        case 't': *w++ = '\t'; break;
        case 'u': {
          unsigned cp = hex4();
          if (cp >= 0xDC00 && cp <= 0xDFFF) doc_.fail("bad \\u escape");
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            if (end_ - p_ < 2 || p_[0] != '\\' || p_[1] != 'u') doc_.fail("bad \\u escape");
            p_ += 2;
            const unsigned lo = hex4();
            if (lo < 0xDC00 || lo > 0xDFFF) doc_.fail("bad \\u escape");
            cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
          }
          w = put_utf8(w, cp);
          break;
        }
        default: doc_.fail("unknown escape");
      }
    }
    if (p_ == end_) doc_.fail("unterminated string");
    ++p_;
    off = offset(begin);
    len = static_cast<std::uint32_t>(w - begin);
  }

  Document& doc_;
  char* p_;
  char* const end_;
};

void Document::parse(std::string_view text, std::string_view what) {
  parsed_ = false;
  what_.assign(what);
  NOCEAS_REQUIRE(text.size() < std::numeric_limits<std::uint32_t>::max(),
                 what_ << ": document too large");
  text_.assign(text);
  nodes_.clear();
  stack_.clear();
  Parser(*this).run();
  parsed_ = true;
}

View Document::root() const {
  if (!parsed_) fail("no document");
  return View(this, static_cast<std::uint32_t>(nodes_.size() - 1));
}

void Document::fail(std::string_view msg) const {
  throw Error(what_ + ": " + std::string(msg));
}

void Document::missing_key(std::string_view key) const {
  fail("missing key '" + std::string(key) + '\'');
}

Document parse(std::string_view text, std::string_view what) {
  Document doc;
  doc.parse(text, what);
  return doc;
}

// ---- writing ---------------------------------------------------------------

void append_double(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += "null";  // NaN/inf are not JSON
    return;
  }
  char buf[64];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  if (ec == std::errc()) {
    out.append(buf, ptr);
  } else {
    out += '0';
  }
}

void append_string(std::string& out, std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          const char esc[] = {'\\', 'u', '0', '0', kHex[(c >> 4) & 0xF], kHex[c & 0xF]};
          out.append(esc, sizeof(esc));
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

}  // namespace noceas::json
