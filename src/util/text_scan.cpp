#include "src/util/text_scan.hpp"

#include <istream>

#include "src/util/error.hpp"

namespace noceas {

void TextScanner::fail(const std::string& message) const {
  throw Error(std::string(format_) + " line " + std::to_string(line_no_) + ": " + message);
}

void TextScanner::fail_number(std::string_view tok, const char* field, const char* why) const {
  fail(std::string(field) + " '" + std::string(tok) + "' " + why);
}

void TextScanner::fail_at_end(const char* what) const {
  throw Error(std::string(format_) + ": unexpected end of text, expected " + what);
}

std::string read_stream_text(std::istream& is) {
  std::string text;
  char buf[1 << 14];
  while (is) {
    is.read(buf, sizeof buf);
    text.append(buf, static_cast<std::size_t>(is.gcount()));
  }
  NOCEAS_REQUIRE(!is.bad(), "stream failure while reading text input");
  return text;
}

}  // namespace noceas
