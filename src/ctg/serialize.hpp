// Plain-text (de)serialization of CTGs.
//
// Format (one record per line, '#' starts a comment line):
//
//   ctg <num_tasks> <num_edges> <num_pes>
//   task <name> <deadline|-> <release> <t_0> ... <t_{P-1}> <e_0> ... <e_{P-1}>
//   edge <src_index> <dst_index> <volume>
//
// Tasks are numbered by order of appearance.  The reader follows the
// TextScanner contract (src/util/text_scan.hpp): whole tokens only, finite
// numbers, no trailing tokens or lines.  The format round-trips every
// graph the library can represent and is the interchange format used by the
// example binaries (--dump / --load).
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>

#include "src/ctg/task_graph.hpp"

namespace noceas {

/// Writes `g` to `os`; throws on stream failure.
void write_ctg(std::ostream& os, const TaskGraph& g);

/// Parses a CTG from the rest of `is`; throws noceas::Error on malformed input.
[[nodiscard]] TaskGraph read_ctg(std::istream& is);

/// Round-trip through text; ctg_from_string parses `text` in place.
[[nodiscard]] std::string ctg_to_string(const TaskGraph& g);
[[nodiscard]] TaskGraph ctg_from_string(std::string_view text);

}  // namespace noceas
