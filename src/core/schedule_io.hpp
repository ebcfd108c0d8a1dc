// Plain-text schedule export/import.
//
// `noceas_cli schedule --schedule-out FILE` writes this format and
// `noceas_cli validate` reads it back to run the standalone invariant
// checks, so a schedule produced on one machine (or by an external tool)
// can be audited on another.  The format is line-oriented and stable:
//
//   schedule <num_tasks> <num_edges>
//   task <id> <pe> <start> <finish>        (one per task, in id order)
//   comm <id> <src_pe> <dst_pe> <start> <duration>   (one per edge)
//
// Unplaced entries use pe/src_pe = -1 with start = 0.  The reader follows
// the TextScanner contract (src/util/text_scan.hpp) and the schedulers'
// time contract: a placed task has 0 <= start <= finish, a placed comm has
// start >= 0, duration >= 0 and an arrival start + duration that fits in Time.
#pragma once

#include <iosfwd>
#include <string_view>

#include "src/core/schedule.hpp"

namespace noceas {

void write_schedule_text(std::ostream& os, const Schedule& s);

/// Parses the rest of `is`; throws noceas::Error on malformed input.
[[nodiscard]] Schedule read_schedule_text(std::istream& is);

/// Parses `text` in place; throws noceas::Error on malformed input.
[[nodiscard]] Schedule schedule_from_string(std::string_view text);

}  // namespace noceas
