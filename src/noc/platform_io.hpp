// Plain-text (de)serialization of mesh platform specifications.
//
// Format ('#' starts comments):
//
//   platform <rows> <cols> <bandwidth> <XY|YX> <torus 0|1> <guard 0|1>
//            <e_sbit> <e_lbit> <e_bbit>
//   tiles <type_0> ... <type_{rows*cols-1}>
//
// The reader follows the TextScanner contract (src/util/text_scan.hpp):
// whole tokens only, finite numbers, no trailing tokens or lines.
//
// This captures everything make_mesh_platform() needs, so a scheduling
// problem (CTG file + platform file) can be shipped as two text files and
// replayed with the CLI tool.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>

#include "src/noc/platform.hpp"

namespace noceas {

/// Writes a mesh platform spec; throws when `p` is not mesh-based.
void write_platform(std::ostream& os, const Platform& p);

/// Parses a platform spec from the rest of `is`; throws noceas::Error on
/// malformed input.
[[nodiscard]] Platform read_platform(std::istream& is);

/// Round-trip through text; platform_from_string parses `text` in place.
[[nodiscard]] std::string platform_to_string(const Platform& p);
[[nodiscard]] Platform platform_from_string(std::string_view text);

}  // namespace noceas
