// The one JSON string escaper, shared by every layer that hand-writes
// JSON: trace files, the structured log, run manifests and serve
// replies.
#pragma once

#include <string>
#include <string_view>

namespace wm::obs {

/// Appends `text` to `out` as the body of a JSON string literal (no
/// surrounding quotes): `"` and `\` are backslash-escaped, \n, \r and \t
/// use their short escapes, every other byte below 0x20 becomes \u00XX,
/// and all other bytes (0x7f and UTF-8 sequences included) pass through.
void append_json_escaped(std::string& out, std::string_view text);

}  // namespace wm::obs
