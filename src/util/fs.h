// Atomic file publication. Every file another thread or process may read
// while it is written — zoo-cache weights, disk stage-cache entries, trace
// files, port files — goes through write_file_atomic, so a reader sees
// either no file, the previous file, or the complete new one.
#pragma once

#include <string>
#include <string_view>

namespace sysnoise::util {

// Writes `bytes` to a temp sibling of `path` whose name is unique to this
// writer (pid + a process-wide counter), so concurrent writers in any
// thread or process never share one, then renames it onto `path`. Every
// write and the close are checked; on any failure the temp is removed,
// `path` is left as it was, and the call returns false.
bool write_file_atomic(const std::string& path, std::string_view bytes);

}  // namespace sysnoise::util
