// Crash-safe file output. Shard files are consumed by a separate process
// (ednsm_merge), possibly from a network drive mid-campaign, so a partially
// written file must never be observable at its final path: write to a
// temporary sibling, fsync, then atomically rename into place.
#pragma once

#include <string>
#include <string_view>

#include "util/result.h"

namespace ednsm::util {

// Streams a file into place atomically: appended bytes land in
// `path + ".tmp.<pid>"`, and commit() fsyncs that file and renames it over
// `path` (POSIX rename is atomic within a filesystem). A writer that is never
// committed, or whose open, write, fsync or rename fails, unlinks its temp
// file; `path` is either fully written or untouched, never truncated. A
// `path` that exists and is not a regular file (after following symlinks: a
// FIFO, a device such as /dev/stdout, a directory) is refused with "not a
// regular file" before any temp file is created, and commit() reports it.
class AtomicFileWriter {
 public:
  explicit AtomicFileWriter(const std::string& path);
  ~AtomicFileWriter();
  AtomicFileWriter(const AtomicFileWriter&) = delete;
  AtomicFileWriter& operator=(const AtomicFileWriter&) = delete;

  // After the first failure, appends do nothing and commit() reports it.
  void append(std::string_view bytes);
  // Makes the file visible at `path`, or returns the error describing the
  // first failing step. Call once.
  [[nodiscard]] Result<void> commit();

 private:
  void fail(const char* step);

  std::string path_;
  std::string tmp_;
  int fd_ = -1;
  std::string error_;
};

// Writes `content` to `path` through an AtomicFileWriter.
[[nodiscard]] Result<void> write_file_atomic(const std::string& path, std::string_view content);

// Reads the entire file into a string; errors (with the failing path) when
// the file cannot be opened or read.
[[nodiscard]] Result<std::string> read_file(const std::string& path);

}  // namespace ednsm::util
