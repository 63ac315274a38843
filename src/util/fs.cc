#include "util/fs.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <sstream>
#include <utility>

namespace ednsm::util {

namespace {

std::string errno_message(const char* step, const std::string& path) {
  return std::string(step) + " failed for " + path + ": " + std::strerror(errno);
}

// fsync the directory containing `path` so the rename itself is durable.
// Best-effort: some filesystems reject O_RDONLY directory fsync; the rename
// atomicity (the property partial-write safety rests on) is unaffected.
void sync_parent_dir(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash + 1);
  const int fd = ::open(dir.c_str(), O_RDONLY);
  if (fd < 0) return;
  ::fsync(fd);
  ::close(fd);
}

}  // namespace

AtomicFileWriter::AtomicFileWriter(const std::string& path)
    : path_(path), tmp_(path + ".tmp." + std::to_string(::getpid())) {
  // The rename would replace a FIFO or device node with a regular file.
  struct stat target {};
  if (::stat(path_.c_str(), &target) == 0 && !S_ISREG(target.st_mode)) {
    error_ = path_ + ": not a regular file";
    return;
  }
  fd_ = ::open(tmp_.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd_ < 0) error_ = errno_message("open", tmp_);
}

AtomicFileWriter::~AtomicFileWriter() {
  if (fd_ >= 0) {
    ::close(fd_);
    ::unlink(tmp_.c_str());
  }
}

void AtomicFileWriter::fail(const char* step) {
  error_ = errno_message(step, tmp_);
  ::close(fd_);
  fd_ = -1;
  ::unlink(tmp_.c_str());
}

void AtomicFileWriter::append(std::string_view bytes) {
  std::size_t written = 0;
  while (fd_ >= 0 && written < bytes.size()) {
    const ::ssize_t n = ::write(fd_, bytes.data() + written, bytes.size() - written);
    if (n < 0) {
      if (errno != EINTR) fail("write");
      continue;
    }
    written += static_cast<std::size_t>(n);
  }
}

Result<void> AtomicFileWriter::commit() {
  if (fd_ >= 0 && ::fsync(fd_) != 0) fail("fsync");
  if (fd_ < 0) return Err{error_};
  const int fd = std::exchange(fd_, -1);
  if (::close(fd) != 0) {
    error_ = errno_message("close", tmp_);
  } else if (::rename(tmp_.c_str(), path_.c_str()) != 0) {
    error_ = errno_message("rename", path_);
  }
  if (!error_.empty()) {
    ::unlink(tmp_.c_str());
    return Err{error_};
  }
  sync_parent_dir(path_);
  return {};
}

Result<void> write_file_atomic(const std::string& path, std::string_view content) {
  AtomicFileWriter file(path);
  file.append(content);
  return file.commit();
}

Result<std::string> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Err{"cannot open " + path};
  std::ostringstream buf;
  buf << in.rdbuf();
  if (in.bad()) return Err{"read failed for " + path};
  return std::move(buf).str();
}

}  // namespace ednsm::util
