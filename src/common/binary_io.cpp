#include "common/binary_io.hpp"

#include <atomic>
#include <cstdio>
#include <cstring>
#include <unistd.h>
#include <utility>

namespace algas {

namespace {
/// Tells apart the temporary files of concurrent writers in one process.
std::atomic<std::uint64_t> g_writer_seq{0};
}  // namespace

BinaryReader::BinaryReader(const std::string& kind, const std::string& path)
    : where_(kind + " file " + path),
      in_(path, std::ios::binary | std::ios::ate) {
  const auto end = in_.tellg();
  if (!in_ || end < 0) fail("cannot open");
  size_ = static_cast<std::uint64_t>(end);
  in_.seekg(0);
}

void BinaryReader::bytes(void* out, std::uint64_t n, const std::string& what) {
  if (n > left() ||
      !in_.read(static_cast<char*>(out), static_cast<std::streamsize>(n))) {
    fail("truncated " + what);
  }
  pos_ += n;
}

void BinaryReader::magic(const char (&expected)[8], const std::string& defect) {
  char got[8];
  bytes(got, sizeof(got), "magic");
  if (std::memcmp(got, expected, sizeof(got)) != 0) fail(defect);
}

void BinaryReader::finish() const {
  if (left() > 0) fail(std::to_string(left()) + " trailing bytes");
}

BinaryWriter::BinaryWriter(const std::string& kind, std::string path)
    : where_(kind + " file " + path),
      path_(std::move(path)),
      tmp_(path_ + ".tmp." + std::to_string(::getpid()) + "." +
           std::to_string(g_writer_seq++)),
      out_(tmp_, std::ios::binary | std::ios::trunc) {
  if (!out_) fail("cannot open " + tmp_ + " for write");
}

BinaryWriter::~BinaryWriter() {
  if (!published_) std::remove(tmp_.c_str());
}

void BinaryWriter::bytes(const void* data, std::uint64_t n) {
  out_.write(static_cast<const char*>(data), static_cast<std::streamsize>(n));
}

void BinaryWriter::finish() {
  out_.close();
  if (!out_) fail("short write");
  if (std::rename(tmp_.c_str(), path_.c_str()) != 0) {
    fail("cannot rename " + tmp_ + " into place");
  }
  published_ = true;
}

}  // namespace algas
