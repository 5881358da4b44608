// Bounded reads and atomically published writes: the one implementation
// under every on-disk format (DESIGN.md, "On-disk formats"). Every defect
// throws std::runtime_error "<kind> file <path>: <defect>".
#pragma once

#include <cstdint>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace algas {

/// Reads one file, checking every declared length against the bytes left
/// before allocating, so a hostile header costs no more than the file.
class BinaryReader {
 public:
  /// `kind` ("dataset", "graph", ...) names the format in every error.
  BinaryReader(const std::string& kind, const std::string& path);

  [[noreturn]] void fail(const std::string& defect) const {
    throw std::runtime_error(where_ + ": " + defect);
  }

  std::uint64_t left() const { return size_ - pos_; }

  /// Reads n bytes, or fails "truncated <what>".
  void bytes(void* out, std::uint64_t n, const std::string& what);

  /// Fails with `defect` unless the next 8 bytes are `expected`.
  void magic(const char (&expected)[8], const std::string& defect);

  template <typename T>
  T pod(const std::string& what) {
    T v{};
    bytes(&v, sizeof(T), what);
    return v;
  }

  /// Appends `count` elements to `out`; fails before allocating when fewer
  /// bytes are left.
  template <typename T>
  void append(std::vector<T>& out, std::uint64_t count,
              const std::string& what) {
    if (count > left() / sizeof(T)) {
      fail(what + " declares " + std::to_string(count) + " elements but " +
           std::to_string(left()) + " bytes remain");
    }
    const std::size_t old = out.size();
    out.resize(old + count);
    bytes(out.data() + old, count * sizeof(T), what);
  }

  /// A u64 element count, then the elements.
  template <typename T>
  std::vector<T> vec(const std::string& what) {
    std::vector<T> v;
    append(v, pod<std::uint64_t>(what + " length"), what);
    return v;
  }

  /// Fails unless the whole file was read.
  void finish() const;

 private:
  std::string where_;  ///< "<kind> file <path>"
  std::ifstream in_;
  std::uint64_t size_ = 0, pos_ = 0;
};

/// Writes a temporary file beside `path`, named uniquely for the process,
/// and renames it into place in finish(). A writer destroyed before
/// finish() removes it, and a run killed mid-write leaves `path` as it was.
class BinaryWriter {
 public:
  BinaryWriter(const std::string& kind, std::string path);
  ~BinaryWriter();
  BinaryWriter(const BinaryWriter&) = delete;
  BinaryWriter& operator=(const BinaryWriter&) = delete;

  void bytes(const void* data, std::uint64_t n);

  template <typename T>
  void pod(const T& v) { bytes(&v, sizeof(T)); }

  /// A u64 element count, then the elements (BinaryReader::vec).
  template <typename Container>
  void vec(const Container& c) {
    pod(static_cast<std::uint64_t>(c.size()));
    bytes(c.data(), c.size() * sizeof(typename Container::value_type));
  }

  /// Publishes the file; fails on a short write or a failed rename.
  void finish();

 private:
  [[noreturn]] void fail(const std::string& defect) const {
    throw std::runtime_error(where_ + ": " + defect);
  }

  std::string where_, path_, tmp_;
  std::ofstream out_;
  bool published_ = false;
};

}  // namespace algas
