#include "dataset/io.hpp"

#include <cstring>
#include <fstream>
#include <stdexcept>
#include <sys/stat.h>

namespace algas {

namespace {

template <typename T>
std::vector<T> read_xvecs(const std::string& path, std::size_t& dim_out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);

  std::vector<T> rows;
  dim_out = 0;
  std::int32_t dim = 0;
  while (in.read(reinterpret_cast<char*>(&dim), sizeof(dim))) {
    if (dim <= 0) throw std::runtime_error("bad row dimension in " + path);
    if (dim_out == 0) {
      dim_out = static_cast<std::size_t>(dim);
    } else if (dim_out != static_cast<std::size_t>(dim)) {
      throw std::runtime_error("ragged rows in " + path);
    }
    const std::size_t old = rows.size();
    rows.resize(old + static_cast<std::size_t>(dim));
    if (!in.read(reinterpret_cast<char*>(rows.data() + old),
                 static_cast<std::streamsize>(sizeof(T) * dim))) {
      throw std::runtime_error("truncated row in " + path);
    }
  }
  return rows;
}

template <typename T>
void write_xvecs(const std::string& path, const std::vector<T>& data,
                 std::size_t dim) {
  if (dim == 0 || data.size() % dim != 0) {
    throw std::invalid_argument("data size not a multiple of dim");
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("cannot open " + path + " for write");
  const auto d32 = static_cast<std::int32_t>(dim);
  const std::size_t rows = data.size() / dim;
  for (std::size_t r = 0; r < rows; ++r) {
    out.write(reinterpret_cast<const char*>(&d32), sizeof(d32));
    out.write(reinterpret_cast<const char*>(data.data() + r * dim),
              static_cast<std::streamsize>(sizeof(T) * dim));
  }
  if (!out) throw std::runtime_error("short write to " + path);
}

constexpr char kMagic[8] = {'A', 'L', 'G', 'A', 'S', 'D', 'S', '1'};
/// Optional attribute trailer after the ground-truth vec. Attribute-free
/// datasets write nothing (their files stay byte-identical to the
/// pre-attribute format), and the loader treats clean EOF here as "no
/// attributes" — so old cache files keep loading.
constexpr char kAttrMagic[8] = {'A', 'L', 'G', 'A', 'S', 'A', 'T', '1'};

template <typename T>
void write_pod(std::ofstream& out, const T& v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <typename T>
void write_vec(std::ofstream& out, const std::vector<T>& v) {
  write_pod(out, static_cast<std::uint64_t>(v.size()));
  out.write(reinterpret_cast<const char*>(v.data()),
            static_cast<std::streamsize>(v.size() * sizeof(T)));
}

/// Bounded reads from one `.abin` file: every declared length is checked
/// against the bytes left in the file before anything is allocated, and
/// every error names the file and the defect.
class AbinReader {
 public:
  explicit AbinReader(const std::string& path)
      : path_(path), in_(path, std::ios::binary | std::ios::ate) {
    if (!in_) throw std::runtime_error("cannot open " + path);
    size_ = static_cast<std::uint64_t>(in_.tellg());
    in_.seekg(0);
  }

  [[noreturn]] void fail(const std::string& defect) const {
    throw std::runtime_error("dataset file " + path_ + ": " + defect);
  }

  std::uint64_t left() {
    return size_ - static_cast<std::uint64_t>(in_.tellg());
  }

  void bytes(char* out, std::uint64_t n, const std::string& what) {
    if (n > left() || !in_.read(out, static_cast<std::streamsize>(n))) {
      fail("truncated " + what);
    }
  }

  template <typename T>
  T pod(const std::string& what) {
    T v{};
    bytes(reinterpret_cast<char*>(&v), sizeof(T), what);
    return v;
  }

  template <typename T>
  std::vector<T> vec(const std::string& what) {
    const auto n = pod<std::uint64_t>(what + " length");
    if (n > left() / sizeof(T)) {
      fail(what + " declares " + std::to_string(n) + " elements but " +
           std::to_string(left()) + " bytes remain");
    }
    std::vector<T> v(n);
    bytes(reinterpret_cast<char*>(v.data()), n * sizeof(T), what);
    return v;
  }

 private:
  std::string path_;
  std::ifstream in_;
  std::uint64_t size_ = 0;
};

/// Whole finite rows of `dim` floats, or `r.fail` naming the defect.
void check_rows(const AbinReader& r, const std::vector<float>& rows,
                std::uint64_t dim, const std::string& what) {
  if (dim == 0 ? !rows.empty() : rows.size() % dim != 0) {
    r.fail(what + " holds " + std::to_string(rows.size()) +
           " floats, not whole rows of dim " + std::to_string(dim));
  }
  if (dim == 0) return;
  if (const auto bad = non_finite_row(rows, dim)) {
    r.fail(what + " row " + std::to_string(*bad) + " holds a NaN or infinity");
  }
}

}  // namespace

std::vector<float> read_fvecs(const std::string& path, std::size_t& dim_out) {
  std::vector<float> rows = read_xvecs<float>(path, dim_out);
  if (const auto bad = non_finite_row(rows, dim_out)) {
    throw std::runtime_error("row " + std::to_string(*bad) + " of " + path +
                             " holds a NaN or infinity");
  }
  return rows;
}

std::vector<std::int32_t> read_ivecs(const std::string& path,
                                     std::size_t& dim_out) {
  return read_xvecs<std::int32_t>(path, dim_out);
}

void write_fvecs(const std::string& path, const std::vector<float>& data,
                 std::size_t dim) {
  write_xvecs(path, data, dim);
}

void write_ivecs(const std::string& path,
                 const std::vector<std::int32_t>& data, std::size_t dim) {
  write_xvecs(path, data, dim);
}

void save_dataset(const Dataset& ds, const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("cannot open " + path + " for write");
  out.write(kMagic, sizeof(kMagic));
  const std::uint64_t name_len = ds.name().size();
  write_pod(out, name_len);
  out.write(ds.name().data(), static_cast<std::streamsize>(name_len));
  write_pod(out, static_cast<std::uint64_t>(ds.dim()));
  write_pod(out, static_cast<std::uint32_t>(ds.metric()));
  write_pod(out, static_cast<std::uint64_t>(ds.gt_k()));
  write_vec(out, ds.base());
  write_vec(out, ds.queries());
  write_vec(out, ds.ground_truth_flat());
  if (ds.has_attributes()) {
    out.write(kAttrMagic, sizeof(kAttrMagic));
    write_vec(out, ds.categories());
    write_vec(out, ds.timestamps());
  }
  if (!out) throw std::runtime_error("short write to " + path);
}

Dataset load_dataset(const std::string& path) {
  AbinReader r(path);
  char magic[8];
  r.bytes(magic, sizeof(magic), "magic");
  if (std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    r.fail("not an ALGAS dataset file");
  }
  const auto name = r.vec<char>("name");
  const auto dim = r.pod<std::uint64_t>("dim");
  const auto metric = r.pod<std::uint32_t>("metric");
  const auto gt_k = r.pod<std::uint64_t>("ground-truth depth");
  if (metric > static_cast<std::uint32_t>(Metric::kCosine)) {
    r.fail("unknown metric " + std::to_string(metric));
  }

  Dataset ds(std::string(name.begin(), name.end()), dim,
             static_cast<Metric>(metric));
  ds.mutable_base() = r.vec<float>("base");
  check_rows(r, ds.base(), dim, "base");
  ds.mutable_queries() = r.vec<float>("queries");
  check_rows(r, ds.queries(), dim, "queries");
  auto gt = r.vec<NodeId>("ground truth");
  // gt_k comes from the file: divide rather than multiply, so no overflow.
  const std::uint64_t gt_rows = gt_k == 0 ? 0 : gt.size() / gt_k;
  if (gt_rows * gt_k != gt.size() ||
      (gt_k > 0 && gt_rows != ds.num_queries())) {
    r.fail("ground truth holds " + std::to_string(gt.size()) +
           " ids, not " + std::to_string(ds.num_queries()) + " queries x " +
           std::to_string(gt_k));
  }
  for (const NodeId id : gt) {
    if (id >= ds.num_base()) {
      r.fail("ground-truth id " + std::to_string(id) + " out of range for " +
             std::to_string(ds.num_base()) + " base rows");
    }
  }
  if (gt_k > 0) ds.set_ground_truth(std::move(gt), gt_k);
  if (r.left() > 0) {
    char attr_magic[8];
    r.bytes(attr_magic, sizeof(attr_magic), "trailer");
    if (std::memcmp(attr_magic, kAttrMagic, sizeof(kAttrMagic)) != 0) {
      r.fail("unknown trailer");
    }
    auto cats = r.vec<std::uint32_t>("categories");
    auto ts = r.vec<std::uint32_t>("timestamps");
    if (cats.size() != ds.num_base() || ts.size() != ds.num_base()) {
      r.fail("attribute trailer holds " + std::to_string(cats.size()) + "/" +
             std::to_string(ts.size()) + " entries for " +
             std::to_string(ds.num_base()) + " base rows");
    }
    ds.set_attributes(std::move(cats), std::move(ts));
  }
  return ds;
}

Dataset load_texmex(const std::string& name, const std::string& base_path,
                    const std::string& query_path, const std::string& gt_path,
                    Metric metric) {
  std::size_t base_dim = 0, query_dim = 0;
  auto base = read_fvecs(base_path, base_dim);
  auto queries = read_fvecs(query_path, query_dim);
  if (base_dim != query_dim) {
    throw std::runtime_error("base/query dimension mismatch: " +
                             std::to_string(base_dim) + " vs " +
                             std::to_string(query_dim));
  }

  Dataset ds(name, base_dim, metric);
  if (metric == Metric::kCosine || metric == Metric::kInnerProduct) {
    for (std::size_t i = 0; i + base_dim <= base.size(); i += base_dim) {
      normalize({base.data() + i, base_dim});
    }
    for (std::size_t i = 0; i + base_dim <= queries.size(); i += base_dim) {
      normalize({queries.data() + i, base_dim});
    }
  }
  ds.mutable_base() = std::move(base);
  ds.mutable_queries() = std::move(queries);

  if (!gt_path.empty()) {
    std::size_t gt_k = 0;
    const auto gt_raw = read_ivecs(gt_path, gt_k);
    std::vector<NodeId> gt(gt_raw.size());
    for (std::size_t i = 0; i < gt_raw.size(); ++i) {
      if (gt_raw[i] < 0 ||
          static_cast<std::size_t>(gt_raw[i]) >= ds.num_base()) {
        throw std::runtime_error("ground-truth id out of range in " + gt_path);
      }
      gt[i] = static_cast<NodeId>(gt_raw[i]);
    }
    if (gt.size() != ds.num_queries() * gt_k) {
      throw std::runtime_error("ground-truth row count mismatch in " +
                               gt_path);
    }
    ds.set_ground_truth(std::move(gt), gt_k);
  }
  return ds;
}

bool file_exists(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0;
}

}  // namespace algas
