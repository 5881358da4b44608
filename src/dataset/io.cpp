#include "dataset/io.hpp"

#include <stdexcept>
#include <sys/stat.h>
#include <type_traits>

#include "common/binary_io.hpp"

namespace algas {

namespace {

constexpr char kMagic[8] = {'A', 'L', 'G', 'A', 'S', 'D', 'S', '1'};
/// Optional attribute trailer after the ground-truth vec. Attribute-free
/// datasets write nothing (their files stay byte-identical to the
/// pre-attribute format), and the loader treats clean EOF here as "no
/// attributes" — so old cache files keep loading.
constexpr char kAttrMagic[8] = {'A', 'L', 'G', 'A', 'S', 'A', 'T', '1'};

/// Whole finite rows of `dim` floats, or `r.fail` naming the defect.
void check_rows(const BinaryReader& r, const std::vector<float>& rows,
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

/// Rows of [int32 dim][dim elements], every row the same dim. An empty
/// file is zero rows of dim 0.
template <typename T>
std::vector<T> read_xvecs(const char* kind, const std::string& path,
                          std::size_t& dim_out) {
  BinaryReader r(kind, path);
  std::vector<T> rows;
  dim_out = 0;
  for (std::size_t row = 0; r.left() > 0; ++row) {
    const auto dim = r.pod<std::int32_t>("row dimension");
    if (dim <= 0 || (row > 0 && static_cast<std::size_t>(dim) != dim_out)) {
      r.fail("row " + std::to_string(row) + " has dimension " +
             std::to_string(dim));
    }
    dim_out = static_cast<std::size_t>(dim);
    r.append(rows, dim_out, "row " + std::to_string(row));
  }
  if constexpr (std::is_same_v<T, float>) check_rows(r, rows, dim_out, "data");
  return rows;
}

template <typename T>
void write_xvecs(const char* kind, const std::string& path,
                 const std::vector<T>& data, std::size_t dim) {
  if (dim == 0 || data.size() % dim != 0) {
    throw std::invalid_argument("data size not a multiple of dim");
  }
  BinaryWriter w(kind, path);
  const auto d32 = static_cast<std::int32_t>(dim);
  for (std::size_t r = 0; r < data.size(); r += dim) {
    w.pod(d32);
    w.bytes(data.data() + r, sizeof(T) * dim);
  }
  w.finish();
}

}  // namespace

std::vector<float> read_fvecs(const std::string& path, std::size_t& dim_out) {
  return read_xvecs<float>("fvecs", path, dim_out);
}

std::vector<std::int32_t> read_ivecs(const std::string& path,
                                     std::size_t& dim_out) {
  return read_xvecs<std::int32_t>("ivecs", path, dim_out);
}

void write_fvecs(const std::string& path, const std::vector<float>& data,
                 std::size_t dim) {
  write_xvecs("fvecs", path, data, dim);
}

void write_ivecs(const std::string& path,
                 const std::vector<std::int32_t>& data, std::size_t dim) {
  write_xvecs("ivecs", path, data, dim);
}

void save_dataset(const Dataset& ds, const std::string& path) {
  BinaryWriter w("dataset", path);
  w.bytes(kMagic, sizeof(kMagic));
  w.vec(ds.name());
  w.pod(static_cast<std::uint64_t>(ds.dim()));
  w.pod(static_cast<std::uint32_t>(ds.metric()));
  w.pod(static_cast<std::uint64_t>(ds.gt_k()));
  w.vec(ds.base());
  w.vec(ds.queries());
  w.vec(ds.ground_truth_flat());
  if (ds.has_attributes()) {
    w.bytes(kAttrMagic, sizeof(kAttrMagic));
    w.vec(ds.categories());
    w.vec(ds.timestamps());
  }
  w.finish();
}

Dataset load_dataset(const std::string& path) {
  BinaryReader r("dataset", path);
  r.magic(kMagic, "not an ALGAS dataset file");
  const auto name = r.vec<char>("name");
  const auto dim = r.pod<std::uint64_t>("dim");
  const auto metric = r.pod<std::uint32_t>("metric");
  const auto gt_k = r.pod<std::uint64_t>("ground-truth depth");
  if (metric > static_cast<std::uint32_t>(Metric::kCosine)) {
    r.fail("unknown metric " + std::to_string(metric));
  }

  Dataset ds(std::string(name.begin(), name.end()), dim,
             static_cast<Metric>(metric));
  auto base = r.vec<float>("base");
  check_rows(r, base, dim, "base");
  ds.set_base(std::move(base));
  auto queries = r.vec<float>("queries");
  check_rows(r, queries, dim, "queries");
  ds.set_queries(std::move(queries));
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
    r.magic(kAttrMagic, "unknown trailer");
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
  ds.set_base(std::move(base));
  ds.set_queries(std::move(queries));

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
