#include "dataset/partitioner.hpp"

#include <stdexcept>
#include <string>

namespace algas {

ShardPartition::ShardPartition(std::size_t num_base, std::size_t shards)
    : num_base_(num_base), shards_(shards) {
  if (shards == 0) {
    throw std::invalid_argument("ShardPartition: shards must be >= 1");
  }
  if (shards > num_base) {
    throw std::invalid_argument(
        "ShardPartition: more shards (" + std::to_string(shards) +
        ") than base rows (" + std::to_string(num_base) + ")");
  }
}

ShardRange ShardPartition::range(std::size_t shard) const {
  // s*n/K boundaries: exact integer arithmetic, sizes differ by <= 1.
  const std::size_t lo = shard * num_base_ / shards_;
  const std::size_t hi = (shard + 1) * num_base_ / shards_;
  return {static_cast<NodeId>(lo), static_cast<NodeId>(hi)};
}

std::size_t ShardPartition::size(std::size_t shard) const {
  const ShardRange r = range(shard);
  return static_cast<std::size_t>(r.end - r.begin);
}

std::size_t ShardPartition::shard_of(NodeId global) const {
  // Invert the floor-division boundary with a guess + bounded correction
  // (the guess is off by at most one step on boundary rounding).
  std::size_t s = std::min<std::size_t>(
      shards_ - 1, static_cast<std::size_t>(global) * shards_ / num_base_);
  while (global < range(s).begin) --s;
  while (global >= range(s).end) ++s;
  return s;
}

NodeId ShardPartition::to_local(NodeId global) const {
  return global - range(shard_of(global)).begin;
}

NodeId ShardPartition::to_global(std::size_t shard, NodeId local) const {
  return range(shard).begin + local;
}

Dataset make_shard_dataset(const Dataset& ds, const ShardPartition& part,
                           std::size_t shard) {
  const ShardRange r = part.range(shard);
  Dataset out(ds.name() + "/shard" + std::to_string(shard), ds.dim(),
              ds.metric());
  const std::size_t dim = ds.dim();
  // The codec first, so the rows encode once: the slice is taken from the
  // exact f32 rows, and encoding is per row, so shard rows encode
  // bit-identically to the same rows in the unsharded store.
  out.set_storage(ds.storage());
  out.set_base({ds.base().begin() + static_cast<std::ptrdiff_t>(r.begin * dim),
                ds.base().begin() + static_cast<std::ptrdiff_t>(r.end * dim)});
  out.set_queries(ds.queries());
  return out;
}

}  // namespace algas
