#include "metadata/keyspace.h"

#include <algorithm>
#include <cassert>

#include "common/rng.h"
#include "metadata/file_meta.h"
#include "common/robin_hood.h"

namespace hyrd::meta {

using common::stable_key_hash;

Keyspace::Keyspace(std::size_t shard_count, std::size_t vnodes_per_shard)
    : shard_count_(shard_count == 0 ? 1 : shard_count),
      vnodes_(vnodes_per_shard == 0 ? 1 : vnodes_per_shard) {
  ring_.reserve(shard_count_ * vnodes_);
  for (std::size_t s = 0; s < shard_count_; ++s) {
    // Each shard's points derive from its id alone, so shard s owns the
    // same arcs in every keyspace that contains it — the property that
    // makes growth move only the new shard's arcs.
    common::SplitMix64 gen(0x6b657973'70616365ull ^ (s + 1));
    for (std::size_t v = 0; v < vnodes_; ++v) {
      ring_.push_back({gen.next(), static_cast<std::uint32_t>(s)});
    }
  }
  std::sort(ring_.begin(), ring_.end(), [](const Point& a, const Point& b) {
    return a.where != b.where ? a.where < b.where : a.shard < b.shard;
  });

  lut_.resize(std::size_t{1} << kLutBits);
  std::size_t ri = 0;
  for (std::size_t b = 0; b < lut_.size(); ++b) {
    const std::uint64_t start = static_cast<std::uint64_t>(b) << kLutShift;
    while (ri < ring_.size() && ring_[ri].where < start) ++ri;
    lut_[b] = static_cast<std::uint32_t>(ri);
  }
}

std::size_t Keyspace::shard_of_dir(std::string_view dir) const {
  return shard_of_hash(stable_key_hash(dir));
}

std::size_t Keyspace::shard_of_path(const std::string& path) const {
  return shard_of_dir(split_path(path).first);
}

std::vector<double> Keyspace::ownership() const {
  std::vector<double> out(shard_count_, 0.0);
  constexpr double kSpace = 18446744073709551616.0;  // 2^64
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    // Point i owns the arc (prev, i]; the first point also owns the wrap.
    const std::uint64_t hi = ring_[i].where;
    const std::uint64_t lo = ring_[i == 0 ? ring_.size() - 1 : i - 1].where;
    const double arc =
        i == 0 ? (kSpace - static_cast<double>(lo) + static_cast<double>(hi))
               : static_cast<double>(hi - lo);
    out[ring_[i].shard] += arc / kSpace;
  }
  return out;
}

double Keyspace::moved_fraction(const Keyspace& from, const Keyspace& to) {
  // Merge both rings' boundary points: ownership is constant between
  // consecutive boundaries, so comparing one interior point per interval
  // is exact.
  std::vector<std::uint64_t> bounds;
  bounds.reserve(from.ring_.size() + to.ring_.size());
  for (const auto& p : from.ring_) bounds.push_back(p.where);
  for (const auto& p : to.ring_) bounds.push_back(p.where);
  std::sort(bounds.begin(), bounds.end());
  bounds.erase(std::unique(bounds.begin(), bounds.end()), bounds.end());
  if (bounds.empty()) return 0.0;

  constexpr double kSpace = 18446744073709551616.0;  // 2^64
  double moved = 0.0;
  for (std::size_t i = 0; i < bounds.size(); ++i) {
    const std::uint64_t lo = bounds[i];
    const std::uint64_t hi = bounds[(i + 1) % bounds.size()];
    // The interval (lo, hi] routes like any interior point; `hi` itself is
    // a member and cheap to query.
    if (from.shard_of_hash(hi) == to.shard_of_hash(hi)) continue;
    const double arc = i + 1 < bounds.size()
                           ? static_cast<double>(hi - lo)
                           : kSpace - static_cast<double>(lo) +
                                 static_cast<double>(hi);
    moved += arc / kSpace;
  }
  return moved;
}

}  // namespace hyrd::meta
