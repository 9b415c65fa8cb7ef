// RobinHoodMap: the repo's open-addressed hash table. It backs the metadata
// shards (string keys: directory and file names) and the fair queue's
// per-flow tags (u64 keys: tenant ids). Robin-hood displacement keeps probe
// sequences short and uniform under high load; backward-shift deletion
// keeps the table tombstone-free, so lookup cost never degrades as keys
// churn, and inserting a key allocates nothing once the table has grown.
//
// Layout is struct-of-arrays: the probe sequence walks a dense array of
// 64-bit hashes (8 bytes per step — one cache line covers 8 probes) and
// touches the key/value slot only on a hash match, so a miss or a short
// probe costs one line, not one line per slot.
//
// This is deliberately not a general-purpose container: keys are strings
// or u64s, values are default-constructible, and the caller owns all
// locking. References returned by find/try_emplace are invalidated by any
// mutation. The `_h` variants take the key's stable_key_hash precomputed,
// so callers that already hashed the key for shard routing don't hash it
// twice.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/checksum.h"

namespace hyrd::common {

/// The stable 64-bit key hash shared by the table, the keyspace ring, and
/// the write-order stripes: a SplitMix64-style finalizer over the integer
/// key, or over a string key's fnv1a (fnv1a alone clusters low bits on
/// short ASCII keys). Never returns 0 — the table's empty-slot sentinel.
inline std::uint64_t stable_key_hash(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  z ^= z >> 31;
  return z == 0 ? 1 : z;
}
inline std::uint64_t stable_key_hash(std::string_view key) {
  return stable_key_hash(fnv1a(key));
}

template <typename K, typename V>
class RobinHoodMap {
 public:
  /// Lookups take string keys by view, integer keys by value.
  using KeyView =
      std::conditional_t<std::is_same_v<K, std::string>, std::string_view, K>;

  RobinHoodMap() = default;

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  [[nodiscard]] V* find(KeyView key) {
    return const_cast<V*>(std::as_const(*this).find_h(stable_key_hash(key), key));
  }
  [[nodiscard]] const V* find(KeyView key) const {
    return find_h(stable_key_hash(key), key);
  }

  [[nodiscard]] V* find_h(std::uint64_t h, KeyView key) {
    return const_cast<V*>(std::as_const(*this).find_h(h, key));
  }

  [[nodiscard]] const V* find_h(std::uint64_t h, KeyView key) const {
    if (hashes_.empty()) return nullptr;
    std::size_t i = h & mask_;
    // Fetch the home slot while the probe array's line is in flight: hits
    // land on the first probe almost always (robin-hood keeps mean probe
    // distance < 1), so this overlaps the two cache misses a lookup must
    // pay instead of chaining them.
    __builtin_prefetch(&slots_[i], 0, 1);
    std::size_t dist = 0;
    for (;;) {
      const std::uint64_t sh = hashes_[i];
      if (sh == 0) return nullptr;
      // A resident poorer than us would have been displaced on insert, so
      // passing one proves the key is absent.
      if (probe_distance(sh, i) < dist) return nullptr;
      if (sh == h && slots_[i].key == key) return &slots_[i].value;
      i = (i + 1) & mask_;
      ++dist;
    }
  }

  /// Returns the value for `key`, default-constructing (and inserting) it
  /// if absent.
  V& try_emplace(KeyView key) {
    return try_emplace_h(stable_key_hash(key), key);
  }
  V& try_emplace_h(std::uint64_t h, KeyView key) {
    if (V* v = find_h(h, key)) return *v;
    reserve_one();
    return *insert_fresh(h, K(key), V{});
  }

  /// Inserts or overwrites; returns true when the key was new. Safe to
  /// pass a `key` view into the value being moved: the key is
  /// materialized before the value moves.
  bool insert_or_assign(KeyView key, V&& value) {
    return insert_or_assign_h(stable_key_hash(key), key, std::move(value));
  }
  bool insert_or_assign_h(std::uint64_t h, KeyView key, V&& value) {
    if (V* v = find_h(h, key)) {
      *v = std::move(value);
      return false;
    }
    reserve_one();
    K k(key);  // materialize before the value (and any view into it) moves
    insert_fresh(h, std::move(k), std::move(value));
    return true;
  }

  /// Backward-shift deletion: the cluster after the hole moves one slot
  /// back, so no tombstones accumulate. False if the key was absent.
  bool erase(KeyView key) { return erase_h(stable_key_hash(key), key); }
  bool erase_h(std::uint64_t h, KeyView key) {
    if (hashes_.empty()) return false;
    std::size_t i = h & mask_;
    std::size_t dist = 0;
    for (;;) {
      const std::uint64_t sh = hashes_[i];
      if (sh == 0) return false;
      if (probe_distance(sh, i) < dist) return false;
      if (sh == h && slots_[i].key == key) break;
      i = (i + 1) & mask_;
      ++dist;
    }
    erase_at(i);
    return true;
  }

  /// Erases every entry for which `pred(key, value)` holds. The remaining
  /// set does not depend on visit order. Returns the number erased.
  template <typename Pred>
  std::size_t erase_if(Pred&& pred) {
    std::size_t erased = 0;
    for (std::size_t i = 0; i < hashes_.size();) {
      // Backward shift refills slot i from i+1 (or, at the end of the
      // array, from slot 0, which was already visited), so re-test i
      // instead of advancing.
      if (hashes_[i] != 0 && pred(std::as_const(slots_[i].key),
                                  std::as_const(slots_[i].value))) {
        erase_at(i);
        ++erased;
      } else {
        ++i;
      }
    }
    return erased;
  }

  /// Visits every (key, value) in unspecified order; callers that need
  /// determinism (serialization, listings) sort what they collect.
  template <typename F>
  void for_each(F&& f) const {
    for (std::size_t i = 0; i < hashes_.size(); ++i) {
      if (hashes_[i] != 0) f(slots_[i].key, slots_[i].value);
    }
  }

  void clear() {
    hashes_.clear();
    slots_.clear();
    mask_ = 0;
    size_ = 0;
  }

 private:
  struct Slot {
    K key{};
    V value{};
  };

  [[nodiscard]] std::size_t probe_distance(std::uint64_t hash,
                                           std::size_t at) const {
    return (at + hashes_.size() - (hash & mask_)) & mask_;
  }

  void erase_at(std::size_t i) {
    std::size_t j = (i + 1) & mask_;
    while (hashes_[j] != 0 && probe_distance(hashes_[j], j) != 0) {
      hashes_[i] = hashes_[j];
      slots_[i] = std::move(slots_[j]);
      i = j;
      j = (j + 1) & mask_;
    }
    hashes_[i] = 0;
    slots_[i] = Slot{};
    --size_;
  }

  /// Grows before the load factor crosses 3/4.
  void reserve_one() {
    if (hashes_.empty()) {
      rehash(8);
    } else if ((size_ + 1) * 4 > hashes_.size() * 3) {
      rehash(hashes_.size() * 2);
    }
  }

  void rehash(std::size_t capacity) {
    std::vector<std::uint64_t> old_hashes = std::move(hashes_);
    std::vector<Slot> old_slots = std::move(slots_);
    hashes_.assign(capacity, 0);
    slots_.assign(capacity, Slot{});
    mask_ = capacity - 1;
    size_ = 0;
    for (std::size_t i = 0; i < old_hashes.size(); ++i) {
      if (old_hashes[i] != 0) {
        insert_fresh(old_hashes[i], std::move(old_slots[i].key),
                     std::move(old_slots[i].value));
      }
    }
  }

  /// Robin-hood insert of a key known to be absent. Returns the address
  /// where the inserted value came to rest.
  V* insert_fresh(std::uint64_t h, K key, V value) {
    std::size_t i = h & mask_;
    std::size_t dist = 0;
    V* inserted = nullptr;
    for (;;) {
      if (hashes_[i] == 0) {
        hashes_[i] = h;
        slots_[i].key = std::move(key);
        slots_[i].value = std::move(value);
        ++size_;
        return inserted != nullptr ? inserted : &slots_[i].value;
      }
      const std::size_t sdist = probe_distance(hashes_[i], i);
      if (sdist < dist) {
        // Rob the rich: the resident is closer to home than we are; it
        // takes over the carried element and we continue placing it.
        std::swap(h, hashes_[i]);
        std::swap(key, slots_[i].key);
        std::swap(value, slots_[i].value);
        if (inserted == nullptr) inserted = &slots_[i].value;
        dist = sdist;
      }
      i = (i + 1) & mask_;
      ++dist;
    }
  }

  std::vector<std::uint64_t> hashes_;  // 0 = empty; probe array
  std::vector<Slot> slots_;            // parallel key/value storage
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
};

}  // namespace hyrd::common
