#include "cloud/memory_store.h"

#include <algorithm>
#include <cstring>

#include "common/copy_meter.h"

namespace hyrd::cloud {

common::Status MemoryStore::create(const std::string& container) {
  Shard& shard = shard_for(container);
  std::lock_guard lock(shard.mu);
  auto [it, inserted] = shard.containers.try_emplace(container);
  (void)it;
  if (!inserted) {
    return common::already_exists("container exists: " + container);
  }
  return common::Status::ok();
}

common::Status MemoryStore::put(const std::string& container,
                                const std::string& name,
                                common::Buffer data) {
  // own() outside the lock: a no-op refbump for owning buffers, a deep
  // copy (the only one this path can make) for borrowed spans.
  common::Buffer owned = std::move(data).own();
  Shard& shard = shard_for(container);
  std::lock_guard lock(shard.mu);
  auto it = shard.containers.find(container);
  if (it == shard.containers.end()) {
    return common::not_found("no such container: " + container);
  }
  auto& obj = it->second[name];
  stored_bytes_.fetch_sub(obj.size(), std::memory_order_relaxed);
  obj = std::move(owned);
  stored_bytes_.fetch_add(obj.size(), std::memory_order_relaxed);
  return common::Status::ok();
}

common::Result<common::Buffer> MemoryStore::get(const std::string& container,
                                                const std::string& name) const {
  const Shard& shard = shard_for(container);
  std::lock_guard lock(shard.mu);
  auto it = shard.containers.find(container);
  if (it == shard.containers.end()) {
    return common::not_found("no such container: " + container);
  }
  auto obj = it->second.find(name);
  if (obj == it->second.end()) {
    return common::not_found("no such object: " + container + "/" + name);
  }
  return obj->second;  // refbump, no byte moves
}

common::Result<common::Buffer> MemoryStore::get_range(
    const std::string& container, const std::string& name,
    std::uint64_t offset, std::uint64_t length) const {
  const Shard& shard = shard_for(container);
  std::lock_guard lock(shard.mu);
  auto it = shard.containers.find(container);
  if (it == shard.containers.end()) {
    return common::not_found("no such container: " + container);
  }
  auto obj = it->second.find(name);
  if (obj == it->second.end()) {
    return common::not_found("no such object: " + container + "/" + name);
  }
  if (!common::range_within(offset, length, obj->second.size())) {
    return common::invalid_argument("range beyond object end");
  }
  return obj->second.slice(static_cast<std::size_t>(offset),
                           static_cast<std::size_t>(length));
}

common::Status MemoryStore::put_range(const std::string& container,
                                      const std::string& name,
                                      std::uint64_t offset,
                                      common::ByteSpan data) {
  Shard& shard = shard_for(container);
  std::lock_guard lock(shard.mu);
  auto it = shard.containers.find(container);
  if (it == shard.containers.end()) {
    return common::not_found("no such container: " + container);
  }
  auto obj = it->second.find(name);
  if (obj == it->second.end()) {
    return common::not_found("no such object: " + container + "/" + name);
  }
  if (!common::range_within(offset, data.size(), obj->second.size())) {
    return common::invalid_argument("range write beyond object end");
  }
  // Copy-on-write: into_bytes() steals the block in O(1) when this store
  // holds the only reference; otherwise it forks a private copy and live
  // readers (or arena-sibling fragments) keep their snapshot.
  common::Bytes block = std::move(obj->second).into_bytes();
  common::count_copied_bytes(data.size());
  std::memcpy(block.data() + offset, data.data(), data.size());
  obj->second = common::Buffer::from(std::move(block));
  return common::Status::ok();
}

common::Status MemoryStore::remove(const std::string& container,
                                   const std::string& name) {
  Shard& shard = shard_for(container);
  std::lock_guard lock(shard.mu);
  auto it = shard.containers.find(container);
  if (it == shard.containers.end()) {
    return common::not_found("no such container: " + container);
  }
  auto obj = it->second.find(name);
  if (obj == it->second.end()) {
    return common::not_found("no such object: " + container + "/" + name);
  }
  stored_bytes_.fetch_sub(obj->second.size(), std::memory_order_relaxed);
  it->second.erase(obj);
  return common::Status::ok();
}

common::Result<std::vector<std::string>> MemoryStore::list(
    const std::string& container) const {
  const Shard& shard = shard_for(container);
  std::lock_guard lock(shard.mu);
  auto it = shard.containers.find(container);
  if (it == shard.containers.end()) {
    return common::not_found("no such container: " + container);
  }
  std::vector<std::string> names;
  names.reserve(it->second.size());
  for (const auto& [name, data] : it->second) names.push_back(name);
  std::sort(names.begin(), names.end());
  return names;
}

bool MemoryStore::container_exists(const std::string& container) const {
  const Shard& shard = shard_for(container);
  std::lock_guard lock(shard.mu);
  return shard.containers.contains(container);
}

std::uint64_t MemoryStore::object_count() const {
  std::uint64_t n = 0;
  for (const auto& shard : shards_) {
    std::lock_guard lock(shard.mu);
    for (const auto& [c, objs] : shard.containers) n += objs.size();
  }
  return n;
}

std::optional<std::uint64_t> MemoryStore::object_size(
    const std::string& container, const std::string& name) const {
  const Shard& shard = shard_for(container);
  std::lock_guard lock(shard.mu);
  auto it = shard.containers.find(container);
  if (it == shard.containers.end()) return std::nullopt;
  auto obj = it->second.find(name);
  if (obj == it->second.end()) return std::nullopt;
  return obj->second.size();
}

void MemoryStore::wipe() {
  // Shard by shard: wipe is not atomic with respect to concurrent writers
  // (neither was the single-lock version from any caller's perspective —
  // a racing put can always land "after" the wipe).
  for (auto& shard : shards_) {
    std::lock_guard lock(shard.mu);
    for (const auto& [c, objs] : shard.containers) {
      for (const auto& [name, data] : objs) {
        stored_bytes_.fetch_sub(data.size(), std::memory_order_relaxed);
      }
    }
    shard.containers.clear();
  }
}

}  // namespace hyrd::cloud
