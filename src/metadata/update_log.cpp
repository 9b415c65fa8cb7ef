#include "metadata/update_log.h"

#include <algorithm>

#include "metadata/serializer.h"

namespace hyrd::meta {

namespace {
constexpr std::uint32_t kLogMagic = 0x4C4F4731;  // "LOG1"
}

std::uint64_t UpdateLog::append(std::string provider, std::string container,
                                std::string path, std::string object_name,
                                LogAction action) {
  std::lock_guard lock(mu_);
  Slot slot;
  slot.rec = LogRecord{next_seq_++,          std::move(provider),
                       std::move(container), std::move(path),
                       std::move(object_name), action};
  const std::size_t idx = slab_.size();
  const std::uint64_t seq = slot.rec.seq;

  ProviderIndex& pi = providers_[slot.rec.provider];
  pi.slots.push_back(idx);
  auto [it, fresh] = pi.latest.try_emplace(slot.rec.object_name, idx);
  slab_.push_back(std::move(slot));
  if (!fresh) {
    // A later record for the same object shadows the earlier one: it no
    // longer appears in pending_for's compacted view, and past the
    // watermark it is dropped from the log entirely.
    slab_[it->second].shadowed = true;
    it->second = idx;
    if (++pi.superseded >= watermark_) compact_provider(pi);
  }
  maybe_compact_slab();
  return seq;
}

std::vector<LogRecord> UpdateLog::pending_for(
    const std::string& provider) const {
  std::lock_guard lock(mu_);
  std::vector<LogRecord> out;
  const auto it = providers_.find(provider);
  if (it == providers_.end()) return out;
  out.reserve(it->second.slots.size() - it->second.superseded);
  for (const std::size_t idx : it->second.slots) {
    const Slot& s = slab_[idx];
    if (!s.dead && !s.shadowed) out.push_back(s.rec);
  }
  // Slots are appended in seq order; restored snapshots could in principle
  // carry arbitrary numbering, so pin the contract explicitly. The common
  // case is already sorted — verify in O(n) rather than sort in O(n log n).
  const auto by_seq = [](const LogRecord& a, const LogRecord& b) {
    return a.seq < b.seq;
  };
  if (!std::is_sorted(out.begin(), out.end(), by_seq)) {
    std::sort(out.begin(), out.end(), by_seq);
  }
  return out;
}

void UpdateLog::truncate(const std::string& provider,
                         std::uint64_t through_seq) {
  std::lock_guard lock(mu_);
  const auto it = providers_.find(provider);
  if (it == providers_.end()) return;
  ProviderIndex& pi = it->second;

  std::vector<std::size_t> keep;
  keep.reserve(pi.slots.size());
  for (const std::size_t idx : pi.slots) {
    Slot& s = slab_[idx];
    if (s.rec.seq > through_seq) {
      keep.push_back(idx);
      continue;
    }
    s.dead = true;
    ++dead_;
    if (s.shadowed) {
      --pi.superseded;
    } else {
      const auto latest = pi.latest.find(s.rec.object_name);
      if (latest != pi.latest.end() && latest->second == idx) {
        pi.latest.erase(latest);
      }
    }
  }
  if (keep.empty()) {
    providers_.erase(it);
  } else {
    pi.slots = std::move(keep);
  }
  maybe_compact_slab();
}

std::size_t UpdateLog::size() const {
  std::lock_guard lock(mu_);
  return slab_.size() - dead_;
}

void UpdateLog::set_compaction_watermark(std::size_t records) {
  std::lock_guard lock(mu_);
  watermark_ = records == 0 ? 1 : records;
}

std::size_t UpdateLog::compactions() const {
  std::lock_guard lock(mu_);
  return compactions_;
}

void UpdateLog::compact_provider(ProviderIndex& pi) {
  std::vector<std::size_t> keep;
  keep.reserve(pi.slots.size() - pi.superseded);
  for (const std::size_t idx : pi.slots) {
    Slot& s = slab_[idx];
    if (s.dead) continue;
    if (s.shadowed) {
      s.dead = true;
      ++dead_;
      continue;
    }
    keep.push_back(idx);
  }
  pi.slots = std::move(keep);
  pi.superseded = 0;
  ++compactions_;
}

void UpdateLog::maybe_compact_slab() {
  if (slab_.size() < 64 || dead_ * 2 <= slab_.size()) return;
  std::vector<Slot> live;
  live.reserve(slab_.size() - dead_);
  for (Slot& s : slab_) {
    if (!s.dead) live.push_back(std::move(s));
  }
  slab_ = std::move(live);
  dead_ = 0;
  rebuild_indexes();
}

void UpdateLog::rebuild_indexes() {
  providers_.clear();
  for (std::size_t idx = 0; idx < slab_.size(); ++idx) {
    Slot& s = slab_[idx];
    if (s.dead) continue;
    s.shadowed = false;
    ProviderIndex& pi = providers_[s.rec.provider];
    pi.slots.push_back(idx);
    auto [it, fresh] = pi.latest.try_emplace(s.rec.object_name, idx);
    if (!fresh) {
      slab_[it->second].shadowed = true;
      it->second = idx;
      ++pi.superseded;
    }
  }
}

common::Bytes UpdateLog::serialize() const {
  std::lock_guard lock(mu_);
  Writer w;
  w.u32(kLogMagic);
  w.u64(next_seq_);
  w.u32(static_cast<std::uint32_t>(slab_.size() - dead_));
  for (const Slot& s : slab_) {
    if (s.dead) continue;
    w.u64(s.rec.seq);
    w.str(s.rec.provider);
    w.str(s.rec.container);
    w.str(s.rec.path);
    w.str(s.rec.object_name);
    w.u8(static_cast<std::uint8_t>(s.rec.action));
  }
  return w.take();
}

common::Status UpdateLog::restore(common::ByteSpan data) {
  Reader r(data);
  auto magic = r.u32();
  if (!magic.is_ok()) return magic.status();
  if (magic.value() != kLogMagic) {
    return common::invalid_argument("bad update-log magic");
  }
  auto next = r.u64();
  if (!next.is_ok()) return next.status();
  auto count = r.u32();
  if (!count.is_ok()) return count.status();

  // Each record carries a u64 seq + four length-prefixed fields + action:
  // at least 21 bytes. Bound the reserve by the actual payload so hostile
  // counts fail cleanly instead of allocating.
  if (count.value() > r.remaining() / 21) {
    return common::invalid_argument("record count exceeds payload");
  }
  std::vector<Slot> slab;
  slab.reserve(count.value());
  for (std::uint32_t i = 0; i < count.value(); ++i) {
    LogRecord rec;
    auto seq = r.u64();
    if (!seq.is_ok()) return seq.status();
    rec.seq = seq.value();
    auto provider = r.str();
    if (!provider.is_ok()) return provider.status();
    rec.provider = std::move(provider).value();
    auto container = r.str();
    if (!container.is_ok()) return container.status();
    rec.container = std::move(container).value();
    auto path = r.str();
    if (!path.is_ok()) return path.status();
    rec.path = std::move(path).value();
    auto object_name = r.str();
    if (!object_name.is_ok()) return object_name.status();
    rec.object_name = std::move(object_name).value();
    auto action = r.u8();
    if (!action.is_ok()) return action.status();
    if (action.value() > 1) {
      return common::invalid_argument("bad log action");
    }
    rec.action = static_cast<LogAction>(action.value());
    Slot slot;
    slot.rec = std::move(rec);
    slab.push_back(std::move(slot));
  }

  std::lock_guard lock(mu_);
  next_seq_ = next.value();
  slab_ = std::move(slab);
  dead_ = 0;
  rebuild_indexes();
  return common::Status::ok();
}

}  // namespace hyrd::meta
