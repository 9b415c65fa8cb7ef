#include "metadata/file_meta.h"

#include "metadata/serializer.h"

namespace hyrd::meta {

namespace {
constexpr std::uint8_t kFileMetaVersion = 2;  // v2 added fragment_crcs
}

std::pair<std::string, std::string> split_path(const std::string& path) {
  const auto slash = path.rfind('/');
  if (slash == std::string::npos) return {"/", path};
  return {slash == 0 ? std::string("/") : path.substr(0, slash),
          path.substr(slash + 1)};
}

std::string FileMeta::directory() const { return split_path(path).first; }
std::string FileMeta::filename() const { return split_path(path).second; }

void FileMeta::serialize(Writer& w) const {
  w.u8(kFileMetaVersion);
  w.str(path);
  w.u64(size);
  w.i64(mtime);
  w.u64(version);
  w.u8(static_cast<std::uint8_t>(redundancy));
  w.u32(crc);
  w.u32(stripe_k);
  w.u32(stripe_m);
  w.u64(shard_size);
  w.u32(static_cast<std::uint32_t>(locations.size()));
  for (const auto& loc : locations) {
    w.str(loc.provider);
    w.str(loc.object_name);
  }
  w.u32(static_cast<std::uint32_t>(fragment_crcs.size()));
  for (std::uint32_t c : fragment_crcs) w.u32(c);
}

common::Result<FileMeta> FileMeta::deserialize(Reader& r) {
  auto ver = r.u8();
  if (!ver.is_ok()) return ver.status();
  if (ver.value() != kFileMetaVersion) {
    return common::invalid_argument("unsupported FileMeta version");
  }
  FileMeta m;
#define HYRD_READ(field, call)              \
  {                                         \
    auto v = (call);                        \
    if (!v.is_ok()) return v.status();      \
    m.field = std::move(v).value();         \
  }
  HYRD_READ(path, r.str());
  HYRD_READ(size, r.u64());
  HYRD_READ(mtime, r.i64());
  HYRD_READ(version, r.u64());
  {
    auto v = r.u8();
    if (!v.is_ok()) return v.status();
    if (v.value() > 1) {
      return common::invalid_argument("bad redundancy kind");
    }
    m.redundancy = static_cast<RedundancyKind>(v.value());
  }
  HYRD_READ(crc, r.u32());
  HYRD_READ(stripe_k, r.u32());
  HYRD_READ(stripe_m, r.u32());
  HYRD_READ(shard_size, r.u64());
  auto count = r.u32();
  if (!count.is_ok()) return count.status();
  // A location is at least two length prefixes (8 bytes); a hostile count
  // must not drive a giant reserve before the element reads fail.
  if (count.value() > r.remaining() / 8) {
    return common::invalid_argument("location count exceeds payload");
  }
  m.locations.reserve(count.value());
  for (std::uint32_t i = 0; i < count.value(); ++i) {
    FragmentLocation loc;
    {
      auto v = r.str();
      if (!v.is_ok()) return v.status();
      loc.provider = std::move(v).value();
    }
    {
      auto v = r.str();
      if (!v.is_ok()) return v.status();
      loc.object_name = std::move(v).value();
    }
    m.locations.push_back(std::move(loc));
  }
  auto crc_count = r.u32();
  if (!crc_count.is_ok()) return crc_count.status();
  if (crc_count.value() > r.remaining() / 4) {
    return common::invalid_argument("crc count exceeds payload");
  }
  m.fragment_crcs.reserve(crc_count.value());
  for (std::uint32_t i = 0; i < crc_count.value(); ++i) {
    auto v = r.u32();
    if (!v.is_ok()) return v.status();
    m.fragment_crcs.push_back(v.value());
  }
#undef HYRD_READ
  return m;
}

}  // namespace hyrd::meta
