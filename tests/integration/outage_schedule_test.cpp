// Small-scope enumeration of outage schedules for the restore replay
// (StorageClient::on_provider_restored). Most replay bugs need only a few
// ops and one outage to show up, so every scheme runs *every* schedule of
//
//   * at most 3 client ops: put, overwrite or remove on at most 2 paths,
//     with two payloads (one replicated-small, one erasure-large for HyRD)
//     that may repeat, so dedup aliases and class changes occur; and
//   * at most 2 provider transitions among the four providers: offline,
//     online plus restore, or fail_permanently,
//
// in every interleaving. Transitions keep at most one provider down at a
// time: with two down, an unacked overwrite can tear the old version of a
// stripe in place, which is the overwrite protocol's defect, not the
// replay's. At the end every provider still offline comes back and is
// restored. Each schedule then runs again once per replay op i, failing
// op i: the op hook of the op before takes op i's provider offline, and
// the next op that reaches any provider brings it back. The failed restore
// is retried at once.
//
// The oracle, while the scheme's tolerance holds:
//   * every acked write reads back after each transition and at the end,
//     and a removed path stays gone;
//   * after the last restore no record is pending for an online provider;
//   * every copy on a live provider matches the CRC in its metadata, and
//     a directory block held outside the store matches its serialization;
//   * every object a live provider holds is one the metadata references.
#include <gtest/gtest.h>

#include <array>
#include <initializer_list>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "cloud/profiles.h"
#include "common/checksum.h"
#include "support/schemes.h"

namespace hyrd {
namespace {

using test::SchemeParam;

constexpr std::size_t kMaxOps = 3;
constexpr std::size_t kMaxTransitions = 2;
constexpr std::uint64_t kFleetSeed = 41;
constexpr std::size_t kNoFailure = static_cast<std::size_t>(-1);
constexpr const char* kPaths[] = {"/d/a", "/d/b"};
constexpr const char* kDir = "/d";

enum class Kind : std::uint8_t { kPut, kRemove, kOffline, kRestore, kFail };

struct Event {
  Kind kind;
  std::uint8_t target;       // path index for ops, provider index otherwise
  std::uint8_t payload = 0;  // puts only
};
using Schedule = std::vector<Event>;

/// Joins message parts; a `+` chain of temporary strings trips GCC 12's
/// -Wrestrict false positive inside libstdc++ at -O3.
std::string cat(std::initializer_list<std::string_view> parts) {
  std::string out;
  for (const auto part : parts) out += part;
  return out;
}

bool is_op(const Event& e) {
  return e.kind == Kind::kPut || e.kind == Kind::kRemove;
}

/// Payload 0 is small. Payload 1 sits at HyRD's large-file threshold, so
/// HyRD stripes it. The other schemes store every size alike, and HyRD
/// with dedup hashes every put (SHA-256 of a megabyte costs more than the
/// rest of a run), so theirs stays small and their runs cheap. Owning
/// buffers: every run's stores share them instead of copying.
const common::Buffer& payload(std::uint8_t i, bool striped) {
  static const common::Buffer kA =
      common::Buffer::from(common::patterned(4096, 7));
  static const common::Buffer kB =
      common::Buffer::from(common::patterned(8192, 8));
  static const common::Buffer kStripedB = common::Buffer::from(
      common::patterned(core::HyRDConfig{}.large_file_threshold, 8));
  return i == 0 ? kA : striped ? kStripedB : kB;
}

std::string describe(const Schedule& schedule,
                     const cloud::CloudRegistry& registry) {
  static constexpr const char* kNames[] = {"put", "remove", "offline",
                                           "restore", "fail"};
  std::ostringstream os;
  for (const auto& e : schedule) {
    os << kNames[static_cast<int>(e.kind)] << "("
       << (is_op(e) ? kPaths[e.target]
                    : registry.all()[e.target]->name().c_str());
    if (e.kind == Kind::kPut) os << "=" << (e.payload == 0 ? "A" : "B");
    os << ") ";
  }
  return os.str();
}

/// One provider op of a restore replay, as a clean run saw it.
struct ReplayOp {
  std::size_t provider;  // registry index
  bool opens_attempt;    // first op of an on_provider_restored call
  bool on_restored;      // addressed to the provider being restored
};

/// One run of one schedule on a fresh fleet. A run given `plan` (the
/// replay ops of the clean run) fails replay op `fail_at`, counted over
/// every restore of the run.
class ScheduleRun {
 public:
  ScheduleRun(const SchemeParam& scheme, std::size_t fail_at = kNoFailure,
              std::vector<ReplayOp> plan = {})
      : fail_at_(fail_at),
        plan_(std::move(plan)),
        tolerance_(scheme.survives_single_outage ? 1 : 0) {
    cloud::install_standard_four(registry_, kFleetSeed);
    // One pool thread: a run is a few ops, and thousands of runs would
    // otherwise spend their time starting and joining workers.
    session_ = std::make_unique<gcs::MultiCloudSession>(
        registry_, gcs::RetryPolicy{}, 1);
    client_ = scheme.factory(*session_);
    const auto* hyrd = dynamic_cast<core::HyRDClient*>(client_.get());
    striped_ = hyrd != nullptr && !hyrd->config().dedup_enabled;
    // NCCloud's repair changes fragment CRCs without rewriting the
    // directory blocks on the other clouds. NCCloud never reads its blocks
    // back (its coefficients live only in the client), so only the blocks
    // of the other schemes are checked.
    check_blocks_ =
        dynamic_cast<core::NCCloudClient*>(client_.get()) == nullptr;
    for (std::size_t i = 0; i < registry_.all().size(); ++i) {
      registry_.all()[i]->set_op_hook(
          [this, i](cloud::OpKind, const cloud::ObjectKey&) { on_op(i); });
    }
  }

  /// Runs `schedule`, then restores what is still offline. Returns the
  /// first oracle violation, or "" if none.
  std::string run(const Schedule& schedule) {
    for (const auto& e : schedule) {
      apply(e);
      // Reads run after each transition and at the end, the points where
      // an outage or a replay has changed what the fleet holds.
      if (is_op(e)) continue;
      if (auto v = check_reads(); !v.empty()) return v;
    }
    if (auto v = check_reads(); !v.empty()) return v;
    for (std::size_t i = 0; i < registry_.all().size(); ++i) {
      const auto& p = registry_.all()[i];
      if (!p->online() && !p->permanently_failed()) {
        apply({Kind::kRestore, static_cast<std::uint8_t>(i)});
      }
    }
    if (!violation_.empty()) return violation_;
    if (auto v = check_reads(); !v.empty()) return v;
    return check_fleet();
  }

  [[nodiscard]] const std::vector<ReplayOp>& replay_ops() const {
    return seen_;
  }
  [[nodiscard]] const cloud::CloudRegistry& registry() const {
    return registry_;
  }

 private:
  [[nodiscard]] bool within_tolerance() const { return !exceeded_; }

  void apply(const Event& e) {
    auto* provider = is_op(e) ? nullptr : registry_.all()[e.target].get();
    switch (e.kind) {
      case Kind::kPut: {
        const auto r =
            client_->put(kPaths[e.target], payload(e.payload, striped_));
        if (r.status.is_ok()) {
          expected_[e.target] = e.payload;
        } else {
          known_[e.target] = false;
        }
        break;
      }
      case Kind::kRemove: {
        const auto r = client_->remove(kPaths[e.target]);
        if (r.status.is_ok()) {
          expected_[e.target].reset();
        } else {
          known_[e.target] = false;
        }
        break;
      }
      case Kind::kOffline:
        provider->set_online(false);
        break;
      case Kind::kFail:
        provider->fail_permanently();
        break;
      case Kind::kRestore: {
        provider->set_online(true);
        auto r = replay(e.target);
        if (!r.status.is_ok()) r = replay(e.target);
        if (!r.status.is_ok() && within_tolerance() && violation_.empty()) {
          violation_ = cat({"retried restore of ", provider->name(),
                            " failed: ", r.status.to_string()});
        }
        break;
      }
    }
    std::size_t down = 0;
    for (const auto& p : registry_.all()) down += p->online() ? 0 : 1;
    if (down > tolerance_) exceeded_ = true;
  }

  /// One on_provider_restored call, recording (clean run) or failing
  /// (fault run) its provider ops.
  core::RestoreResult replay(std::size_t provider) {
    restoring_ = provider;
    opening_ = true;
    if (seen_.size() == fail_at_ && plan_[fail_at_].opens_attempt) {
      take_down(plan_[fail_at_].provider);
    }
    const auto r =
        client_->on_provider_restored(registry_.all()[provider]->name());
    restoring_ = kNoFailure;
    take_down(kNoFailure);
    return r;
  }

  void on_op(std::size_t provider) {
    take_down(kNoFailure);  // a fault lasts one op
    if (restoring_ == kNoFailure) return;
    seen_.push_back({provider, opening_, provider == restoring_});
    opening_ = false;
    if (seen_.size() == fail_at_ && !plan_[fail_at_].opens_attempt) {
      take_down(plan_[fail_at_].provider);
    }
  }

  /// Takes `provider` offline until the next op (kNoFailure: none).
  void take_down(std::size_t provider) {
    if (down_ != kNoFailure) registry_.all()[down_]->set_online(true);
    down_ = provider;
    if (down_ != kNoFailure) registry_.all()[down_]->set_online(false);
  }

  /// Acked writes read back; removed paths stay gone.
  std::string check_reads() {
    if (!violation_.empty()) return violation_;
    if (!within_tolerance()) return "";
    for (std::size_t i = 0; i < std::size(kPaths); ++i) {
      if (!known_[i]) continue;
      if (!expected_[i].has_value()) {
        if (client_->stat(kPaths[i]).has_value()) {
          return cat({"removed path reappeared: ", kPaths[i]});
        }
        continue;
      }
      const auto r = client_->get(kPaths[i]);
      if (!r.status.is_ok()) {
        return cat({"acked write unreadable: ", kPaths[i], ": ",
                    r.status.to_string()});
      }
      if (r.data != payload(*expected_[i], striped_)) {
        return cat({"acked write reads wrong bytes: ", kPaths[i]});
      }
    }
    return "";
  }

  /// The fleet after the last restore: nothing pending for a live
  /// provider, every copy it holds matches its metadata, no orphans.
  std::string check_fleet() {
    if (!within_tolerance()) return "";
    const auto& store = client_->metadata();
    const std::string block_name =
        core::StorageClient::meta_block_object_name(kDir);
    const common::Bytes block = store.serialize_directory(kDir);
    std::set<std::pair<std::string, std::string>> referenced;
    for (const auto& path : store.all_paths()) {
      const auto m = store.lookup(path);
      for (std::size_t i = 0; i < m->locations.size(); ++i) {
        const auto& loc = m->locations[i];
        referenced.insert({loc.provider, loc.object_name});
        auto* p = registry_.find(loc.provider);
        if (!p->online()) continue;
        const auto stored = find_object(*p, loc.object_name);
        if (!stored.has_value()) {
          return cat({"copy missing: ", path, " ", loc.object_name, " on ",
                      loc.provider});
        }
        const std::uint32_t want =
            m->redundancy == meta::RedundancyKind::kErasure &&
                    !m->fragment_crcs.empty()
                ? m->fragment_crcs[i]
                : m->crc;
        if (want != 0 && common::crc32c(*stored) != want) {
          return cat({"copy disagrees with its CRC: ", path, " ",
                      loc.object_name, " on ", loc.provider});
        }
      }
    }
    for (const auto& p : registry_.all()) {
      if (!p->online()) continue;
      if (const auto pending = client_->update_log().pending_for(p->name());
          !pending.empty()) {
        return cat({"record for ", pending.front().path, " (",
                    pending.front().object_name,
                    ") still pending for online ", p->name()});
      }
      for (const char* container : test::kSchemeContainers) {
        auto listed = p->raw_store().list(container);
        if (!listed.is_ok()) continue;
        for (const auto& name : listed.value()) {
          if (name == block_name) {
            if (check_blocks_ &&
                p->raw_store().get(container, name).value() != block) {
              return cat({"stale directory block on ", p->name()});
            }
          } else if (!referenced.contains({p->name(), name})) {
            return cat({"orphaned object ", name, " on ", p->name()});
          }
        }
      }
    }
    return "";
  }

  static std::optional<common::Buffer> find_object(cloud::SimProvider& p,
                                                   const std::string& name) {
    for (const char* container : test::kSchemeContainers) {
      auto got = p.raw_store().get(container, name);
      if (got.is_ok()) return std::move(got).value();
    }
    return std::nullopt;
  }

  cloud::CloudRegistry registry_;
  std::unique_ptr<gcs::MultiCloudSession> session_;
  std::unique_ptr<core::StorageClient> client_;
  const std::size_t fail_at_;
  const std::vector<ReplayOp> plan_;
  const std::size_t tolerance_;
  bool striped_ = false;
  bool check_blocks_ = true;
  std::size_t restoring_ = kNoFailure;  // provider being replayed
  bool opening_ = false;                // the next op opens the attempt
  std::size_t down_ = kNoFailure;       // provider the fault took down
  std::vector<ReplayOp> seen_;
  bool exceeded_ = false;
  std::array<std::optional<std::uint8_t>, std::size(kPaths)> expected_;
  std::array<bool, std::size(kPaths)> known_{true, true};
  std::string violation_;
};

/// Every schedule the header describes, in DFS order. Path symmetry is
/// factored out: /d/b is touched only after /d/a.
class Enumerator {
 public:
  std::vector<Schedule> all() {
    grow();
    return std::move(out_);
  }

 private:
  enum class State : std::uint8_t { kOnline, kOffline, kFailed };

  void grow() {
    // Ending offline is the same as ending with that provider's restore,
    // which the final step performs anyway.
    if (current_.empty() || current_.back().kind != Kind::kOffline) {
      out_.push_back(current_);
    }
    if (ops_ < kMaxOps) {
      for (std::uint8_t path = 0; path < std::size(kPaths); ++path) {
        if (path > 0 && !any_op_yet()) break;
        for (std::uint8_t pl = 0; pl < 2; ++pl) {
          push({Kind::kPut, path, pl}, [&] { exists_[path] = true; },
               [&, was = exists_[path]] { exists_[path] = was; });
        }
        if (exists_[path]) {
          push({Kind::kRemove, path}, [&] { exists_[path] = false; },
               [&] { exists_[path] = true; });
        }
      }
    }
    if (transitions_ < kMaxTransitions) {
      for (std::uint8_t p = 0; p < providers_.size(); ++p) {
        const State s = providers_[p];
        const std::size_t others_down = down() - (s == State::kOnline ? 0 : 1);
        if (others_down > 0) continue;  // at most one provider down
        const auto to = [&](State next) {
          return [&, p, next] { providers_[p] = next; };
        };
        const auto back = [&, p, s] { providers_[p] = s; };
        if (s == State::kOnline) {
          push({Kind::kOffline, p}, to(State::kOffline), back);
        }
        // Restoring or failing a provider right after it went offline
        // equals dropping the pair or failing it outright.
        const bool just_offline = !current_.empty() &&
                                  current_.back().kind == Kind::kOffline &&
                                  current_.back().target == p;
        if (s == State::kOffline && !just_offline) {
          push({Kind::kRestore, p}, to(State::kOnline), back);
        }
        if (s != State::kFailed && !just_offline) {
          push({Kind::kFail, p}, to(State::kFailed), back);
        }
      }
    }
  }

  template <typename Do, typename Undo>
  void push(Event e, Do apply, Undo undo) {
    const bool op = is_op(e);
    (op ? ops_ : transitions_)++;
    current_.push_back(e);
    apply();
    grow();
    undo();
    current_.pop_back();
    (op ? ops_ : transitions_)--;
  }

  [[nodiscard]] bool any_op_yet() const {
    for (const auto& e : current_) {
      if (is_op(e)) return true;
    }
    return false;
  }

  [[nodiscard]] std::size_t down() const {
    std::size_t n = 0;
    for (State s : providers_) n += s == State::kOnline ? 0 : 1;
    return n;
  }

  std::vector<Schedule> out_;
  Schedule current_;
  std::size_t ops_ = 0;
  std::size_t transitions_ = 0;
  std::array<bool, std::size(kPaths)> exists_{};
  std::array<State, 4> providers_{};
};

/// Runs `schedule` clean, which records its replay ops, then once per
/// replay op with that op failed. Failing the first op of a replay on the
/// provider being restored equals that provider still being offline,
/// which on_provider_restored refuses before any op, so those are
/// skipped. Returns the first violation, or "".
std::string check_schedule(const SchemeParam& scheme, const Schedule& schedule,
                           std::size_t& runs) {
  std::vector<ReplayOp> plan;
  std::vector<std::size_t> faults = {kNoFailure};  // the clean run first
  for (std::size_t k = 0; k < faults.size(); ++k) {
    const std::size_t fail_at = faults[k];
    ScheduleRun run(scheme, fail_at, plan);
    const std::string violation = run.run(schedule);
    ++runs;
    if (!violation.empty()) {
      return cat({violation, "\n  schedule: ",
                  describe(schedule, run.registry()), "\n  failed replay op: ",
                  fail_at == kNoFailure ? std::string("none")
                                        : std::to_string(fail_at)});
    }
    if (fail_at != kNoFailure) continue;
    plan = run.replay_ops();
    for (std::size_t i = 0; i < plan.size(); ++i) {
      if (!plan[i].opens_attempt || !plan[i].on_restored) faults.push_back(i);
    }
  }
  return "";
}

/// Each scheme's schedules are split over kShards tests, so ctest runs
/// them in parallel and no one test nears its timeout under sanitizers.
constexpr std::size_t kShards = 3;

class OutageScheduleTest
    : public ::testing::TestWithParam<std::tuple<SchemeParam, std::size_t>> {};

TEST_P(OutageScheduleTest, EverySmallScheduleKeepsTheOracle) {
  const auto& [scheme, shard] = GetParam();
  const auto schedules = Enumerator().all();
  std::size_t runs = 0;
  std::size_t violations = 0;
  for (std::size_t i = shard; i < schedules.size(); i += kShards) {
    const std::string violation = check_schedule(scheme, schedules[i], runs);
    if (!violation.empty() && ++violations <= 5) ADD_FAILURE() << violation;
  }
  EXPECT_EQ(violations, 0u);
  RecordProperty("schedules", static_cast<int>(schedules.size()));
  RecordProperty("runs", static_cast<int>(runs));
}

std::string shard_name(const ::testing::TestParamInfo<
                       std::tuple<SchemeParam, std::size_t>>& info) {
  const auto& [scheme, shard] = info.param;
  return cat({scheme.name, "_shard", std::to_string(shard)});
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, OutageScheduleTest,
    ::testing::Combine(::testing::ValuesIn(test::kSchemes),
                       ::testing::Range<std::size_t>(0, kShards)),
    shard_name);

}  // namespace
}  // namespace hyrd
