// MultiCloudSession: the fan-out half of the GCS-API middleware.
//
// Owns one CloudClient per provider (fan-outs in gcsapi/async_batch.h
// address them by index) and a thread pool for the client-side compute of
// large stripe writes.
#pragma once

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "cloud/registry.h"
#include "common/thread_pool.h"
#include "gcsapi/client.h"

namespace hyrd::gcs {

class MultiCloudSession {
 public:
  MultiCloudSession(cloud::CloudRegistry& registry, RetryPolicy policy = {},
                    std::size_t threads = 8);

  [[nodiscard]] std::size_t client_count() const { return clients_.size(); }
  [[nodiscard]] CloudClient& client(std::size_t i) { return *clients_[i]; }
  [[nodiscard]] const CloudClient& client(std::size_t i) const {
    return *clients_[i];
  }

  /// Index of the client for a named provider; npos when missing.
  /// O(1): the name → index map is built at construction (the fleet is
  /// immutable afterwards) — erasure reads resolve every fragment slot
  /// through this.
  [[nodiscard]] std::size_t index_of(const std::string& provider_name) const;

  /// The session's worker pool. ErasureScheme::write runs stripe encode
  /// and fragment CRCs on it while the caller uploads data fragments.
  [[nodiscard]] common::ThreadPool& pool() { return pool_; }

  /// Creates `container` on every provider (idempotent).
  common::Status ensure_container_everywhere(const std::string& container);

 private:
  std::vector<std::unique_ptr<CloudClient>> clients_;
  std::unordered_map<std::string, std::size_t> index_by_name_;
  common::ThreadPool pool_;
};

}  // namespace hyrd::gcs
