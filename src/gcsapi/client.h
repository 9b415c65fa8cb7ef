// CloudClient: the per-provider half of the GCS-API middleware.
//
// Every call is executed against the provider and retried under a
// RetryPolicy. Latencies of all attempts — including backoff — accumulate
// into the reported latency, in virtual time. That the RESTful wire format
// carries each (op, key) losslessly is pinned by rest_codec_test and, for
// every op the six scheme clients issue, by rest_boundary_test, instead of
// being re-checked on every call.
#pragma once

#include <cstdint>
#include <string>

#include "cloud/provider.h"
#include "gcsapi/retry.h"

namespace hyrd::gcs {

class CloudClient {
 public:
  CloudClient(cloud::SimProvider* provider, RetryPolicy policy = {});

  [[nodiscard]] const std::string& provider_name() const {
    return provider_->name();
  }
  [[nodiscard]] cloud::SimProvider* provider() const { return provider_; }

  cloud::OpResult create(const std::string& container);
  cloud::OpResult put(const cloud::ObjectKey& key, common::Buffer data);
  cloud::OpResult put(const cloud::ObjectKey& key, common::ByteSpan data) {
    return put(key, common::Buffer::borrow(data));
  }
  cloud::GetResult get(const cloud::ObjectKey& key);
  cloud::OpResult remove(const cloud::ObjectKey& key);
  cloud::ListResult list(const std::string& container);

  /// Range GET (RFC 7233 Range header) / block-overwrite PUT.
  cloud::GetResult get_range(const cloud::ObjectKey& key, std::uint64_t offset,
                             std::uint64_t length);
  cloud::OpResult put_range(const cloud::ObjectKey& key, std::uint64_t offset,
                            common::Buffer data);
  cloud::OpResult put_range(const cloud::ObjectKey& key, std::uint64_t offset,
                            common::ByteSpan data) {
    return put_range(key, offset, common::Buffer::borrow(data));
  }

  /// Creates the container if it does not exist yet (idempotent setup).
  cloud::OpResult ensure_container(const std::string& container);

 private:
  /// Executes `exec` with retries. The payload travels by reference, so
  /// this middleware hop copies zero payload bytes. The returned result
  /// carries total latency; a `cloud` trace span records the op kind,
  /// provider, attempts, status and bytes when tracing is active.
  template <typename ResultT, typename ExecFn>
  ResultT run(cloud::OpKind op, const cloud::ObjectKey& key, ExecFn&& exec);

  cloud::SimProvider* provider_;
  RetryPolicy policy_;
};

}  // namespace hyrd::gcs
