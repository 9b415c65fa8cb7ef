// Test helper: captures the `cloud` trace spans CloudClient::run emits, one
// per middleware op — name = op kind, detail = provider, dur = the op's
// total virtual latency, args = attempts / status / bytes / backoff_ns.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "obs/trace.h"

namespace hyrd::test {

/// Installs a TraceRecorder for its lifetime (nestable, like TraceScope).
class CloudSpanCapture {
 public:
  CloudSpanCapture() : scope_(&recorder_) {}

  /// The CloudClient spans recorded so far, in emission order. The fair
  /// queue's throttle span shares the `cloud` category but names no
  /// provider.
  [[nodiscard]] std::vector<obs::TraceSpan> spans() const {
    std::vector<obs::TraceSpan> out;
    for (auto& s : recorder_.spans()) {
      if (std::string_view(s.cat) == "cloud" && !s.detail.empty()) {
        out.push_back(std::move(s));
      }
    }
    return out;
  }
  void clear() { recorder_.clear(); }

 private:
  obs::TraceRecorder recorder_;
  obs::TraceScope scope_;
};

/// Value of `span`'s arg `key`; -1 when the span has no such arg.
inline long long span_arg(const obs::TraceSpan& span, std::string_view key) {
  for (std::uint32_t i = 0; i < span.arg_count; ++i) {
    if (key == span.args[i].key) return span.args[i].value;
  }
  return -1;
}

}  // namespace hyrd::test
