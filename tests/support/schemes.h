// Test helper: every scheme client the repo implements, as gtest
// parameters. The differential oracle and the outage-schedule enumerator
// run over this one list.
#pragma once

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <ostream>
#include <string>

#include "core/depsky_client.h"
#include "core/duracloud_client.h"
#include "core/hyrd_client.h"
#include "core/nccloud_client.h"
#include "core/racs_client.h"
#include "core/single_client.h"

namespace hyrd::test {

using ClientFactory = std::function<std::unique_ptr<core::StorageClient>(
    gcs::MultiCloudSession&)>;

struct SchemeParam {
  const char* name;
  ClientFactory factory;
  bool survives_single_outage;
};

// Keeps the printed parameter (and so the test name) free of the raw-byte
// dump gtest falls back to, which embeds addresses that change per run.
inline void PrintTo(const SchemeParam& param, std::ostream* os) {
  *os << param.name;
}

inline const SchemeParam kSchemes[] = {
    {"HyRD",
     [](gcs::MultiCloudSession& s) {
       return std::make_unique<core::HyRDClient>(s);
     },
     true},
    {"HyRDDedup",
     [](gcs::MultiCloudSession& s) {
       core::HyRDConfig config;
       config.dedup_enabled = true;
       return std::make_unique<core::HyRDClient>(s, config);
     },
     true},
    {"RACS",
     [](gcs::MultiCloudSession& s) {
       return std::make_unique<core::RACSClient>(s);
     },
     true},
    {"DuraCloud",
     [](gcs::MultiCloudSession& s) {
       return std::make_unique<core::DuraCloudClient>(s);
     },
     true},
    {"DepSky",
     [](gcs::MultiCloudSession& s) {
       return std::make_unique<core::DepSkyClient>(s);
     },
     true},
    {"NCCloud",
     [](gcs::MultiCloudSession& s) {
       return std::make_unique<core::NCCloudClient>(s);
     },
     true},
    {"Single",
     [](gcs::MultiCloudSession& s) {
       return std::make_unique<core::SingleCloudClient>(s, "Aliyun");
     },
     false},
};

/// The containers the schemes above keep their objects in.
inline constexpr const char* kSchemeContainers[] = {
    "hyrd-data",   "hyrd-meta",    "racs-data",  "duracloud-data",
    "depsky-data", "nccloud-data", "single-data"};

/// gtest's name generator for the list above.
inline std::string scheme_name(
    const ::testing::TestParamInfo<SchemeParam>& info) {
  return info.param.name;
}

}  // namespace hyrd::test
