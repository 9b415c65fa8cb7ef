#include "gcsapi/rest_codec.h"

#include <gtest/gtest.h>

namespace hyrd::cloud {

// Print parameters by value: gtest's fallback dumps raw bytes, which embed
// heap addresses and so change the parameterized test names on every run.
void PrintTo(OpKind op, std::ostream* os) { *os << op_kind_name(op); }
void PrintTo(const ObjectKey& key, std::ostream* os) { *os << key.str(); }

}  // namespace hyrd::cloud

namespace hyrd::gcs {
namespace {

using cloud::ObjectKey;
using cloud::OpKind;

TEST(RestCodec, EncodePutCarriesBody) {
  const auto req = encode_op(OpKind::kPut, {"c", "obj"},
                             common::bytes_of("payload"));
  EXPECT_EQ(req.method, "PUT");
  EXPECT_EQ(req.path, "/c/obj");
  EXPECT_EQ(common::to_string(req.body), "payload");
  EXPECT_EQ(req.headers.at("Content-Length"), "7");
}

TEST(RestCodec, EncodeMappings) {
  EXPECT_EQ(encode_op(OpKind::kCreate, {"c", ""}, {}).method, "PUT");
  EXPECT_EQ(encode_op(OpKind::kCreate, {"c", ""}, {}).path, "/c");
  EXPECT_EQ(encode_op(OpKind::kGet, {"c", "o"}, {}).method, "GET");
  EXPECT_EQ(encode_op(OpKind::kRemove, {"c", "o"}, {}).method, "DELETE");
  EXPECT_EQ(encode_op(OpKind::kList, {"c", ""}, {}).path, "/c?list");
}

class CodecRoundTripTest
    : public ::testing::TestWithParam<std::tuple<OpKind, ObjectKey>> {};

TEST_P(CodecRoundTripTest, EncodeSerializeParseDecode) {
  const auto [op, key] = GetParam();
  const common::Bytes body =
      op == OpKind::kPut ? common::patterned(100, 5) : common::Bytes{};
  const RestRequest encoded = encode_op(op, key, body);
  const common::Bytes wire = serialize(encoded);
  auto parsed = parse_request(wire);
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
  EXPECT_EQ(parsed.value(), encoded);
  auto decoded = decode_op(parsed.value());
  ASSERT_TRUE(decoded.is_ok()) << decoded.status().to_string();
  EXPECT_EQ(decoded.value().op, op);
  EXPECT_EQ(decoded.value().key, key);
}

INSTANTIATE_TEST_SUITE_P(
    Ops, CodecRoundTripTest,
    ::testing::Values(
        std::make_tuple(OpKind::kCreate, ObjectKey{"bucket", ""}),
        std::make_tuple(OpKind::kPut, ObjectKey{"bucket", "file.txt"}),
        std::make_tuple(OpKind::kGet, ObjectKey{"bucket", "file.txt"}),
        std::make_tuple(OpKind::kRemove, ObjectKey{"bucket", "file.txt"}),
        std::make_tuple(OpKind::kList, ObjectKey{"bucket", ""}),
        // Names needing percent-escaping.
        std::make_tuple(OpKind::kPut, ObjectKey{"my container", "a/b c?d"}),
        std::make_tuple(OpKind::kGet, ObjectKey{"c", "100% legit"})));

TEST(RestCodec, ParseRejectsMissingTerminator) {
  const auto wire = common::bytes_of("GET /c/x HTTP/1.1\r\n");
  EXPECT_FALSE(parse_request(wire).is_ok());
}

TEST(RestCodec, ParseRejectsBadVersion) {
  const auto wire = common::bytes_of("GET /c/x HTTP/0.9\r\n\r\n");
  EXPECT_FALSE(parse_request(wire).is_ok());
}

TEST(RestCodec, ParseRejectsContentLengthMismatch) {
  const auto wire =
      common::bytes_of("PUT /c/x HTTP/1.1\r\nContent-Length: 5\r\n\r\nab");
  EXPECT_FALSE(parse_request(wire).is_ok());
}

TEST(RestCodec, ParseAcceptsBodyWithoutContentLength) {
  const auto wire = common::bytes_of("PUT /c/x HTTP/1.1\r\n\r\nabc");
  auto parsed = parse_request(wire);
  ASSERT_TRUE(parsed.is_ok());
  EXPECT_EQ(common::to_string(parsed.value().body), "abc");
}

TEST(RestCodec, DecodeRejectsUnknownMethod) {
  RestRequest req{.method = "PATCH", .path = "/c/x"};
  EXPECT_FALSE(decode_op(req).is_ok());
}

TEST(RestCodec, DecodeRejectsGetContainerWithoutList) {
  RestRequest req{.method = "GET", .path = "/c"};
  EXPECT_FALSE(decode_op(req).is_ok());
}

TEST(RestCodec, DecodeRejectsDeleteContainer) {
  RestRequest req{.method = "DELETE", .path = "/c"};
  EXPECT_FALSE(decode_op(req).is_ok());
}

TEST(RestCodec, DecodeRejectsEmptyOrUnrootedPath) {
  EXPECT_FALSE(decode_op({.method = "GET", .path = ""}).is_ok());
  EXPECT_FALSE(decode_op({.method = "GET", .path = "c/x"}).is_ok());
  EXPECT_FALSE(decode_op({.method = "PUT", .path = "/"}).is_ok());
}

TEST(RestCodec, DecodeRejectsUnknownQuery) {
  RestRequest req{.method = "GET", .path = "/c?weird"};
  EXPECT_FALSE(decode_op(req).is_ok());
}

TEST(RestCodec, HttpStatusMappingRoundTrips) {
  for (auto code :
       {common::StatusCode::kOk, common::StatusCode::kNotFound,
        common::StatusCode::kUnavailable, common::StatusCode::kInvalidArgument,
        common::StatusCode::kAlreadyExists,
        common::StatusCode::kResourceExhausted}) {
    const common::Status st(code, "m");
    EXPECT_EQ(http_to_status(status_to_http(st), "m").code(), code);
  }
}

TEST(RestCodec, ThrottleMapsTo429BothWays) {
  // The throttle boundary: a fair-queue rejection must travel as HTTP 429
  // and come back as kResourceExhausted, never as a generic 5xx — the
  // retry policy's 429-vs-outage distinction depends on it.
  EXPECT_EQ(status_to_http(common::resource_exhausted("throttled")), 429);
  const common::Status back = http_to_status(429, "throttled");
  EXPECT_EQ(back.code(), common::StatusCode::kResourceExhausted);
  EXPECT_EQ(back.message(), "throttled");
  EXPECT_NE(status_to_http(common::unavailable("down")), 429);
}

TEST(RestCodec, DataLossMapsTo500) {
  EXPECT_EQ(status_to_http(common::data_loss("x")), 500);
  EXPECT_EQ(http_to_status(500, "x").code(), common::StatusCode::kInternal);
}

}  // namespace
}  // namespace hyrd::gcs
