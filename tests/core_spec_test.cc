#include <gtest/gtest.h>

#include "core/spec.h"

namespace ednsm::core {
namespace {

MeasurementSpec small_spec() {
  MeasurementSpec spec;
  spec.resolvers = {"dns.google", "ordns.he.net"};
  spec.vantage_ids = {"ec2-ohio"};
  spec.rounds = 3;
  spec.seed = 7;
  return spec;
}

TEST(Spec, DefaultsMatchPaper) {
  const MeasurementSpec spec;
  EXPECT_EQ(spec.domains,
            (std::vector<std::string>{"google.com", "amazon.com", "wikipedia.com"}));
  EXPECT_EQ(spec.protocol, client::Protocol::DoH);
  EXPECT_EQ(spec.round_interval, std::chrono::hours(8));  // three times a day
}

TEST(Spec, ValidationCatchesEmptyLists) {
  MeasurementSpec spec = small_spec();
  spec.resolvers.clear();
  EXPECT_FALSE(spec.validate().has_value());

  spec = small_spec();
  spec.domains.clear();
  EXPECT_FALSE(spec.validate().has_value());

  spec = small_spec();
  spec.vantage_ids.clear();
  EXPECT_FALSE(spec.validate().has_value());
}

TEST(Spec, ValidationRejectsUnknownVantage) {
  // Every paper vantage is accepted...
  MeasurementSpec spec = small_spec();
  spec.vantage_ids = {"ec2-ohio",       "ec2-frankfurt",  "ec2-seoul",     "home-chicago-1",
                      "home-chicago-2", "home-chicago-3", "home-chicago-4"};
  EXPECT_TRUE(spec.validate().has_value());

  // ...and one unknown id anywhere in the list rejects the spec, naming it.
  spec.vantage_ids = {"ec2-ohio", "ec2-bogus"};
  const auto v = spec.validate();
  ASSERT_FALSE(v.has_value());
  EXPECT_NE(v.error().find("ec2-bogus"), std::string::npos) << v.error();
}

TEST(Spec, ValidationCatchesBadNumbers) {
  MeasurementSpec spec = small_spec();
  spec.rounds = 0;
  EXPECT_FALSE(spec.validate().has_value());

  spec = small_spec();
  spec.round_interval = netsim::kZeroDuration;
  EXPECT_FALSE(spec.validate().has_value());

  spec = small_spec();
  spec.query_options.timeout = netsim::kZeroDuration;
  EXPECT_FALSE(spec.validate().has_value());

  EXPECT_TRUE(small_spec().validate().has_value());
}

TEST(Spec, JsonRoundTrip) {
  MeasurementSpec spec = small_spec();
  spec.protocol = client::Protocol::DoT;
  spec.query_options.reuse = transport::ReusePolicy::TicketResumption;
  spec.query_options.use_post = true;
  spec.query_options.use_http2 = false;
  spec.query_options.timeout = std::chrono::milliseconds(2500);

  auto round = MeasurementSpec::from_json(spec.to_json());
  ASSERT_TRUE(round.has_value()) << round.error();
  EXPECT_EQ(round.value().resolvers, spec.resolvers);
  EXPECT_EQ(round.value().domains, spec.domains);
  EXPECT_EQ(round.value().vantage_ids, spec.vantage_ids);
  EXPECT_EQ(round.value().protocol, spec.protocol);
  EXPECT_EQ(round.value().rounds, spec.rounds);
  EXPECT_EQ(round.value().round_interval, spec.round_interval);
  EXPECT_EQ(round.value().query_options.reuse, spec.query_options.reuse);
  EXPECT_EQ(round.value().query_options.use_post, spec.query_options.use_post);
  EXPECT_EQ(round.value().query_options.use_http2, spec.query_options.use_http2);
  EXPECT_EQ(round.value().query_options.timeout, spec.query_options.timeout);
  EXPECT_EQ(round.value().seed, spec.seed);
}

TEST(Spec, FromJsonRejectsBadInput) {
  EXPECT_FALSE(MeasurementSpec::from_json(util::Json(nullptr)).has_value());
  util::JsonObject o;
  o["resolvers"] = util::Json("not-an-array");
  EXPECT_FALSE(MeasurementSpec::from_json(util::Json(o)).has_value());

  // Unknown protocol.
  MeasurementSpec spec = small_spec();
  util::Json j = spec.to_json();
  j.as_object()["protocol"] = util::Json("DoX");
  EXPECT_FALSE(MeasurementSpec::from_json(j).has_value());

  // Unknown reuse policy.
  j = spec.to_json();
  j.as_object()["reuse"] = util::Json("sometimes");
  EXPECT_FALSE(MeasurementSpec::from_json(j).has_value());
}

TEST(ResultRecord, JsonRoundTripOk) {
  ResultRecord r;
  r.vantage = "ec2-ohio";
  r.resolver = "dns.google";
  r.domain = "google.com";
  r.protocol = client::Protocol::DoH;
  r.round = 4;
  r.issued_at_ms = 123.5;
  r.ok = true;
  r.response_ms = 31.25;
  r.connect_ms = 20.5;
  r.connection_reused = true;
  r.rcode = "NOERROR";
  r.http_status = 200;
  r.answer_count = 2;

  auto round = ResultRecord::from_json(r.to_json());
  ASSERT_TRUE(round.has_value()) << round.error();
  EXPECT_EQ(round.value().vantage, r.vantage);
  EXPECT_EQ(round.value().resolver, r.resolver);
  EXPECT_EQ(round.value().ok, r.ok);
  EXPECT_DOUBLE_EQ(round.value().response_ms, r.response_ms);
  EXPECT_EQ(round.value().rcode, r.rcode);
  EXPECT_EQ(round.value().http_status, r.http_status);
  EXPECT_EQ(round.value().answer_count, r.answer_count);
  EXPECT_TRUE(round.value().connection_reused);
}

TEST(ResultRecord, JsonRoundTripError) {
  ResultRecord r;
  r.vantage = "home-chicago-1";
  r.resolver = "doh.ffmuc.net";
  r.domain = "amazon.com";
  r.ok = false;
  r.error_class = "connect-timeout";
  r.error_detail = "tcp: connection timed out";

  auto round = ResultRecord::from_json(r.to_json());
  ASSERT_TRUE(round.has_value());
  EXPECT_FALSE(round.value().ok);
  EXPECT_EQ(round.value().error_class, "connect-timeout");
  EXPECT_EQ(round.value().error_detail, "tcp: connection timed out");
  EXPECT_TRUE(round.value().rcode.empty());
}

TEST(ResultRecord, FromJsonRejectsMissingFields) {
  util::JsonObject o;
  o["vantage"] = util::Json("x");
  EXPECT_FALSE(ResultRecord::from_json(util::Json(o)).has_value());
  EXPECT_FALSE(ResultRecord::from_json(util::Json(3)).has_value());
}

TEST(PingRecord, JsonRoundTrip) {
  PingRecord p;
  p.vantage = "ec2-seoul";
  p.resolver = "dns.alidns.com";
  p.round = 2;
  p.ok = true;
  p.rtt_ms = 8.5;
  auto round = PingRecord::from_json(p.to_json());
  ASSERT_TRUE(round.has_value());
  EXPECT_EQ(round.value().vantage, p.vantage);
  EXPECT_DOUBLE_EQ(round.value().rtt_ms, p.rtt_ms);

  PingRecord fail;
  fail.vantage = "v";
  fail.resolver = "r";
  fail.ok = false;
  auto round2 = PingRecord::from_json(fail.to_json());
  ASSERT_TRUE(round2.has_value());
  EXPECT_FALSE(round2.value().ok);
}

}  // namespace
}  // namespace ednsm::core
