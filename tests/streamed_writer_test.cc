// The streamed writers (CampaignResult::write_json, ShardFile::write,
// MonitorResult::write_json) against their DOM reference: each must emit
// to_json().dump(indent) + "\n" byte for byte, including the optional
// failure fields and strings that need escaping.
#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>

#include "core/parallel_campaign.h"
#include "core/shard_io.h"
#include "monitor/monitor.h"
#include "util/fs.h"

namespace ednsm {
namespace {

core::MeasurementSpec campaign_spec() {
  core::MeasurementSpec spec;
  spec.resolvers = {"dns.google", "ordns.he.net", "doh.ffmuc.net", "dns.quad9.net",
                    "security.cloudflare-dns.com"};
  spec.vantage_ids = {"ec2-ohio", "ec2-seoul"};
  spec.rounds = 10;
  spec.seed = 20260808;
  // An outage window yields real connect failures.
  spec.fault_windows.push_back(core::FaultWindow{"ordns.he.net", 3, 6});
  return spec;
}

// A real campaign plus one failed record and one ping whose strings need
// every kind of escaping: quote, backslash, a control byte, non-ASCII UTF-8.
core::CampaignResult campaign_with_failures() {
  core::CampaignResult result = core::run_parallel_campaign(campaign_spec(), 2);
  core::ResultRecord r;
  r.vantage = "ec2-\"ohio\"";
  r.resolver = "back\\slash.example";
  r.domain = "ctl\x01.caf\xc3\xa9.example";
  r.round = 7;
  r.issued_at_ms = 1234.5;
  r.ok = false;
  r.response_ms = 5000;
  r.connect_ms = 12.25;
  r.tcp_handshake_ms = 12.25;
  r.error_class = "http-error";
  r.error_detail = "HTTP 503 \"unavailable\"\tretry\n\xe2\x82\xac";
  r.failure_stage = "query";
  r.http_status = 503;
  result.records.push_back(r);
  core::PingRecord p;
  p.vantage = r.vantage;
  p.resolver = r.resolver;
  p.round = 7;
  result.pings.push_back(p);
  return result;
}

std::string streamed(const core::CampaignResult& r, int indent) {
  std::ostringstream os;
  r.write_json(os, indent);
  return std::move(os).str();
}

TEST(StreamedWriter, CampaignResultMatchesDomReference) {
  const core::CampaignResult result = campaign_with_failures();
  for (const int indent : {0, 2}) {
    const std::string reference = result.to_json().dump(indent) + "\n";
    EXPECT_EQ(streamed(result, indent), reference) << "indent " << indent;
    for (const char* field : {"\"error_class\"", "\"error_detail\"", "\"failure_stage\"",
                              "\"http_status\"", "\\u0001", "\\\"unavailable\\\""}) {
      EXPECT_NE(reference.find(field), std::string::npos) << field;
    }
  }
  // Large enough that the writer hands the stream several chunks.
  EXPECT_GT(streamed(result, 2).size(), 2 * util::JsonWriter::kChunkBytes);
  // The sink form (what ednsm_measure streams into its atomic writer) hands
  // over the same bytes.
  std::string sunk;
  result.write_json([&sunk](std::string_view bytes) { sunk.append(bytes); }, 2);
  EXPECT_EQ(sunk, streamed(result, 2));

  core::CampaignResult empty;
  empty.spec = campaign_spec();
  for (const int indent : {0, 2}) {
    EXPECT_EQ(streamed(empty, indent), empty.to_json().dump(indent) + "\n");
  }
}

core::ShardFile shard_file(const core::ShardSlice& slice, const core::CampaignObsOptions& obs) {
  const core::MeasurementSpec spec = campaign_spec();
  const auto plans = core::expand_spec(spec);
  core::ShardFile file;
  file.spec = spec;
  file.slice = slice;
  file.total_shards = plans.size();
  file.has_trace = obs.trace;
  file.has_metrics = obs.metrics;
  for (const core::ShardPlan& plan : core::slice_plans(plans, slice)) {
    file.outcomes.push_back(core::run_shard(spec, plan, obs));
  }
  return file;
}

std::string written(const core::ShardFile& file) {
  const std::string path = testing::TempDir() + "/ednsm_streamed_shard.json";
  const auto ok = file.write(path);
  EXPECT_TRUE(ok.has_value()) << ok.error();
  auto text = util::read_file(path);
  std::remove(path.c_str());
  return text.has_value() ? text.value() : std::string();
}

TEST(StreamedWriter, ShardFileWithTraceAndMetricsMatchesDomReference) {
  core::CampaignObsOptions obs;
  obs.trace = true;
  obs.metrics = true;
  const core::ShardFile file = shard_file({0, 1}, obs);
  ASSERT_EQ(file.outcomes.size(), 2u);
  EXPECT_EQ(written(file), file.to_json().dump(2) + "\n");
}

TEST(StreamedWriter, ShardFileWithoutObsAndEmptySliceMatchDomReference) {
  const core::ShardFile file = shard_file({1, 2}, {});
  ASSERT_EQ(file.outcomes.size(), 1u);
  EXPECT_EQ(written(file), file.to_json().dump(2) + "\n");
  const core::ShardFile empty = shard_file({4, 5}, {});
  ASSERT_TRUE(empty.outcomes.empty());
  EXPECT_EQ(written(empty), empty.to_json().dump(2) + "\n");
}

TEST(StreamedWriter, MonitorResultMatchesDomReference) {
  monitor::MonitorSpec spec;
  spec.base.resolvers = {"dns.google", "ordns.he.net"};
  spec.base.vantage_ids = {"ec2-ohio"};
  spec.base.rounds = 2;
  spec.base.seed = 20260805;
  spec.epochs = 6;
  spec.outages.push_back(monitor::OutageScript{"dns.google", 2, 4});
  auto run = monitor::run_monitor(spec, 1);
  ASSERT_TRUE(run.has_value()) << run.error();
  const monitor::MonitorResult& result = run.value();
  ASSERT_FALSE(result.events.empty());
  ASSERT_FALSE(result.slos.empty());
  ASSERT_FALSE(result.evidence.empty());
  for (const int indent : {0, 2}) {
    std::ostringstream os;
    result.write_json(os, indent);
    EXPECT_EQ(os.str(), result.to_json().dump(indent) + "\n") << "indent " << indent;
    std::string sunk;
    result.write_json([&sunk](std::string_view bytes) { sunk.append(bytes); }, indent);
    EXPECT_EQ(sunk, os.str()) << "indent " << indent;
  }
}

}  // namespace
}  // namespace ednsm
