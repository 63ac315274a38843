// Microbenchmarks (google-benchmark) for the hot paths under the measurement
// tool: DNS wire codec, name compression, base64url, HPACK, HTTP/2 framing,
// HTTP/1.1 codec, the resolver cache, JSON serialization, and the simulator's
// RNG/path sampling. These guard against performance regressions that would
// make large campaigns slow.
#include <benchmark/benchmark.h>

#include "client/session.h"
#include "core/campaign.h"
#include "util/json.h"
#include "dns/base64url.h"
#include "dns/message.h"
#include "geo/geodb.h"
#include "http/doh_media.h"
#include "http/h1.h"
#include "http/h2.h"
#include "http/hpack.h"
#include "netsim/path.h"
#include "netsim/rng.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "lint/lint.h"
#include "resolver/cache.h"
#include "resolver/server.h"
#include "resolver/upstream.h"

namespace {

using namespace ednsm;

dns::Message sample_query() {
  return dns::make_query(0x1234, dns::Name::parse("www.example.com").value(),
                         dns::RecordType::A);
}

dns::Message sample_response() {
  const dns::Message q = sample_query();
  return dns::make_response(
      q, dns::Rcode::NoError,
      resolver::synthesize_answers(q.questions.front().qname, dns::RecordType::A));
}

void BM_DnsEncodeQuery(benchmark::State& state) {
  const dns::Message q = sample_query();
  for (auto _ : state) {
    benchmark::DoNotOptimize(q.encode());
  }
}
BENCHMARK(BM_DnsEncodeQuery);

void BM_DnsEncodeQueryPadded(benchmark::State& state) {
  const dns::Message q = sample_query();
  for (auto _ : state) {
    benchmark::DoNotOptimize(q.encode(128));
  }
}
BENCHMARK(BM_DnsEncodeQueryPadded);

void BM_DnsDecodeResponse(benchmark::State& state) {
  const util::Bytes wire = sample_response().encode();
  for (auto _ : state) {
    benchmark::DoNotOptimize(dns::Message::decode(wire));
  }
}
BENCHMARK(BM_DnsDecodeResponse);

void BM_Base64UrlEncode(benchmark::State& state) {
  util::Bytes data(static_cast<std::size_t>(state.range(0)));
  netsim::Rng rng(1);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.next_u64());
  for (auto _ : state) {
    benchmark::DoNotOptimize(dns::base64url_encode(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_Base64UrlEncode)->Arg(64)->Arg(512)->Arg(4096);

void BM_Base64UrlDecode(benchmark::State& state) {
  util::Bytes data(static_cast<std::size_t>(state.range(0)));
  netsim::Rng rng(1);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.next_u64());
  const std::string encoded = dns::base64url_encode(data);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dns::base64url_decode(encoded));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_Base64UrlDecode)->Arg(64)->Arg(512)->Arg(4096);

void BM_HpackEncodeRequestHeaders(benchmark::State& state) {
  const std::vector<http::hpack::Header> headers = {
      {":method", "POST"},
      {":scheme", "https"},
      {":authority", "dns.example"},
      {":path", "/dns-query"},
      {"accept", "application/dns-message"},
      {"content-type", "application/dns-message"},
  };
  http::hpack::Encoder encoder;
  for (auto _ : state) {
    benchmark::DoNotOptimize(encoder.encode(headers));
  }
}
BENCHMARK(BM_HpackEncodeRequestHeaders);

void BM_H2SerializeRequest(benchmark::State& state) {
  const util::Bytes dns_wire = sample_query().encode();
  const http::Request req =
      http::make_doh_request("dns.example", "/dns-query", dns_wire, true);
  http::H2ClientSession session;
  std::uint32_t sid = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(session.serialize_request(req, sid));
  }
}
BENCHMARK(BM_H2SerializeRequest);

void BM_H1EncodeDecode(benchmark::State& state) {
  const util::Bytes dns_wire = sample_query().encode();
  const http::Request req =
      http::make_doh_request("dns.example", "/dns-query", dns_wire, true);
  for (auto _ : state) {
    const util::Bytes wire = req.encode();
    benchmark::DoNotOptimize(http::Request::decode(wire));
  }
}
BENCHMARK(BM_H1EncodeDecode);

void BM_CacheHit(benchmark::State& state) {
  resolver::Cache cache;
  const resolver::CacheKey key{dns::Name::parse("www.example.com").value(),
                               dns::RecordType::A, dns::RecordClass::IN};
  cache.insert(key, dns::Rcode::NoError,
               resolver::synthesize_answers(key.qname, dns::RecordType::A),
               netsim::SimTime(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.lookup(key, netsim::SimTime(std::chrono::seconds(1))));
  }
}
BENCHMARK(BM_CacheHit);

void BM_CacheInsertEvict(benchmark::State& state) {
  resolver::Cache cache(1024);
  std::uint64_t i = 0;
  for (auto _ : state) {
    const resolver::CacheKey key{
        dns::Name::parse("h" + std::to_string(i++) + ".example.com").value(),
        dns::RecordType::A, dns::RecordClass::IN};
    cache.insert(key, dns::Rcode::NoError, {}, netsim::SimTime(0));
  }
}
BENCHMARK(BM_CacheInsertEvict);

void BM_JsonDumpRecord(benchmark::State& state) {
  util::JsonObject o;
  o["vantage"] = util::Json("ec2-ohio");
  o["resolver"] = util::Json("dns.google");
  o["response_ms"] = util::Json(31.25);
  o["ok"] = util::Json(true);
  const util::Json j(std::move(o));
  for (auto _ : state) {
    benchmark::DoNotOptimize(j.dump());
  }
}
BENCHMARK(BM_JsonDumpRecord);

void BM_JsonParseRecord(benchmark::State& state) {
  const std::string text =
      R"({"ok":true,"resolver":"dns.google","response_ms":31.25,"vantage":"ec2-ohio"})";
  for (auto _ : state) {
    benchmark::DoNotOptimize(util::Json::parse(text));
  }
}
BENCHMARK(BM_JsonParseRecord);

void BM_RngLognormal(benchmark::State& state) {
  netsim::Rng rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.lognormal(-1.2, 0.45));
  }
}
BENCHMARK(BM_RngLognormal);

void BM_PathSample(benchmark::State& state) {
  const netsim::PathModel path = netsim::PathModel::between(
      geo::city::kChicago, geo::city::kFrankfurt, netsim::AccessLinkModel::residential(),
      netsim::AccessLinkModel::datacenter());
  netsim::Rng rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(path.sample_one_way_ms(rng));
  }
}
BENCHMARK(BM_PathSample);

void BM_EventQueueScheduleRun(benchmark::State& state) {
  // Schedule-then-drain with a sprinkle of cancellations: the simulator's
  // innermost loop (heap push/pop + callback dispatch, no allocation for
  // small captures).
  const auto n = static_cast<std::size_t>(state.range(0));
  netsim::Rng rng(42);
  for (auto _ : state) {
    netsim::EventQueue q;
    std::uint64_t sink = 0;
    netsim::EventQueue::EventId last = 0;
    for (std::size_t i = 0; i < n; ++i) {
      last = q.schedule(netsim::SimDuration(rng.uniform_u64(1'000'000)), [&sink] { ++sink; });
      if ((i & 7u) == 7u) (void)q.cancel(last);
    }
    benchmark::DoNotOptimize(q.run_until_idle());
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_EventQueueScheduleRun)->Arg(1024)->Arg(65536);

void BM_CampaignRound(benchmark::State& state) {
  // One measurement round over the full Appendix A.2 registry from one EC2
  // vantage: the unit of work the paper benches repeat thousands of times.
  core::MeasurementSpec spec;
  for (const auto& s : resolver::paper_resolver_list()) spec.resolvers.push_back(s.hostname);
  spec.vantage_ids = {"ec2-ohio"};
  spec.rounds = 1;
  spec.seed = 7;
  for (auto _ : state) {
    core::SimWorld world(spec.seed);
    core::CampaignResult result = core::CampaignRunner(world, spec).run();
    benchmark::DoNotOptimize(result.records.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(spec.resolvers.size()));
}
BENCHMARK(BM_CampaignRound);

void BM_TraceOverheadOnOff(benchmark::State& state) {
  // Same round as BM_CampaignRound, with the observability tracer disabled
  // (Arg(0)) or enabled (Arg(1)). The Arg(0) lane should match
  // BM_CampaignRound within noise — that is the "no measurable overhead when
  // off" budget — and the Arg(0)/Arg(1) gap is the cost of recording spans.
  const bool traced = state.range(0) == 1;
  core::MeasurementSpec spec;
  for (const auto& s : resolver::paper_resolver_list()) spec.resolvers.push_back(s.hostname);
  spec.vantage_ids = {"ec2-ohio"};
  spec.rounds = 1;
  spec.seed = 7;
  std::uint64_t events = 0;
  for (auto _ : state) {
    core::SimWorld world(spec.seed);
    if (traced) world.tracer().enable();
    core::CampaignResult result = core::CampaignRunner(world, spec).run();
    benchmark::DoNotOptimize(result.records.size());
    if (traced) events += world.tracer().emitted();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(spec.resolvers.size()));
  if (traced && state.iterations() > 0) {
    state.counters["trace_events"] =
        static_cast<double>(events) / static_cast<double>(state.iterations());
  }
}
BENCHMARK(BM_TraceOverheadOnOff)->Arg(0)->Arg(1);

void BM_DohQueryColdVsWarm(benchmark::State& state) {
  // One simulated DoH query end-to-end through the session layer. Arg(0):
  // every iteration pays a fresh TCP+TLS handshake (ReusePolicy::None);
  // Arg(1): a keepalive session is primed once, so iterations measure the
  // warm exchange path alone. The gap is the per-query cost of connection
  // setup that the decomposition table reports in simulated time.
  const bool warm = state.range(0) == 1;
  netsim::EventQueue queue;
  netsim::Network net(queue, netsim::Rng(11));
  const netsim::IpAddr client_ip = net.attach("client", geo::city::kColumbusOhio,
                                              netsim::AccessLinkModel::datacenter());
  resolver::ServerBehavior behavior;
  behavior.warm_cache_probability = 1.0;
  resolver::ResolverServer server(
      net, "dns.example", resolver::AnycastSite{"Chicago", geo::city::kChicago}, behavior);
  transport::ConnectionPool pool(net, client_ip);
  client::QueryOptions options;
  options.reuse = warm ? transport::ReusePolicy::Keepalive : transport::ReusePolicy::None;
  client::SessionTarget target;
  target.server = server.address();
  target.hostname = "dns.example";
  const client::SessionFactory factory(net, client_ip, pool);
  const auto session = factory.create(client::Protocol::DoH, std::move(target), options);
  const dns::Name qname = dns::Name::parse("www.example.com").value();
  auto ask = [&] {
    bool ok = false;
    session->query(qname, dns::RecordType::A,
                   [&ok](client::QueryOutcome o) { ok = o.ok; });
    queue.run_until_idle();
    return ok;
  };
  if (warm && !ask()) state.SkipWithError("priming query failed");
  for (auto _ : state) {
    benchmark::DoNotOptimize(ask());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_DohQueryColdVsWarm)->Arg(0)->Arg(1);

void BM_NameCompressionEncode(benchmark::State& state) {
  const dns::Name names[] = {
      dns::Name::parse("www.example.com").value(),
      dns::Name::parse("mail.example.com").value(),
      dns::Name::parse("example.com").value(),
  };
  for (auto _ : state) {
    dns::WireWriter w;
    dns::NameCompressor comp;
    for (const auto& n : names) comp.write(w, n);
    benchmark::DoNotOptimize(w.data());
  }
}
BENCHMARK(BM_NameCompressionEncode);

// TimeSeries fold: the monitor's per-record hot path (intern + map upsert +
// histogram add). 4 resolvers x 2 vantages cycling over 30 epoch buckets.
void BM_TimeSeriesFold(benchmark::State& state) {
  const char* resolvers[] = {"dns.google", "dns.quad9.net", "ordns.he.net", "doh.ffmuc.net"};
  const char* vantages[] = {"ec2-ohio", "ec2-frankfurt"};
  std::int64_t i = 0;
  obs::TimeSeries ts(1);
  for (auto _ : state) {
    const char* r = resolvers[i % 4];
    const char* v = vantages[i % 2];
    const std::int64_t epoch = i % 30;
    ts.add_counter("monitor.queries", v, r, "DoH", epoch);
    ts.observe("monitor.response_ms", v, r, "DoH", epoch,
               static_cast<double>(20 + i % 400));
    ++i;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_TimeSeriesFold);

void BM_TimeSeriesBinaryRoundTrip(benchmark::State& state) {
  obs::TimeSeries ts(1);
  for (std::int64_t i = 0; i < 2000; ++i) {
    ts.add_counter("monitor.queries", i % 2 ? "v-a" : "v-b", "dns.google", "DoH", i % 30);
    ts.observe("monitor.response_ms", i % 2 ? "v-a" : "v-b", "dns.google", "DoH", i % 30,
               static_cast<double>(i % 500));
  }
  for (auto _ : state) {
    const util::Bytes blob = ts.to_binary();
    auto back = obs::TimeSeries::from_binary(blob);
    benchmark::DoNotOptimize(back);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(ts.to_binary().size()));
}
BENCHMARK(BM_TimeSeriesBinaryRoundTrip);

// Full-tree static analysis: the three analyzer passes (symbol index, call
// graph, rules incl. determinism taint) over the committed src/tools/bench
// tree — the cost every CI push pays at the lint gate. Files are loaded once
// outside the timed loop so the lane measures analysis, not disk.
void BM_LintFullTree(benchmark::State& state) {
  const std::vector<lint::SourceFile> files =
      lint::load_tree({std::string(EDNSM_SOURCE_DIR) + "/src",
                       std::string(EDNSM_SOURCE_DIR) + "/tools",
                       std::string(EDNSM_SOURCE_DIR) + "/bench"});
  if (files.empty()) {
    state.SkipWithError("source tree not found at EDNSM_SOURCE_DIR");
    return;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(lint::run_lint(files));
  }
  state.counters["files"] = static_cast<double>(files.size());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(files.size()));
}
BENCHMARK(BM_LintFullTree);

}  // namespace

BENCHMARK_MAIN();
