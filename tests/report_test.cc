#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "core/campaign.h"
#include "core/parallel_campaign.h"
#include "report/boxplot.h"
#include "report/decomposition.h"
#include "report/figures.h"
#include "report/table.h"

namespace ednsm::report {
namespace {

// ---- table ----------------------------------------------------------------------

TEST(Table, TextAlignment) {
  Table t({"Name", "Value"});
  t.add_row({"a", "1"});
  t.add_row({"longer-name", "22"});
  const std::string text = t.to_text();
  EXPECT_NE(text.find("Name"), std::string::npos);
  EXPECT_NE(text.find("longer-name"), std::string::npos);
  // Separator row of dashes present.
  EXPECT_NE(text.find("----"), std::string::npos);
}

TEST(Table, RowWidthMismatchThrows) {
  Table t({"A", "B"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(Table, RowAccess) {
  Table t({"A"});
  t.add_row({"v"});
  EXPECT_EQ(t.rows(), 1u);
  EXPECT_EQ(t.row(0)[0], "v");
}

TEST(Fmt, FormatsAndHandlesNaN) {
  EXPECT_EQ(fmt(12.345, 1), "12.3");
  EXPECT_EQ(fmt(12.345, 0), "12");
  EXPECT_EQ(fmt(std::nan(""), 1), "-");
}

// ---- boxplot --------------------------------------------------------------------

TEST(BoxPlot, LineMarksLandmarks) {
  stats::BoxSummary s = stats::box_summary({100, 150, 200, 250, 300});
  const std::string line = render_box_line(s, 600.0, 60, '=');
  EXPECT_EQ(line.size(), 60u);
  EXPECT_NE(line.find('M'), std::string::npos);
  EXPECT_NE(line.find('['), std::string::npos);
  EXPECT_NE(line.find(']'), std::string::npos);
  // Median column proportional to 200/600 of the width.
  const auto m_at = line.find('M');
  EXPECT_NEAR(static_cast<double>(m_at), 200.0 / 600.0 * 59.0, 2.0);
}

TEST(BoxPlot, EmptySummaryRendersBlank) {
  const std::string line = render_box_line({}, 600.0, 40, '=');
  EXPECT_EQ(line, std::string(40, ' '));
}

TEST(BoxPlot, TruncatesBeyondMax) {
  stats::BoxSummary s = stats::box_summary({100, 200, 5000});
  const std::string line = render_box_line(s, 600.0, 40, '=');
  EXPECT_EQ(line.size(), 40u);  // nothing drawn out of bounds
}

TEST(BoxPlot, FullRenderIncludesLabelsAndLegend) {
  BoxRow row;
  row.label = "dns.example";
  row.bold = true;
  row.response = stats::box_summary({20, 30, 40});
  row.ping = stats::box_summary({5, 6, 7});
  const std::string out = render_boxplots({row});
  EXPECT_NE(out.find("*dns.example*"), std::string::npos);
  EXPECT_NE(out.find("med=30.0 ms"), std::string::npos);
  EXPECT_NE(out.find("ping=6.0 ms"), std::string::npos);
  EXPECT_NE(out.find("legend:"), std::string::npos);
}

TEST(BoxPlot, PinglessRowOmitsPingLine) {
  BoxRow row;
  row.label = "no-ping.example";
  row.response = stats::box_summary({20, 30, 40});
  const std::string out = render_boxplots({row});
  EXPECT_EQ(out.find("ping="), std::string::npos);
}

// ---- figures over a real (small) campaign -----------------------------------------

class FigureTest : public ::testing::Test {
 protected:
  static const core::CampaignResult& result() {
    static const core::CampaignResult kResult = [] {
      core::MeasurementSpec spec;
      spec.resolvers = {"dns.google", "security.cloudflare-dns.com", "dns.quad9.net",
                        "ordns.he.net", "freedns.controld.com", "doh.ffmuc.net",
                        "dns.brahma.world", "dns.alidns.com", "dns.twnic.tw"};
      spec.vantage_ids = {"ec2-ohio", "ec2-frankfurt", "ec2-seoul"};
      spec.rounds = 12;
      spec.seed = 31;
      return core::run_parallel_campaign(spec);
    }();
    return kResult;
  }
};

TEST_F(FigureTest, FigureRowsSortedByMedian) {
  const auto rows = figure_rows(result(), "ec2-ohio", geo::Continent::NorthAmerica);
  ASSERT_GT(rows.size(), 3u);
  for (std::size_t i = 1; i < rows.size(); ++i) {
    if (rows[i - 1].response.count == 0 || rows[i].response.count == 0) continue;
    EXPECT_LE(rows[i - 1].response.median, rows[i].response.median);
  }
}

TEST_F(FigureTest, FigureIncludesMainstreamBolded) {
  const auto rows = figure_rows(result(), "ec2-frankfurt", geo::Continent::Europe);
  bool any_bold = false;
  for (const BoxRow& r : rows) any_bold |= r.bold;
  EXPECT_TRUE(any_bold);
}

TEST_F(FigureTest, RenderFigureContainsTitleAndRows) {
  const std::string fig = render_figure(result(), "ec2-ohio",
                                        geo::Continent::NorthAmerica, "Figure 1");
  EXPECT_NE(fig.find("Figure 1"), std::string::npos);
  EXPECT_NE(fig.find("dns.google"), std::string::npos);
  EXPECT_NE(fig.find("ordns.he.net"), std::string::npos);
}

TEST_F(FigureTest, RemoteMedianTableShape) {
  const Table t = remote_median_table(result(), geo::Continent::Asia, "ec2-seoul",
                                      "ec2-frankfurt", 5);
  EXPECT_LE(t.rows(), 5u);
  ASSERT_GE(t.rows(), 1u);
  // Asia resolvers must be slower from Frankfurt than from Seoul.
  for (std::size_t i = 0; i < t.rows(); ++i) {
    const double near_ms = std::stod(t.row(i)[1]);
    const double far_ms = std::stod(t.row(i)[2]);
    EXPECT_LT(near_ms, far_ms) << t.row(i)[0];
  }
}

TEST_F(FigureTest, AvailabilityReportMentionsTotals) {
  const std::string report = availability_report(result());
  EXPECT_NE(report.find("successful responses:"), std::string::npos);
  EXPECT_NE(report.find("error rate:"), std::string::npos);
}

TEST_F(FigureTest, MaxMedianTableHasAllVantages) {
  const Table t = max_median_table(result());
  EXPECT_EQ(t.rows(), 3u);
}

TEST_F(FigureTest, NonmainstreamWinnersFromSeoulIncludesAlidns) {
  const auto winners = nonmainstream_winners(result(), "ec2-seoul");
  EXPECT_NE(std::find(winners.begin(), winners.end(), "dns.alidns.com"), winners.end());
}

// ---- phase decomposition ---------------------------------------------------------

// A small keepalive campaign so both connection states appear: the first
// query of each (vantage, resolver) pair is cold, the rest ride the pooled
// session and land in the warm population.
class DecompositionTest : public ::testing::Test {
 protected:
  // A 4-round keepalive campaign from one vantage over `protocol`.
  static const core::CampaignResult& result(client::Protocol protocol = client::Protocol::DoH) {
    static std::map<client::Protocol, core::CampaignResult> results;
    auto it = results.find(protocol);
    if (it == results.end()) {
      core::SimWorld world(47);
      core::MeasurementSpec spec;
      spec.resolvers = {"dns.google", "ordns.he.net"};
      spec.vantage_ids = {"ec2-ohio"};
      spec.protocol = protocol;
      spec.rounds = 4;
      spec.seed = 47;
      spec.query_options.reuse = transport::ReusePolicy::Keepalive;
      it = results.emplace(protocol, core::CampaignRunner(world, spec).run()).first;
    }
    return it->second;
  }
};

TEST_F(DecompositionTest, TableSplitsColdAndWarm) {
  const Table t = phase_decomposition_table(result());
  ASSERT_EQ(t.rows(), 2u);  // one vantage, both connection states
  EXPECT_EQ(t.row(0)[0], "ec2-ohio");
  EXPECT_EQ(t.row(0)[1], "cold");
  EXPECT_EQ(t.row(1)[1], "warm");
  // Cold queries pay connection setup; warm ones are pure exchange, so the
  // Setup column (Total - Exchange) is zero and Exchange equals Total.
  EXPECT_GT(std::stod(t.row(0)[8]), 0.0);
  EXPECT_DOUBLE_EQ(std::stod(t.row(1)[8]), 0.0);
  EXPECT_EQ(t.row(1)[7], t.row(1)[9]);
  // Both populations are non-empty and account for every successful record.
  std::size_t ok_records = 0;
  for (const core::ResultRecord& r : result().records) ok_records += r.ok ? 1 : 0;
  EXPECT_EQ(std::stoul(t.row(0)[2]) + std::stoul(t.row(1)[2]), ok_records);
}

TEST_F(DecompositionTest, OnlyTheFirstQueryPerPairIsCold) {
  // Keepalive carries each pair's connection in the vantage's pool (for
  // DoH with the HTTP/2 session state on it) across probes and rounds, for
  // TLS and QUIC alike: exactly one cold success per resolver, and no query
  // stalls on a reused connection.
  for (const client::Protocol protocol :
       {client::Protocol::DoH, client::Protocol::DoT, client::Protocol::DoQ}) {
    SCOPED_TRACE(client::to_string(protocol));
    std::map<std::string, int> cold_successes;
    for (const core::ResultRecord& r : result(protocol).records) {
      EXPECT_NE(r.error_class, "timeout") << r.resolver << " round " << r.round << " " << r.domain;
      if (r.ok && !r.connection_reused) ++cold_successes[r.resolver];
    }
    for (const std::string& host : result(protocol).spec.resolvers) {
      EXPECT_EQ(cold_successes[host], 1) << host;
    }
  }
}

TEST_F(DecompositionTest, ColdWarmRowsCarryBothDistributions) {
  const auto rows = cold_warm_rows(result());
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].label, "ec2-ohio (cold)");
  EXPECT_EQ(rows[1].label, "ec2-ohio (warm)");
  for (const BoxRow& r : rows) {
    EXPECT_GT(r.response.count, 0u);
    EXPECT_EQ(r.ping.count, r.response.count);  // exchange box over same records
  }
  // Cold medians sit above warm ones by at least the handshake cost.
  EXPECT_GT(rows[0].response.median, rows[1].response.median);
}

TEST_F(DecompositionTest, RenderedFigureLabelsBothStates) {
  const std::string fig = render_cold_warm_figure(result());
  EXPECT_NE(fig.find("Cold vs. warm"), std::string::npos);
  EXPECT_NE(fig.find("ec2-ohio (cold)"), std::string::npos);
  EXPECT_NE(fig.find("ec2-ohio (warm)"), std::string::npos);
}

TEST_F(FigureTest, DecompositionTableWithoutReuseIsAllCold) {
  const Table t = phase_decomposition_table(result());
  ASSERT_GE(t.rows(), 3u);  // at least one row per vantage
  for (std::size_t i = 0; i < t.rows(); ++i) EXPECT_EQ(t.row(i)[1], "cold");
}

TEST(BrowserMatrix, MatchesTable1) {
  const Table t = browser_matrix();
  EXPECT_EQ(t.rows(), 5u);       // five browsers
  EXPECT_EQ(t.row(0).size(), 7u);  // name + six providers
  // Edge row: all six checked.
  int edge_checks = 0;
  for (std::size_t c = 1; c < 7; ++c) {
    if (t.row(2)[c] == "v") ++edge_checks;
  }
  EXPECT_EQ(edge_checks, 6);
  // Firefox row: exactly two.
  int firefox_checks = 0;
  for (std::size_t c = 1; c < 7; ++c) {
    if (t.row(1)[c] == "v") ++firefox_checks;
  }
  EXPECT_EQ(firefox_checks, 2);
}

}  // namespace
}  // namespace ednsm::report
