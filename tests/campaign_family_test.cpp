// The fault-family campaign table: every descriptor must be well formed,
// and its run function must emit per-run rows exactly as wide as the
// header the driver writes above them.
#include <algorithm>
#include <atomic>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "campaign_family.hpp"
#include "harness/campaign_cli.hpp"

namespace easis::bench {
namespace {

std::size_t column_count(const std::string& header) {
  return header.empty()
             ? 0
             : 1 + std::count(header.begin(), header.end(), ',');
}

TEST(CampaignFamilyTable, ProgramAndCsvNamesAreUnique) {
  std::set<std::string> programs;
  std::set<std::string> csvs;
  for (const CampaignFamily* family : campaign_families()) {
    EXPECT_TRUE(programs.insert(family->program).second) << family->program;
    EXPECT_TRUE(csvs.insert(family->default_csv()).second) << family->program;
  }
  EXPECT_EQ(programs.size(), 5u);
}

TEST(CampaignFamilyTable, ClassListsAreNonEmptyAndDistinct) {
  for (const CampaignFamily* family : campaign_families()) {
    EXPECT_FALSE(family->classes.empty()) << family->program;
    const std::set<std::string> distinct(family->classes.begin(),
                                         family->classes.end());
    EXPECT_EQ(distinct.size(), family->classes.size()) << family->program;
    EXPECT_TRUE(family->run) << family->program;
    EXPECT_TRUE(family->shape) << family->program;
    // Only a family that emits rows can make them its result CSV.
    EXPECT_TRUE(!family->rows_are_result || !family->rows_header.empty())
        << family->program;
  }
}

TEST(CampaignFamilyTable, SidecarsShareTheCsvStem) {
  harness::CampaignCli cli("prog", "", 0, 1, "", "out/exp_x.csv");
  EXPECT_EQ(cli.csv_stem(), "out/exp_x");
  EXPECT_EQ(cli.flight_prefix(), "out/exp_x");
  cli.csv = "ranking.csv.txt";
  EXPECT_EQ(cli.csv_stem(), "ranking.csv.txt");
  cli.telemetry.flight_prefix = "dumps/run";
  EXPECT_EQ(cli.flight_prefix(), "dumps/run");
  EXPECT_EQ(cli.csv_stem(), "ranking.csv.txt");
}

TEST(CampaignFamilyTable, FirstClassRowsMatchHeaderWidth) {
  for (const CampaignFamily* family : campaign_families()) {
    SCOPED_TRACE(family->program);
    harness::RunSpec spec;
    spec.seed = family->default_seed;
    spec.label = family->classes.front();
    const std::atomic<bool> cancel{false};
    const harness::RunContext ctx(spec, cancel);

    const harness::RunResult result = family->run(ctx);
    ASSERT_EQ(result.status, harness::RunStatus::kRunOk) << result.error;
    const std::size_t width = column_count(family->rows_header);
    EXPECT_EQ(result.rows.empty(), width == 0);
    for (const auto& row : result.rows) {
      EXPECT_EQ(row.size(), width) << family->rows_header;
      EXPECT_EQ(row.front(), spec.label);
    }
  }
}

}  // namespace
}  // namespace easis::bench
