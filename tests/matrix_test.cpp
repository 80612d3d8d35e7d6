// Scenario-matrix driver coverage: profile construction, strategy tokens,
// and the byte-determinism contract of the per-cell artifacts.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "driver/matrix.h"

namespace anu::driver {
namespace {

std::string slurp(const std::filesystem::path& path) {
  std::ifstream f(path, std::ios::binary);
  EXPECT_TRUE(f) << path;
  std::ostringstream os;
  os << f.rdbuf();
  return os.str();
}

TEST(HeterogeneityProfile, ShapesMatchTheirDocs) {
  const auto uniform = heterogeneity_profile("uniform", 4);
  ASSERT_TRUE(uniform);
  EXPECT_EQ(*uniform, (std::vector<double>{5.0, 5.0, 5.0, 5.0}));

  // paper tiles the §5.1 speeds 1,3,5,7,9.
  const auto paper = heterogeneity_profile("paper", 7);
  ASSERT_TRUE(paper);
  EXPECT_EQ(*paper, (std::vector<double>{1.0, 3.0, 5.0, 7.0, 9.0, 1.0, 3.0}));

  const auto bimodal = heterogeneity_profile("bimodal", 6);
  ASSERT_TRUE(bimodal);
  EXPECT_EQ(*bimodal, (std::vector<double>{1.0, 1.0, 1.0, 9.0, 9.0, 9.0}));

  const auto extreme = heterogeneity_profile("extreme", 5);
  ASSERT_TRUE(extreme);
  EXPECT_EQ(*extreme, (std::vector<double>{1.0, 2.0, 4.0, 8.0, 16.0}));

  EXPECT_FALSE(heterogeneity_profile("nope", 5));
}

TEST(HeterogeneityProfile, EveryListedNameResolves) {
  for (const std::string& name : heterogeneity_profile_names()) {
    EXPECT_TRUE(heterogeneity_profile(name, 5)) << name;
  }
}

TEST(StrategyConfig, TokensSelectSystems) {
  const SystemConfig base;
  EXPECT_EQ(strategy_config("anu", base)->kind, SystemKind::kAnu);
  EXPECT_EQ(strategy_config("simple", base)->kind, SystemKind::kSimpleRandom);
  EXPECT_EQ(strategy_config("jiq", base)->kind, SystemKind::kJoinIdleQueue);
  EXPECT_EQ(strategy_config("red", base)->kind, SystemKind::kRedundancyD);

  const auto jsqd = strategy_config("jsqd", base);
  ASSERT_TRUE(jsqd);
  EXPECT_EQ(jsqd->kind, SystemKind::kJsqD);
  EXPECT_FALSE(jsqd->jsq.speed_aware);

  const auto jsqdw = strategy_config("jsqdw", base);
  ASSERT_TRUE(jsqdw);
  EXPECT_EQ(jsqdw->kind, SystemKind::kJsqD);
  EXPECT_TRUE(jsqdw->jsq.speed_aware);

  EXPECT_FALSE(strategy_config("nope", base));
}

MatrixConfig tiny_matrix(const std::string& out_dir) {
  MatrixConfig config;
  config.profiles = {"paper"};
  config.server_counts = {4};
  config.loads = {0.5};
  config.strategies = {"jsqd", "red"};
  config.seeds = 2;
  config.requests_per_server = 50;
  config.file_sets_per_server = 3;
  config.duration = 600.0;
  config.out_dir = out_dir;
  return config;
}

TEST(Matrix, CellFilesAreByteIdenticalAtAnyJobsLevel) {
  const auto root = std::filesystem::path(::testing::TempDir());
  auto serial = tiny_matrix((root / "mx_serial").string());
  serial.jobs = 1;
  auto parallel = tiny_matrix((root / "mx_parallel").string());
  parallel.jobs = 4;

  const MatrixResult a = run_matrix(serial);
  const MatrixResult b = run_matrix(parallel);
  ASSERT_EQ(a.cells.size(), 2u);
  ASSERT_EQ(a.cells.size(), b.cells.size());
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    EXPECT_EQ(a.cells[i].file, b.cells[i].file);
    EXPECT_EQ(slurp(std::filesystem::path(serial.out_dir) / a.cells[i].file),
              slurp(std::filesystem::path(parallel.out_dir) / b.cells[i].file))
        << a.cells[i].file;
  }
}

TEST(Matrix, SummaryCarriesEveryCell) {
  const auto root = std::filesystem::path(::testing::TempDir());
  const auto config = tiny_matrix((root / "mx_summary").string());
  const MatrixResult result = run_matrix(config);
  ASSERT_EQ(result.cells.size(), 2u);
  EXPECT_EQ(result.cells[0].strategy, "jsq-d");
  EXPECT_EQ(result.cells[1].strategy, "redundancy-d");
  for (const MatrixCell& cell : result.cells) {
    EXPECT_EQ(cell.profile, "paper");
    EXPECT_EQ(cell.servers, 4u);
    EXPECT_GT(cell.mean_latency_s, 0.0);
    EXPECT_GT(cell.requests_completed, 0.0);
    EXPECT_TRUE(
        std::filesystem::exists(std::filesystem::path(config.out_dir) /
                                cell.file))
        << cell.file;
  }

  const obs::Json doc = matrix_summary_json(config, result);
  std::ostringstream rendered;
  doc.write_pretty(rendered);
  EXPECT_NE(rendered.str().find("anu.matrix_summary"), std::string::npos);
  EXPECT_NE(rendered.str().find("jsq-d"), std::string::npos);
}

TEST(Matrix, RejectsUnknownTokensAndBadLoads) {
  const auto root = std::filesystem::path(::testing::TempDir());
  auto bad_profile = tiny_matrix((root / "mx_bad1").string());
  bad_profile.profiles = {"nope"};
  EXPECT_THROW((void)run_matrix(bad_profile), std::runtime_error);

  auto bad_strategy = tiny_matrix((root / "mx_bad2").string());
  bad_strategy.strategies = {"nope"};
  EXPECT_THROW((void)run_matrix(bad_strategy), std::runtime_error);

  // A bad token after a good one is rejected before any cell runs: the
  // output directory is never created, so no cell file is left in it.
  auto late_profile = tiny_matrix((root / "mx_bad5").string());
  late_profile.profiles = {"paper", "nope"};
  std::filesystem::remove_all(late_profile.out_dir);
  EXPECT_THROW((void)run_matrix(late_profile), std::runtime_error);
  EXPECT_FALSE(std::filesystem::exists(late_profile.out_dir));

  auto late_strategy = tiny_matrix((root / "mx_bad6").string());
  late_strategy.strategies = {"jsqd", "nope"};
  std::filesystem::remove_all(late_strategy.out_dir);
  EXPECT_THROW((void)run_matrix(late_strategy), std::runtime_error);
  EXPECT_FALSE(std::filesystem::exists(late_strategy.out_dir));

  auto bad_load = tiny_matrix((root / "mx_bad3").string());
  bad_load.loads = {1.5};
  EXPECT_THROW((void)run_matrix(bad_load), std::runtime_error);

  // A membership script naming a server the cell lacks: fail and recover
  // server 4 on a 3-server cluster.
  auto bad_script = tiny_matrix((root / "mx_bad4").string());
  bad_script.server_counts = {3};
  bad_script.base.experiment.failures.add(
      {600.0, cluster::MembershipAction::kFail, ServerId(4), 0.0});
  bad_script.base.experiment.failures.add(
      {900.0, cluster::MembershipAction::kRecover, ServerId(4), 0.0});
  EXPECT_THROW((void)run_matrix(bad_script), std::runtime_error);
}

}  // namespace
}  // namespace anu::driver
