#include "driver/matrix.h"

#include <cmath>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "obs/build_info.h"

namespace anu::driver {

namespace {

/// Headline metric lookup in a batch result (by frozen schema name).
double metric_mean(const BatchResult& batch, std::string_view name) {
  for (const auto& [metric, aggregate] : batch.metrics) {
    if (metric == name) return aggregate.mean;
  }
  return 0.0;
}

/// File-name-safe cell id: <profile>-k<servers>-u<load%>-<strategy>.
std::string cell_file_name(const std::string& profile, std::size_t servers,
                           double load, const std::string& strategy) {
  std::ostringstream os;
  os << profile << "-k" << servers << "-u"
     << static_cast<int>(std::lround(load * 100.0)) << "-" << strategy
     << ".json";
  return os.str();
}

/// Display label for a strategy token: the system label, with the variant
/// suffix for speed-aware JSQ(d) so both flavours stay distinguishable.
std::string strategy_label(std::string_view token, const SystemConfig& sys) {
  if (sys.kind == SystemKind::kJsqD && sys.jsq.speed_aware) {
    return "jsq-d-het";
  }
  (void)token;
  return system_label(sys.kind);
}

}  // namespace

std::optional<std::vector<double>> heterogeneity_profile(std::string_view name,
                                                         std::size_t servers) {
  std::vector<double> speeds(servers, 0.0);
  if (name == "uniform") {
    for (double& s : speeds) s = 5.0;
  } else if (name == "paper") {
    // The §5.1 evaluation cluster: speeds 1,3,5,7,9, tiled to size.
    static constexpr double kPaper[] = {1.0, 3.0, 5.0, 7.0, 9.0};
    for (std::size_t i = 0; i < servers; ++i) speeds[i] = kPaper[i % 5];
  } else if (name == "bimodal") {
    for (std::size_t i = 0; i < servers; ++i) {
      speeds[i] = i < servers / 2 ? 1.0 : 9.0;
    }
  } else if (name == "extreme") {
    static constexpr double kExtreme[] = {1.0, 2.0, 4.0, 8.0, 16.0};
    for (std::size_t i = 0; i < servers; ++i) speeds[i] = kExtreme[i % 5];
  } else {
    return std::nullopt;
  }
  return speeds;
}

const std::vector<std::string>& heterogeneity_profile_names() {
  static const std::vector<std::string> kNames{"uniform", "paper", "bimodal",
                                              "extreme"};
  return kNames;
}

std::optional<SystemConfig> strategy_config(std::string_view token,
                                            const SystemConfig& base) {
  SystemConfig sys = base;
  if (token == "jsqdw" || token == "jsq-d-het") {
    sys.kind = SystemKind::kJsqD;
    sys.jsq.speed_aware = true;
    return sys;
  }
  const auto kind = parse_system_kind(token);
  if (!kind) return std::nullopt;
  sys.kind = *kind;
  // The plain token always means the uniform-sampling flavour, even if the
  // template config had speed_aware set.
  if (*kind == SystemKind::kJsqD) sys.jsq.speed_aware = false;
  return sys;
}

MatrixResult run_matrix(const MatrixConfig& config) {
  if (config.profiles.empty() || config.server_counts.empty() ||
      config.loads.empty() || config.strategies.empty()) {
    throw std::runtime_error("matrix: empty dimension");
  }
  for (const double load : config.loads) {
    if (!(load > 0.0 && load < 1.0)) {  // NaN included
      throw std::runtime_error("matrix: load must be in (0, 1)");
    }
  }
  // The config's membership script was checked against its own speeds; the
  // cells swap in other server counts, so check it against each of them
  // before the first cell runs.
  for (const std::size_t servers : config.server_counts) {
    std::string problem;
    if (invalid_membership_event(config.base.experiment.failures, servers,
                                 &problem)) {
      throw std::runtime_error("matrix: membership script cannot run on " +
                               std::to_string(servers) +
                               " servers: " + problem);
    }
  }
  // Resolve every profile and strategy token before the directory exists,
  // so a bad token costs no cell and leaves no file behind.
  std::vector<std::vector<double>> cluster_speeds;  // profile-major
  for (const std::string& profile : config.profiles) {
    for (const std::size_t servers : config.server_counts) {
      auto speeds = heterogeneity_profile(profile, servers);
      if (!speeds) {
        throw std::runtime_error("matrix: unknown profile: " + profile);
      }
      cluster_speeds.push_back(std::move(*speeds));
    }
  }
  std::vector<SystemConfig> systems;
  for (const std::string& strategy : config.strategies) {
    const auto sys = strategy_config(strategy, config.base.system);
    if (!sys) {
      throw std::runtime_error("matrix: unknown strategy: " + strategy);
    }
    systems.push_back(*sys);
  }
  std::error_code ec;
  std::filesystem::create_directories(config.out_dir, ec);
  if (ec) {
    throw std::runtime_error("matrix: cannot create " + config.out_dir + ": " +
                             ec.message());
  }

  // Cells run sequentially on the caller thread; all parallelism lives
  // inside run_experiment_batch's seed fan-out. MatrixResult is therefore
  // single-threaded state — no locking or ANU_GUARDED_BY applies (see
  // docs/static-analysis.md on the disjoint-slot/sequential-aggregation
  // pattern), and cell order is the deterministic loop-nest order.
  MatrixResult out;
  auto next_speeds = cluster_speeds.cbegin();
  for (const std::string& profile : config.profiles) {
    for (const std::size_t servers : config.server_counts) {
      const std::vector<double>& speeds = *next_speeds++;
      double capacity = 0.0;
      for (const double s : speeds) capacity += s;
      for (const double load : config.loads) {
        for (std::size_t k = 0; k < config.strategies.size(); ++k) {
          const SystemConfig& sys = systems[k];

          BatchConfig batch;
          batch.seeds = config.seeds;
          batch.jobs = config.jobs;
          batch.base_seed = config.base_seed;
          batch.spec = config.base;
          batch.spec.workload = SimSpec::WorkloadKind::kSynthetic;
          batch.spec.trace_file.clear();
          batch.spec.system = sys;
          batch.spec.experiment.cluster.server_speeds = speeds;
          workload::SyntheticConfig& w = batch.spec.synthetic;
          w.file_set_count = servers * config.file_sets_per_server;
          w.request_count = servers * config.requests_per_server;
          w.duration = config.duration;
          w.target_utilization = load;
          w.cluster_capacity = capacity;

          const BatchResult result = run_experiment_batch(batch);

          MatrixCell cell;
          cell.profile = profile;
          cell.servers = servers;
          cell.load = load;
          cell.strategy = strategy_label(config.strategies[k], sys);
          cell.file = cell_file_name(profile, servers, load, cell.strategy);
          cell.mean_latency_s = metric_mean(result, "mean_latency_s");
          cell.latency_cv = metric_mean(result, "latency_cv");
          cell.p99_s = metric_mean(result, "p99_s");
          cell.requests_completed = metric_mean(result, "requests_completed");

          const std::string path =
              (std::filesystem::path(config.out_dir) / cell.file).string();
          if (!write_batch_results_file(path, batch, result)) {
            throw std::runtime_error("matrix: cannot write " + path);
          }
          out.cells.push_back(std::move(cell));
        }
      }
    }
  }
  return out;
}

obs::Json matrix_summary_json(const MatrixConfig& config,
                              const MatrixResult& result) {
  obs::Json doc = obs::Json::object();
  doc.set("schema", "anu.matrix_summary");
  doc.set("schema_version", kMatrixSchemaVersion);
  doc.set("git", obs::git_describe());

  obs::Json cfg = obs::Json::object();
  obs::Json profiles = obs::Json::array();
  for (const std::string& p : config.profiles) profiles.push_back(p);
  cfg.set("profiles", std::move(profiles));
  obs::Json servers = obs::Json::array();
  for (const std::size_t k : config.server_counts) servers.push_back(k);
  cfg.set("server_counts", std::move(servers));
  obs::Json loads = obs::Json::array();
  for (const double u : config.loads) loads.push_back(u);
  cfg.set("loads", std::move(loads));
  obs::Json strategies = obs::Json::array();
  for (const std::string& s : config.strategies) strategies.push_back(s);
  cfg.set("strategies", std::move(strategies));
  cfg.set("seeds", config.seeds)
      .set("base_seed", config.base_seed)
      .set("requests_per_server", config.requests_per_server)
      .set("file_sets_per_server", config.file_sets_per_server)
      .set("duration_s", config.duration);
  doc.set("config", std::move(cfg));

  obs::Json cells = obs::Json::array();
  for (const MatrixCell& cell : result.cells) {
    obs::Json row = obs::Json::object();
    row.set("profile", cell.profile)
        .set("servers", cell.servers)
        .set("load", cell.load)
        .set("strategy", cell.strategy)
        .set("file", cell.file)
        .set("mean_latency_s", cell.mean_latency_s)
        .set("latency_cv", cell.latency_cv)
        .set("p99_s", cell.p99_s)
        .set("requests_completed", cell.requests_completed);
    cells.push_back(std::move(row));
  }
  doc.set("cells", std::move(cells));
  return doc;
}

bool write_matrix_summary_file(const std::string& path,
                               const MatrixConfig& config,
                               const MatrixResult& result) {
  std::ofstream os(path);
  if (!os) return false;
  matrix_summary_json(config, result).write_pretty(os);
  os << '\n';
  return static_cast<bool>(os);
}

void print_matrix_summary(std::ostream& os, const MatrixResult& result) {
  std::string scenario;
  for (const MatrixCell& cell : result.cells) {
    std::ostringstream key;
    key << cell.profile << "  k=" << cell.servers << "  load=" << cell.load;
    if (key.str() != scenario) {
      scenario = key.str();
      os << "\n== " << scenario << " ==\n";
      os << "  strategy            mean_s     cv       p99_s\n";
    }
    os << "  ";
    os.width(18);
    os.setf(std::ios::left, std::ios::adjustfield);
    os << cell.strategy;
    os.unsetf(std::ios::adjustfield);
    std::ostringstream row;
    row.setf(std::ios::fixed, std::ios::floatfield);
    row.precision(4);
    row << "  " << cell.mean_latency_s << "   " << cell.latency_cv << "   "
        << cell.p99_s;
    os << row.str() << "\n";
  }
}

}  // namespace anu::driver
