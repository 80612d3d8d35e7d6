// perfbench_sim — the simulator workloads of the repository benchmark.
//
//   perfbench_sim --workload paper_synthetic|protocol_churn|dispatch_redundancy
//                 --seed N --seconds S --trace 0|1
//   perfbench_sim --self-test
//
// Generates its inputs from --seed and times their set-up several times. A
// workload is a list of independent experiments; one pass runs each of them
// once through driver::run_experiment or driver::run_protocol_experiment,
// and passes repeat until S seconds have passed. With --trace 0 every pass
// is untraced and the end-to-end metrics are printed. With --trace 1
// untraced and traced passes alternate (TraceSink attached, balancer wrapped
// in TimedBalancer, routing replayed) and the per-layer metrics are printed.
// One JSON object is printed on the last line of stdout; run.py reads it.
//
// Every experiment's outputs are checked, and the simulated results must be
// bit-identical across passes, traced or not. Host times are those of the
// fastest run of each experiment (end-to-end) or of the fastest pass
// (per-layer): on a shared host, other tenants slow the program down by up
// to half in episodes of seconds, while a slower program slows every run.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "balance/redundancy_d.h"
#include "common/rng.h"
#include "core/anu_balancer.h"
#include "driver/paper.h"
#include "driver/protocol_experiment.h"
#include "faults/fault_plan.h"
#include "hash/hash_family.h"
#include "metrics/consistency.h"
#include "obs/trace_sink.h"
#include "percentile.h"
#include "timed_balancer.h"
#include "workload/synthetic.h"

using namespace anu;
using perfbench::JsonLine;
using SteadyClock = std::chrono::steady_clock;

namespace {

// paper_synthetic and dispatch_redundancy run the §5.1 experiment (66,401
// requests over 200 minutes on the paper cluster) kPaperRuns times, each
// with its own generator seed, so a pass takes about a second of host time
// and the latency quantiles rest on ~2M requests drawn from many file-set
// weightings rather than one.
constexpr std::uint64_t kPaperRuns = 30;
constexpr double kPaperRequests = 66'401.0;
constexpr double kPaperDuration = 200.0 * 60.0;
// Requests still queued at the end of the arrivals drain in this much extra
// simulated time, so every issued request completes.
constexpr SimTime kDrain = 600.0;

// protocol_churn: 64 servers cycling the paper speeds, 4096 file sets, the
// paper's per-request demand and utilization (so the arrival rate scales
// with capacity), 80 two-minute rounds. ANU starts from equal shares; the
// run is long enough that its first rounds do not set the latency tail.
constexpr std::size_t kChurnServers = 64;
constexpr std::size_t kChurnFileSets = 4096;
constexpr SimTime kChurnDuration = 80 * 120.0;
constexpr std::size_t kChurnFailures = 8;
constexpr SimTime kChurnDowntime = 240.0;
constexpr double kChurnLoss = 0.02;
// Faults and failures stop here, leaving rounds for replicas to converge.
constexpr double kChurnFaultFraction = 0.8;

constexpr int kSetupReps = 5;
constexpr std::size_t kTraceCapacity = std::size_t{1} << 20;

enum class Kind { kPaperSynthetic, kProtocolChurn, kDispatchRedundancy };

std::optional<Kind> parse_kind(const std::string& name) {
  if (name == "paper_synthetic") return Kind::kPaperSynthetic;
  if (name == "protocol_churn") return Kind::kProtocolChurn;
  if (name == "dispatch_redundancy") return Kind::kDispatchRedundancy;
  return std::nullopt;
}

// Replayed lookups store their results here so they are not optimized out.
volatile std::uint64_t g_sink = 0;

/// A check failure: reported on stderr, counted, and fatal to the run.
int g_check_failures = 0;
void check(bool ok, const std::string& what) {
  if (ok) return;
  std::fprintf(stderr, "perfbench_sim: check failed: %s\n", what.c_str());
  ++g_check_failures;
}

/// One experiment's generated inputs. The balancer and fault plan are
/// stateful, so they are built afresh for every run (see Prepared).
struct Experiment {
  workload::Workload workload;
  driver::ExperimentConfig experiment;
  driver::ProtocolExperimentConfig protocol;
  faults::FaultPlanConfig faults;
};

struct Prepared {
  std::unique_ptr<balance::LoadBalancer> balancer;
  std::unique_ptr<faults::FaultPlan> faults;
};

Experiment paper_experiment(std::uint64_t seed) {
  Experiment e;
  workload::SyntheticConfig synth;
  synth.seed = seed;
  e.workload = workload::make_synthetic_workload(synth);
  e.experiment = driver::paper_experiment_config();
  e.experiment.horizon = e.workload.span() + kDrain;
  return e;
}

Experiment churn_experiment(std::uint64_t seed) {
  Experiment e;
  std::vector<double> speeds;
  double capacity = 0.0;
  for (std::size_t s = 0; s < kChurnServers; ++s) {
    speeds.push_back(1.0 + 2.0 * static_cast<double>(s % 5));
    capacity += speeds.back();
  }
  workload::SyntheticConfig synth;
  synth.seed = seed;
  synth.file_set_count = kChurnFileSets;
  synth.cluster_capacity = capacity;
  synth.duration = kChurnDuration;
  synth.request_count = static_cast<std::size_t>(
      kPaperRequests / kPaperDuration * (capacity / 25.0) * kChurnDuration);
  e.workload = workload::make_synthetic_workload(synth);

  const SimTime fault_end = kChurnDuration * kChurnFaultFraction;
  e.protocol.cluster.server_speeds = speeds;
  e.protocol.horizon = e.workload.span() + kDrain;
  e.protocol.failures = cluster::FailureSchedule::random_fail_recover(
      substream_seed(seed, 1), kChurnServers, kChurnFailures, fault_end,
      kChurnDowntime);
  e.faults.loss = kChurnLoss;
  e.faults.end = fault_end;
  e.faults.seed = substream_seed(seed, 2);
  return e;
}

std::vector<Experiment> make_inputs(Kind kind, std::uint64_t seed) {
  std::vector<Experiment> inputs;
  if (kind == Kind::kProtocolChurn) {
    inputs.push_back(churn_experiment(seed));
    return inputs;
  }
  for (std::uint64_t k = 0; k < kPaperRuns; ++k) {
    inputs.push_back(paper_experiment(substream_seed(seed, k)));
  }
  return inputs;
}

Prepared prepare(Kind kind, const Experiment& e) {
  Prepared p;
  switch (kind) {
    case Kind::kPaperSynthetic:
      p.balancer = std::make_unique<core::AnuBalancer>(
          core::AnuConfig{}, e.experiment.cluster.server_speeds.size());
      break;
    case Kind::kDispatchRedundancy:
      p.balancer = std::make_unique<balance::RedundancyDBalancer>(
          balance::RedundancyDConfig{},
          e.experiment.cluster.server_speeds.size());
      break;
    case Kind::kProtocolChurn:
      p.faults = std::make_unique<faults::FaultPlan>(e.faults);
      break;
  }
  return p;
}

/// Per-layer figures only a traced pass produces, summed over its
/// experiments.
struct Layers {
  std::vector<std::uint32_t> dispatch_ns;
  std::vector<std::uint32_t> tune_ns;
  std::uint64_t tune_moves = 0;
  std::uint64_t balancer_ns = 0;
  std::uint64_t probes = 0;
  std::uint64_t probed_routes = 0;
  // Routing replay over every live replica x file set (protocol_churn).
  double route_ns_mean = 0.0;
  double route_ns_p99 = 0.0;
  std::uint64_t map_applies = 0;
  std::uint64_t trace_events = 0;
  std::uint64_t trace_dropped = 0;
};

/// One pass over every experiment of a workload.
struct Pass {
  std::vector<driver::ExperimentResult> results;  // kept for the first pass
  std::vector<std::vector<double>> fingerprints;
  // Host seconds of each run_* call, minus the on_finish checks, and their
  // total.
  std::vector<double> walls;
  double wall_s = 0.0;
  Layers layers;
};

std::uint64_t counter(const driver::ExperimentResult& r, const char* name) {
  for (const auto& [key, value] : r.balance.counters) {
    if (key == name) return value;
  }
  return 0;
}

/// Every simulated output a speed-only change must leave unchanged.
std::vector<double> fingerprint(const driver::ExperimentResult& r) {
  std::vector<double> f{static_cast<double>(r.requests_issued),
                        static_cast<double>(r.requests_completed),
                        static_cast<double>(r.events_executed),
                        static_cast<double>(r.tuning_rounds),
                        static_cast<double>(r.total_moved),
                        r.percent_workload_moved,
                        r.aggregate.mean(),
                        r.latency_histogram.quantile(0.5),
                        r.latency_histogram.quantile(0.99),
                        r.latency_histogram.quantile(0.999),
                        static_cast<double>(r.control_plane.messages_sent),
                        static_cast<double>(r.control_plane.drops_injected)};
  for (std::size_t s = 0; s < r.server_count; ++s) {
    f.push_back(static_cast<double>(r.served[s]));
    f.push_back(r.per_server[s].mean());
    f.push_back(r.utilization[s]);
  }
  for (const auto& [key, value] : r.balance.counters) {
    f.push_back(static_cast<double>(value));
  }
  return f;
}

void check_result(Kind kind, const driver::ExperimentResult& r) {
  std::uint64_t served = 0;
  for (std::uint64_t s : r.served) served += s;
  check(served == r.requests_completed,
        "per-server served counts sum to requests_completed");
  check(r.requests_completed <= r.requests_issued,
        "requests_completed <= requests_issued");
  check(r.requests_issued > 0, "requests were issued");
  if (kind == Kind::kDispatchRedundancy) {
    // Every replica a decision asked for was either submitted or elided,
    // and every submitted replica won (one per completed request), was
    // cancelled, or was still in flight at the horizon.
    const std::uint64_t submitted = counter(r, "replicas_submitted");
    const std::uint64_t ended = r.requests_completed +
                                counter(r, "replicas_cancelled_queued") +
                                counter(r, "replicas_cancelled_in_service");
    check(counter(r, "dispatches") == r.requests_issued,
          "one dispatch per issued request");
    check(submitted + counter(r, "replicas_elided") ==
              counter(r, "replicas_requested"),
          "replicas submitted + elided == replicas requested");
    check(ended <= submitted, "replica outcomes <= replicas submitted");
    check(submitted - ended <=
              (r.requests_issued - r.requests_completed) *
                  balance::DispatchDecision::kMaxTargets,
          "replicas in flight only for unfinished requests");
  }
  if (kind == Kind::kProtocolChurn) {
    const auto& cp = r.control_plane;
    check(cp.acks_received <= cp.reliable_sent + cp.retransmits,
          "acks_received <= reliable_sent + retransmits");
    check(cp.messages_delivered <= cp.messages_sent,
          "messages delivered <= sent");
    check(cp.drops_injected > 0, "message loss was injected");
  }
}

/// Checks the protocol's end state and, when `layers` is set, replays
/// route_from over every live replica x file set.
void finish_protocol(const proto::ProtocolCluster& protocol,
                     const proto::Network& network,
                     const workload::Workload& workload,
                     const proto::ProtocolConfig& config, Layers* layers) {
  check(protocol.replicas_agree(), "replicas agree at the horizon");
  protocol.map_of(protocol.delegate()).check_invariants();
  std::vector<std::uint32_t> live;
  for (std::uint32_t s = 0; s < network.node_count(); ++s) {
    if (network.node_up(s)) live.push_back(s);
  }
  check(!live.empty(), "a live server at the horizon");
  for (std::uint32_t node : live) {
    check(protocol.version_of(node) > 0, "every live replica applied a map");
    for (const workload::FileSet& fs : workload.file_sets()) {
      const ServerId owner = protocol.route_from(node, fs.name);
      if (!network.node_up(owner.value())) {
        check(false, fs.name + " routes to a down server from replica " +
                         std::to_string(node));
      }
    }
  }
  if (layers == nullptr) return;

  const std::size_t calls = live.size() * workload.file_set_count();
  std::uint64_t sink = 0;
  const auto batch_start = SteadyClock::now();
  for (std::uint32_t node : live) {
    for (const workload::FileSet& fs : workload.file_sets()) {
      sink += protocol.route_from(node, fs.name).value();
    }
  }
  layers->route_ns_mean =
      static_cast<double>(perfbench::ns_since(batch_start)) /
      static_cast<double>(calls);
  std::vector<std::uint32_t> per_call;
  per_call.reserve(calls);
  const HashFamily family(config.hash_seed);
  for (std::uint32_t node : live) {
    const core::RegionMap& map = protocol.map_of(node);
    for (const workload::FileSet& fs : workload.file_sets()) {
      const auto start = SteadyClock::now();
      sink += protocol.route_from(node, fs.name).value();
      per_call.push_back(
          static_cast<std::uint32_t>(perfbench::ns_since(start)));
      for (std::uint32_t round = 0; round < config.max_probe_rounds; ++round) {
        ++layers->probes;
        if (map.owner_at(family.unit_point(fs.name, round))) break;
      }
      ++layers->probed_routes;
    }
  }
  layers->route_ns_p99 = perfbench::quantile(per_call, 0.99);
  g_sink = sink;
}

/// Runs one experiment; returns the host seconds of the run_* call.
double run_one(Kind kind, const Experiment& e, obs::TraceSink* trace,
               Layers* layers, driver::ExperimentResult& result) {
  Prepared prepared = prepare(kind, e);
  double finish_s = 0.0;
  const auto start = SteadyClock::now();
  if (kind == Kind::kProtocolChurn) {
    driver::ProtocolExperimentConfig config = e.protocol;
    config.faults = prepared.faults.get();
    config.trace = trace;
    config.on_finish = [&](const proto::ProtocolCluster& protocol,
                           const proto::Network& network) {
      const auto finish_start = SteadyClock::now();
      finish_protocol(protocol, network, e.workload, config.protocol, layers);
      finish_s = perfbench::seconds_since(finish_start);
    };
    result = driver::run_protocol_experiment(config, e.workload);
  } else if (layers != nullptr) {
    driver::ExperimentConfig config = e.experiment;
    config.trace = trace;
    perfbench::TimedBalancer timed(*prepared.balancer);
    result = driver::run_experiment(config, e.workload, timed);
    layers->dispatch_ns.insert(layers->dispatch_ns.end(),
                               timed.dispatch_ns.begin(),
                               timed.dispatch_ns.end());
    layers->tune_ns.insert(layers->tune_ns.end(), timed.tune_ns.begin(),
                           timed.tune_ns.end());
    layers->tune_moves += timed.tune_moves;
    layers->balancer_ns += timed.total_ns;
  } else {
    result = driver::run_experiment(e.experiment, e.workload,
                                    *prepared.balancer);
  }
  const double wall_s = perfbench::seconds_since(start) - finish_s;

  if (kind == Kind::kPaperSynthetic) {
    const auto& anu = static_cast<const core::AnuBalancer&>(*prepared.balancer);
    anu.region_map().check_invariants();
    if (layers != nullptr) {
      for (const workload::FileSet& fs : e.workload.file_sets()) {
        layers->probes += anu.locate(fs.name).probes;
        ++layers->probed_routes;
      }
    }
  }
  return wall_s;
}

/// One pass over every experiment; traced passes attach a TraceSink and
/// time the balancer, so their results must equal the untraced ones.
Pass run_pass(Kind kind, const std::vector<Experiment>& inputs, bool traced) {
  Pass pass;
  for (const Experiment& e : inputs) {
    std::optional<obs::TraceSink> sink;
    if (traced) {
      // protocol_churn counts map applies from the trace, so its sink holds
      // the whole run; the other workloads keep the default ring.
      sink.emplace(kind == Kind::kProtocolChurn
                       ? 2 * e.workload.request_count() + kTraceCapacity
                       : kTraceCapacity);
    }
    obs::TraceSink* const trace = sink ? &*sink : nullptr;
    driver::ExperimentResult result;
    pass.walls.push_back(run_one(kind, e, trace,
                                 traced ? &pass.layers : nullptr, result));
    pass.wall_s += pass.walls.back();
    if (trace != nullptr) {
      pass.layers.trace_events += trace->emitted();
      pass.layers.trace_dropped += trace->dropped();
      if (kind == Kind::kProtocolChurn) {
        trace->for_each([&](const obs::TraceEvent& event) {
          if (event.type == obs::EventType::kMapApply) {
            ++pass.layers.map_applies;
          }
        });
        check(trace->dropped() == 0, "the trace held the whole protocol run");
      }
    }
    check_result(kind, result);
    pass.fingerprints.push_back(fingerprint(result));
    pass.results.push_back(std::move(result));
  }
  return pass;
}

/// Quantile of a LogHistogram, interpolated log-linearly inside the bucket
/// that holds it. LogHistogram::quantile returns bucket midpoints, a grid
/// 12% apart, on which a small change reads as zero or as a whole step.
double histogram_quantile(const LogHistogram& h, double q) {
  const double target = q * static_cast<double>(h.count());
  double cum = 0.0;
  for (std::size_t i = 0; i < h.bucket_count(); ++i) {
    const auto count = static_cast<double>(h.bucket(i));
    if (count > 0.0 && cum + count >= target) {
      const double lo = std::log10(h.bucket_lower(i));
      const double hi = std::log10(h.bucket_lower(i + 1));
      return std::pow(10.0, lo + (target - cum) / count * (hi - lo));
    }
    cum += count;
  }
  return 0.0;
}

double mean_ns(const std::vector<std::uint32_t>& samples) {
  if (samples.empty()) return 0.0;
  double total = 0.0;
  for (std::uint32_t s : samples) total += s;
  return total / static_cast<double>(samples.size());
}

const Pass& fastest(const std::vector<Pass>& passes) {
  return *std::min_element(
      passes.begin(), passes.end(),
      [](const Pass& a, const Pass& b) { return a.wall_s < b.wall_s; });
}

int run(Kind kind, const std::string& name, std::uint64_t seed,
        double seconds, bool trace) {
  // Set-up: input synthesis plus balancer / schedule / fault-plan
  // construction, repeated; the median is reported.
  std::vector<double> setup_s;
  std::vector<double> gen_s;
  std::vector<Experiment> inputs;
  for (int i = 0; i < kSetupReps; ++i) {
    inputs.clear();
    const auto start = SteadyClock::now();
    inputs = make_inputs(kind, seed);
    gen_s.push_back(perfbench::seconds_since(start));
    for (const Experiment& e : inputs) {
      const Prepared prepared = prepare(kind, e);
    }
    setup_s.push_back(perfbench::seconds_since(start));
  }

  // Measure: repeat passes until `seconds` have passed; at least two of
  // each kind, so bit-identity is always checked.
  std::vector<Pass> plain;
  std::vector<Pass> traced;
  const auto measure_start = SteadyClock::now();
  while (perfbench::seconds_since(measure_start) < seconds ||
         plain.size() < 2 || (trace && traced.size() < 2)) {
    plain.push_back(run_pass(kind, inputs, false));
    if (trace) traced.push_back(run_pass(kind, inputs, true));
    // Keep the first pass's results and per-call samples; later passes need
    // only their timings and fingerprints.
    if (plain.size() > 1) plain.back().results.clear();
    if (traced.size() > 1) {
      traced.back().results.clear();
      traced.back().layers.dispatch_ns = {};
      traced.back().layers.tune_ns = {};
    }
  }
  bool identical = true;
  for (const auto* passes : {&plain, &traced}) {
    for (const Pass& pass : *passes) {
      identical = identical &&
                  pass.fingerprints == plain.front().fingerprints;
    }
  }
  check(identical, "simulated results bit-identical across passes");

  // Totals over the first pass's experiments.
  const std::vector<driver::ExperimentResult>& results = plain.front().results;
  double issued = 0.0;
  double completed = 0.0;
  LogHistogram latency = results.front().latency_histogram;
  for (std::size_t i = 0; i < results.size(); ++i) {
    issued += static_cast<double>(results[i].requests_issued);
    completed += static_cast<double>(results[i].requests_completed);
    if (i > 0) latency.merge(results[i].latency_histogram);
  }
  // Each experiment's fastest run, summed.
  double best_s = 0.0;
  for (std::size_t k = 0; k < inputs.size(); ++k) {
    double best = plain.front().walls[k];
    for (const Pass& pass : plain) best = std::min(best, pass.walls[k]);
    best_s += best;
  }

  JsonLine out;
  out.str("workload", name)
      .num("seed", static_cast<double>(seed))
      .num("check_failures", g_check_failures)
      .num("attempted", issued)
      .num("failed", issued - completed)
      .num("passes", static_cast<double>(plain.size()));
  if (!trace) {
    out.num("requests_per_s", completed / best_s)
        .num("setup_s", perfbench::median(setup_s))
        .num("latency_p50_ms", histogram_quantile(latency, 0.5) * 1e3)
        .num("latency_p90_ms", histogram_quantile(latency, 0.9) * 1e3);
    out.print();
    return g_check_failures == 0 ? 0 : 1;
  }

  // Per-layer metrics. Timings come from the fastest traced pass; counts
  // from the first (they repeat exactly).
  const Pass& t = fastest(traced);
  const Layers& first = traced.front().layers;
  const double run_s = t.wall_s;
  std::vector<double> consistency;
  std::vector<double> moved_pct;
  std::uint64_t executed = 0;
  std::uint64_t cancelled_skipped = 0;
  std::uint64_t max_pending = 0;
  std::uint64_t slab_high_water = 0;
  std::uint64_t rung_spills = 0;
  std::uint64_t tuning_rounds = 0;
  double util_max = 0.0;
  for (const driver::ExperimentResult& r : results) {
    consistency.push_back(
        metrics::performance_consistency(r.per_server).latency_cv);
    moved_pct.push_back(r.percent_workload_moved);
    executed += r.queue.executed;
    cancelled_skipped += r.queue.cancelled_skipped;
    max_pending = std::max<std::uint64_t>(max_pending, r.queue.max_pending);
    slab_high_water =
        std::max<std::uint64_t>(slab_high_water, r.queue.slab_high_water);
    rung_spills += r.queue.rung_spills;
    tuning_rounds += r.tuning_rounds;
    for (double u : r.utilization) util_max = std::max(util_max, u);
  }
  std::size_t requests = 0;
  for (const Experiment& e : inputs) requests += e.workload.request_count();

  out.num("workload.gen_s", perfbench::median(gen_s))
      .num("workload.requests", static_cast<double>(requests))
      .num("driver.run_s", run_s)
      .num("sim.events_per_request", static_cast<double>(executed) / completed)
      .num("sim.cancelled_skipped", static_cast<double>(cancelled_skipped))
      .num("sim.max_pending", static_cast<double>(max_pending))
      .num("sim.slab_high_water", static_cast<double>(slab_high_water))
      .num("sim.rung_spills", static_cast<double>(rung_spills))
      .num("cluster.utilization_max", util_max)
      .num("metrics.latency_p99_ms", histogram_quantile(latency, 0.99) * 1e3)
      .num("metrics.latency_samples", static_cast<double>(latency.count()))
      .num("metrics.server_latency_cv", perfbench::median(consistency))
      .num("obs.trace_overhead_pct",
           (run_s / fastest(plain).wall_s - 1.0) * 100.0);

  if (kind != Kind::kDispatchRedundancy) {
    out.num("hash.probes_per_route",
            static_cast<double>(first.probes) /
                static_cast<double>(first.probed_routes));
  }
  double attributed_ns = 0.0;
  if (kind != Kind::kProtocolChurn) {
    std::vector<std::uint32_t> dispatch = first.dispatch_ns;
    std::vector<std::uint32_t> tune = first.tune_ns;
    attributed_ns = static_cast<double>(t.layers.balancer_ns);
    const double tunes = static_cast<double>(tune.size());
    out.num("balance.dispatch.calls", static_cast<double>(dispatch.size()))
        .num("balance.dispatch.ns_mean", mean_ns(dispatch))
        .num("balance.dispatch.ns_p99", perfbench::quantile(dispatch, 0.99))
        .num("balance.share_of_run", attributed_ns * 1e-9 / run_s);
    if (kind == Kind::kPaperSynthetic) {
      out.num("core.tune.calls", tunes)
          .num("core.tune.ns_mean", mean_ns(tune))
          .num("core.tune.ns_p99", perfbench::quantile(tune, 0.99))
          .num("core.tune.moves_per_round",
               static_cast<double>(first.tune_moves) / tunes)
          .num("core.workload_moved_pct", perfbench::median(moved_pct));
    } else {
      double submitted = 0.0;
      double cancelled_in_service = 0.0;
      for (const driver::ExperimentResult& r : results) {
        submitted += static_cast<double>(counter(r, "replicas_submitted"));
        cancelled_in_service += static_cast<double>(
            counter(r, "replicas_cancelled_in_service"));
      }
      out.num("cluster.replicas_per_request", submitted / issued)
          .num("cluster.replica_useful_ratio", completed / submitted)
          .num("cluster.cancelled_in_service", cancelled_in_service);
    }
  } else {
    const driver::ExperimentResult& r = results.front();
    const auto& cp = r.control_plane;
    const double rounds =
        static_cast<double>(std::max<std::uint64_t>(tuning_rounds, 1));
    const double file_sets =
        static_cast<double>(inputs.front().workload.file_set_count());
    // Every request is routed once on a contact replica, and every applied
    // map re-routes each file set on the applying node.
    const double route_calls =
        issued + static_cast<double>(first.map_applies) * file_sets;
    attributed_ns = route_calls * t.layers.route_ns_mean;
    out.num("core.workload_moved_pct", r.percent_workload_moved)
        .num("core.route.calls", route_calls)
        .num("core.route.ns_mean", t.layers.route_ns_mean)
        .num("core.route.ns_p99", t.layers.route_ns_p99)
        .num("core.route.share_of_run", attributed_ns * 1e-9 / run_s)
        .num("proto.map_applies", static_cast<double>(first.map_applies))
        .num("proto.retunes", static_cast<double>(tuning_rounds))
        .num("proto.messages_per_round",
             static_cast<double>(cp.messages_sent) / rounds)
        .num("proto.bytes_per_round", static_cast<double>(cp.bytes_sent) / rounds)
        .num("proto.delivery_ratio", static_cast<double>(cp.messages_delivered) /
                                         static_cast<double>(cp.messages_sent))
        .num("proto.retransmits", static_cast<double>(cp.retransmits))
        .num("proto.duplicates_suppressed",
             static_cast<double>(cp.duplicates_suppressed))
        .num("proto.retries_abandoned",
             static_cast<double>(cp.retries_abandoned))
        .num("faults.drops_injected", static_cast<double>(cp.drops_injected))
        .num("faults.duplicates_injected",
             static_cast<double>(cp.duplicates_injected));
  }
  out.num("obs.trace_events", static_cast<double>(first.trace_events))
      .num("obs.trace_dropped", static_cast<double>(first.trace_dropped));
  out.num("driver.self_ns_per_request",
          (run_s * 1e9 - attributed_ns) / completed);
  out.print();
  return g_check_failures == 0 ? 0 : 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_sim --workload NAME --seed N --seconds S "
               "--trace 0|1\n       perfbench_sim --self-test\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string name;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--self-test") return perfbench::self_test() == 0 ? 0 : 1;
    if (i + 1 >= argc) return usage();
    const char* value = argv[++i];
    if (arg == "--workload") {
      name = value;
    } else if (arg == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--seconds") {
      seconds = std::atof(value);
    } else if (arg == "--trace") {
      trace = std::atoi(value);
    } else {
      return usage();
    }
  }
  const auto kind = parse_kind(name);
  if (!kind || seconds <= 0.0 || (trace != 0 && trace != 1)) return usage();
  return run(*kind, name, seed, seconds, trace == 1);
}
