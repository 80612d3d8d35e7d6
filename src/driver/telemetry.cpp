#include "driver/telemetry.h"

#include <fstream>

#include "cluster/failure_schedule.h"
#include "obs/build_info.h"

namespace anu::driver {

namespace {

using obs::Json;

Json stats_json(const RunningStats& s) {
  Json o = Json::object();
  o.set("count", s.count())
      .set("mean_s", s.mean())
      .set("stddev_s", s.stddev())
      .set("min_s", s.min())
      .set("max_s", s.max());
  return o;
}

Json histogram_json(const LogHistogram& h) {
  Json buckets = Json::array();
  for (std::size_t i = 0; i < h.bucket_count(); ++i) {
    if (h.bucket(i) == 0) continue;  // sparse: zero buckets are implicit
    Json b = Json::object();
    b.set("lower_s", h.bucket_lower(i)).set("count", h.bucket(i));
    buckets.push_back(std::move(b));
  }
  Json o = Json::object();
  o.set("count", h.count()).set("buckets", std::move(buckets));
  return o;
}

Json workload_json(const SimSpec& spec) {
  Json o = Json::object();
  if (spec.workload == SimSpec::WorkloadKind::kSynthetic) {
    const workload::SyntheticConfig& c = spec.synthetic;
    o.set("kind", workload_kind_name(spec.workload))
        .set("seed", c.seed)
        .set("file_sets", c.file_set_count)
        .set("requests", c.request_count)
        .set("duration_s", c.duration)
        .set("target_utilization", c.target_utilization)
        .set("pareto_shape", c.pareto_shape)
        .set("weight_lo", c.weight_lo)
        .set("weight_hi", c.weight_hi)
        .set("demand_jitter_sigma", c.demand_jitter_sigma);
  } else if (!spec.trace_file.empty()) {
    o.set("kind", "trace_file").set("path", spec.trace_file);
  } else {
    const workload::TraceSynthConfig& c = spec.trace;
    o.set("kind", workload_kind_name(spec.workload))
        .set("seed", c.seed)
        .set("file_sets", c.file_set_count)
        .set("requests", c.request_count)
        .set("duration_s", c.duration)
        .set("target_utilization", c.target_utilization)
        .set("zipf_exponent", c.zipf_exponent)
        .set("pareto_shape", c.pareto_shape)
        .set("demand_jitter_sigma", c.demand_jitter_sigma);
  }
  return o;
}

Json system_json(const SystemConfig& c) {
  Json o = Json::object();
  o.set("label", system_label(c.kind));
  switch (c.kind) {
    case SystemKind::kAnu:
      o.set("hash_seed", c.anu.hash_seed)
          .set("placement_choices", c.anu.placement_choices);
      break;
    case SystemKind::kVirtualProcessor:
      o.set("vp_per_server", c.vp.vp_per_server)
          .set("hash_seed", c.vp.hash_seed);
      break;
    case SystemKind::kSimpleRandom:
      o.set("hash_seed", c.simple_hash_seed);
      break;
    case SystemKind::kDynPrescient:
      break;
    case SystemKind::kJsqD:
      o.set("d", c.jsq.d)
          .set("speed_aware", c.jsq.speed_aware)
          .set("seed", c.jsq.seed);
      break;
    case SystemKind::kJoinIdleQueue:
      o.set("policy", balance::jiq_policy_name(c.jiq.policy))
          .set("weighted_fallback", c.jiq.weighted_fallback)
          .set("seed", c.jiq.seed);
      break;
    case SystemKind::kRedundancyD:
      o.set("d", c.red.d)
          .set("cancel", balance::cancel_mode_name(c.red.cancel))
          .set("speed_aware", c.red.speed_aware)
          .set("seed", c.red.seed);
      break;
  }
  return o;
}

Json config_json(const SimSpec& spec) {
  const ExperimentConfig& e = spec.experiment;
  Json o = Json::object();
  o.set("workload", workload_json(spec));
  o.set("system", system_json(spec.system));

  Json speeds = Json::array();
  for (const double s : e.cluster.server_speeds) speeds.push_back(s);
  Json cluster = Json::object();
  cluster.set("speeds", std::move(speeds));
  Json cache = Json::object();
  cache.set("enabled", e.cluster.cache.enabled)
      .set("warmup_requests", e.cluster.cache.warmup_requests)
      .set("cold_penalty_factor", e.cluster.cache.cold_penalty_factor);
  cluster.set("cache", std::move(cache));
  o.set("cluster", std::move(cluster));

  o.set("tuning_interval_s", e.tuning_interval)
      .set("control_delay_s", e.control_delay)
      .set("move_penalty_s", e.move_warmup_penalty)
      .set("horizon_s", e.horizon)
      .set("oracle_lookahead", e.oracle_lookahead);

  Json membership = Json::array();
  for (const cluster::MembershipEvent& ev : e.failures.events()) {
    Json m = Json::object();
    m.set("t_s", ev.when).set("action", cluster::action_name(ev.action));
    if (ev.action == cluster::MembershipAction::kAdd) {
      m.set("speed", ev.speed);
    } else {
      m.set("server", ev.server.value());
      if (ev.action == cluster::MembershipAction::kDegrade) {
        m.set("factor", ev.factor);
      }
    }
    membership.push_back(std::move(m));
  }
  o.set("membership", std::move(membership));
  return o;
}

Json result_json(const ExperimentResult& r) {
  Json o = Json::object();
  o.set("server_count", r.server_count)
      .set("horizon_s", r.horizon)
      .set("requests_issued", r.requests_issued)
      .set("requests_completed", r.requests_completed)
      .set("events_executed", r.events_executed)
      .set("tuning_rounds", r.tuning_rounds)
      .set("shared_state_bytes", r.shared_state_bytes);
  Json queue = Json::object();
  queue.set("scheduled", r.queue.scheduled)
      .set("executed", r.queue.executed)
      .set("cancelled_skipped", r.queue.cancelled_skipped)
      .set("max_pending", r.queue.max_pending)
      .set("slab_high_water", r.queue.slab_high_water)
      .set("max_simultaneous", r.queue.max_simultaneous)
      .set("rung_spills", r.queue.rung_spills)
      .set("top_transfers", r.queue.top_transfers)
      .set("bottom_sorts", r.queue.bottom_sorts);
  o.set("sim.queue", std::move(queue));
  // Strategy identity + per-strategy counters (docs/strategies.md lists
  // each strategy's counter set). Absent for drivers that predate the
  // block (protocol/chaos runs leave the strategy name empty).
  if (!r.balance.strategy.empty()) {
    Json balance = Json::object();
    balance.set("strategy", r.balance.strategy)
        .set("per_request", r.balance.per_request);
    Json counters = Json::object();
    for (const auto& [key, value] : r.balance.counters) {
      counters.set(key, value);
    }
    balance.set("counters", std::move(counters));
    o.set("balance", std::move(balance));
  }
  o.set("aggregate", stats_json(r.aggregate));
  o.set("steady_state", stats_json(r.steady_state));
  o.set("latency_histogram", histogram_json(r.latency_histogram));

  Json per_server = Json::array();
  for (std::size_t s = 0; s < r.per_server.size(); ++s) {
    Json p = Json::object();
    p.set("server", s).set("requests", r.served[s]);
    p.set("latency", stats_json(r.per_server[s]));
    if (s < r.utilization.size()) p.set("utilization", r.utilization[s]);
    per_server.push_back(std::move(p));
  }
  o.set("per_server", std::move(per_server));

  Json shares = Json::array();
  for (const ExperimentResult::ShareSample& sample : r.shares_over_time) {
    Json row = Json::object();
    Json share = Json::array();
    for (const double v : sample.share) share.push_back(v);
    row.set("t_s", sample.when).set("share", std::move(share));
    shares.push_back(std::move(row));
  }
  o.set("shares_over_time", std::move(shares));

  Json movement = Json::object();
  Json rounds = Json::array();
  for (const metrics::MovementTracker::Round& round : r.movement) {
    Json row = Json::object();
    row.set("t_s", round.when)
        .set("moved", round.moved)
        .set("moved_weight", round.moved_weight)
        .set("cumulative", round.cumulative)
        .set("cumulative_pct", round.cumulative_pct);
    rounds.push_back(std::move(row));
  }
  movement.set("rounds", std::move(rounds))
      .set("total_moved", r.total_moved)
      .set("unique_moved", r.unique_moved)
      .set("percent_workload_moved", r.percent_workload_moved)
      .set("percent_unique_workload_moved", r.percent_unique_workload_moved);
  o.set("movement", std::move(movement));

  // Message/retry accounting (protocol experiments; all-zero otherwise).
  // docs/chaos.md documents the reconciliation identities over this block.
  const ExperimentResult::ControlPlaneStats& cp = r.control_plane;
  Json control = Json::object();
  control.set("messages_sent", cp.messages_sent)
      .set("messages_delivered", cp.messages_delivered)
      .set("drops_endpoint_down", cp.drops_endpoint_down)
      .set("drops_injected", cp.drops_injected)
      .set("duplicates_injected", cp.duplicates_injected)
      .set("bytes_sent", cp.bytes_sent)
      .set("reliable_sent", cp.reliable_sent)
      .set("retransmits", cp.retransmits)
      .set("acks_received", cp.acks_received)
      .set("duplicates_suppressed", cp.duplicates_suppressed)
      .set("retries_abandoned", cp.retries_abandoned);
  o.set("control_plane", std::move(control));
  return o;
}

}  // namespace

// Reads the TraceSink's counters without locking: the sink is not
// internally synchronized (trace_sink.h documents the exclusive-ownership
// contract), so callers must only pass a sink whose run has completed —
// the experiment barrier, not a mutex, is what makes these reads safe.
Json manifest_json(const SimSpec& spec, const ExperimentResult& result,
                   const obs::TraceSink* trace) {
  Json root = Json::object();
  root.set("schema_version", kManifestSchemaVersion);

  Json generator = Json::object();
  generator.set("tool", "anu_sim").set("git", obs::git_describe());
  root.set("generator", std::move(generator));

  root.set("config", config_json(spec));
  root.set("result", result_json(result));

  Json tr = Json::object();
  tr.set("emitted", trace ? trace->emitted() : std::size_t{0})
      .set("retained", trace ? trace->size() : std::size_t{0})
      .set("dropped", trace ? trace->dropped() : std::size_t{0});
  root.set("trace", std::move(tr));
  return root;
}

bool write_manifest_file(const std::string& path, const SimSpec& spec,
                         const ExperimentResult& result,
                         const obs::TraceSink* trace) {
  std::ofstream f(path);
  if (!f) return false;
  manifest_json(spec, result, trace).write_pretty(f);
  f << '\n';
  return static_cast<bool>(f);
}

}  // namespace anu::driver
