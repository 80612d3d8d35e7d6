#include "driver/experiment.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <optional>

#include "common/assert.h"
#include "common/clock.h"
#include "driver/request_loop.h"
#include "sim/simulation.h"

namespace anu::driver {

namespace {

/// Per-interval per-file-set offered demand, read ahead from the schedule —
/// the "perfect knowledge of workload properties" of §5.1.
std::vector<std::vector<double>> lookahead_demands(
    const workload::Workload& w, SimTime interval, SimTime horizon) {
  const auto intervals =
      static_cast<std::size_t>(std::ceil(horizon / interval)) + 1;
  std::vector<std::vector<double>> demand(
      intervals, std::vector<double>(w.file_set_count(), 0.0));
  for (const workload::Request& r : w.requests()) {
    auto slot = static_cast<std::size_t>(r.arrival / interval);
    slot = std::min(slot, intervals - 1);
    demand[slot][r.file_set.value()] += r.demand;
  }
  return demand;
}

// Replica job-id layout (see ReplicaManager in run_experiment): the low
// kReplicaIndexBits hold the replica's index within its group.
constexpr std::uint32_t kReplicaIndexBits = 3;
static_assert(balance::DispatchDecision::kMaxTargets <=
              1u << kReplicaIndexBits);
constexpr std::uint32_t kNoSlot = 0xffffffffu;

}  // namespace

ExperimentResult run_experiment(const ExperimentConfig& config,
                                const workload::Workload& workload,
                                balance::LoadBalancer& balancer) {
  ANU_REQUIRE(config.tuning_interval > 0.0);

  sim::Simulation sim;
  // Attach the sink before the loop builds the cluster so the initial
  // server_add roster lands in the trace.
  obs::TraceSink* const trace = config.trace;
  sim.set_trace(trace);
  RequestLoop loop(sim, config.cluster, workload, config.horizon,
                   config.series_window);
  const SimTime horizon = loop.horizon();
  cluster::Cluster& cluster = loop.cluster();
  metrics::MovementTracker& movement = loop.movement();
  const std::vector<double>& weights = loop.weights();

  // Live-state adapter for dispatch strategies (JSQ(d) / JIQ / redundancy):
  // the balance layer sees queue lengths and speeds without depending on
  // src/cluster.
  struct LiveView final : balance::ClusterView {
    explicit LiveView(cluster::Cluster& c) : cluster(c) {}
    std::size_t server_count() const override { return cluster.server_count(); }
    bool is_up(ServerId id) const override { return cluster.is_up(id); }
    std::size_t queue_length(ServerId id) const override {
      return cluster.server(id).queue_length();
    }
    double speed(ServerId id) const override {
      return cluster.is_up(id) ? cluster.server(id).speed() : 0.0;
    }
    cluster::Cluster& cluster;
  } live_view(cluster);
  balancer.bind_cluster(&live_view);
  const bool per_request = balancer.per_request();
  cluster.hooks.on_idle = [&](ServerId s) { balancer.on_server_idle(s); };

  // Routing table: where requests actually go. With control_delay == 0 it
  // mirrors the balancer's placement instantly; otherwise a tuning round's
  // changes are committed only after the control-plane pipeline latency,
  // and requests ride the previous placement until then.
  std::vector<ServerId> routing;

  // On every committed move: redirect the file set's waiting requests to
  // its new server (the shed protocol of §4 hands pending work to the
  // acquirer) and optionally arm the cold-cache penalty.
  std::vector<double> pending_penalty(workload.file_set_count(), 0.0);
  auto commit_moves = [&](const balance::RebalanceResult& result) {
    for (const balance::FileSetMove& move : result.moves) {
      // The source is whatever the routing table says *now* — an earlier
      // in-flight round may already have moved this file set.
      const ServerId from = routing[move.file_set.value()];
      if (from == move.to) continue;
      // A target that failed while this commit was in flight is skipped;
      // the failure path already rerouted its file sets.
      if (!cluster.is_up(move.to)) continue;
      cluster.migrate_queued(move.file_set, from, move.to);
      // Traced at commit time (not decision time), so with control_delay
      // the trace shows when routing actually changed.
      if (trace) {
        trace->emit(sim.now(), obs::EventType::kFileSetMove,
                    move.file_set.value(), from.value(), move.to.value());
      }
      routing[move.file_set.value()] = move.to;
      if (config.move_warmup_penalty > 0.0) {
        pending_penalty[move.file_set.value()] = config.move_warmup_penalty;
      }
    }
  };
  auto apply_moves = [&](const balance::RebalanceResult& result,
                         bool immediate) {
    if (immediate || config.control_delay <= 0.0) {
      commit_moves(result);
    } else {
      sim.schedule_after(config.control_delay,
                         [&, result] { commit_moves(result); });
    }
  };

  // Oracle views for prescient systems.
  const bool want_oracle = config.oracle_lookahead;
  const auto demand_matrix =
      want_oracle
          ? lookahead_demands(workload, config.tuning_interval, horizon)
          : std::vector<std::vector<double>>{};
  auto oracle_for = [&](std::size_t interval_index) {
    balance::OracleView view;
    if (want_oracle && interval_index < demand_matrix.size()) {
      view.file_set_demand = demand_matrix[interval_index];
    } else {
      view.file_set_demand = weights;
    }
    view.server_speeds = cluster.up_speeds();
    return view;
  };

  // Replica races for redundancy dispatch. Each multi-target decision forms
  // a group; the first replica to start (cancel-on-start) or complete
  // (cancel-on-complete) cancels its siblings through the cluster's cancel
  // handles, so exactly one completion per group reaches the latency stats.
  // A replica stranded on a failing server is dropped from its group, and a
  // group that loses every live replica re-dispatches the request.
  //
  // Groups live in a free-listed table that stops growing once it holds
  // the most races ever open at once, so a race allocates nothing. A
  // replica's job id is generation << 32 | slot << 3 | replica index: the
  // start, completion and flush hooks find the group by arithmetic. A
  // slot's generation starts at 1 and bumps whenever its group settles, so
  // ids are nonzero, unique across the run, and a stale id (a settled
  // group's) matches nothing.
  struct ReplicaManager {
    using Cancel = balance::DispatchDecision::Cancel;

    struct Replica {
      ServerId server;
      bool active = false;
    };
    struct Group {
      FileSetId fs;
      double demand = 0.0;
      Cancel mode = Cancel::kOnComplete;
      bool claimed = false;
      std::uint32_t count = 0;
      std::uint32_t generation = 1;
      std::uint32_t next_free = kNoSlot;
      std::array<Replica, balance::DispatchDecision::kMaxTargets> replicas{};
    };
    /// Where a job id's replica lives in the table.
    struct Ticket {
      std::uint32_t slot;
      std::uint32_t index;
    };

    RequestLoop& loop;
    std::vector<Group> groups = {};
    std::uint32_t free_head = kNoSlot;
    std::uint64_t submitted = 0;
    std::uint64_t cancelled_queued = 0;
    std::uint64_t cancelled_in_service = 0;
    std::uint64_t elided = 0;   // never submitted: a sibling already started
    std::uint64_t rescued = 0;  // all replicas lost to failures, re-dispatched

    std::uint64_t job_id(std::uint32_t slot, std::uint32_t index) const {
      return std::uint64_t{groups[slot].generation} << 32 |
             std::uint64_t{slot} << kReplicaIndexBits | index;
    }
    /// The ticket of a replica still in its race; nullopt when the id is
    /// stale or the replica was cancelled or lost.
    std::optional<Ticket> racing(std::uint64_t id) const {
      const auto low = static_cast<std::uint32_t>(id);
      const Ticket t{low >> kReplicaIndexBits,
                     low & ((1u << kReplicaIndexBits) - 1)};
      if (t.slot >= groups.size()) return std::nullopt;
      const Group& group = groups[t.slot];
      if (group.generation != static_cast<std::uint32_t>(id >> 32) ||
          t.index >= group.count || !group.replicas[t.index].active) {
        return std::nullopt;
      }
      return t;
    }
    std::uint32_t acquire() {
      if (free_head == kNoSlot) {
        ANU_REQUIRE(groups.size() < std::size_t{1} << (32 - kReplicaIndexBits));
        groups.emplace_back();
        return static_cast<std::uint32_t>(groups.size() - 1);
      }
      const std::uint32_t slot = free_head;
      free_head = groups[slot].next_free;
      return slot;
    }
    void release(std::uint32_t slot) {
      Group& group = groups[slot];
      ++group.generation;
      ANU_REQUIRE(group.generation != 0);  // ids would repeat
      group.next_free = free_head;
      free_head = slot;
    }

    void cancel_losers(Ticket winner) {
      Group& group = groups[winner.slot];
      for (std::uint32_t i = 0; i < group.count; ++i) {
        Replica& rep = group.replicas[i];
        if (!rep.active || i == winner.index) continue;
        switch (loop.cluster().server(rep.server).cancel(
            job_id(winner.slot, i))) {
          case cluster::CancelOutcome::kQueued: ++cancelled_queued; break;
          case cluster::CancelOutcome::kInService:
            ++cancelled_in_service;
            break;
          case cluster::CancelOutcome::kNotFound: break;
        }
        rep.active = false;
      }
    }
    void on_start(std::uint64_t id) {
      const std::optional<Ticket> t = racing(id);
      if (!t) return;
      Group& group = groups[t->slot];
      if (group.mode != Cancel::kOnStart) return;
      group.claimed = true;
      cancel_losers(*t);
    }
    void on_complete(std::uint64_t id) {
      const std::optional<Ticket> t = racing(id);
      if (!t) return;
      cancel_losers(*t);
      release(t->slot);
    }
    void on_lost(std::uint64_t id) {
      const std::optional<Ticket> t = racing(id);
      if (!t) return;
      Group& group = groups[t->slot];
      group.replicas[t->index].active = false;
      for (std::uint32_t i = 0; i < group.count; ++i) {
        if (group.replicas[i].active) return;
      }
      const FileSetId fs = group.fs;
      const double demand = group.demand;
      release(t->slot);
      ++rescued;
      loop.dispatch(fs, demand);
    }
    void submit(const balance::DispatchDecision& decision, FileSetId fs,
                double demand) {
      const std::uint32_t slot = acquire();
      Group& group = groups[slot];
      group.fs = fs;
      group.demand = demand;
      group.mode = decision.cancel;
      group.claimed = false;
      group.count = decision.count;
      for (std::uint32_t i = 0; i < decision.count; ++i) {
        group.replicas[i] = Replica{decision.targets[i], false};
      }
      for (std::uint32_t i = 0; i < decision.count; ++i) {
        // Re-read each iteration: submit_replica can fire on_start
        // synchronously (idle server), which claims the group.
        Group& g = groups[slot];
        if (g.claimed) {
          ++elided;
          continue;
        }
        Replica& rep = g.replicas[i];
        rep.active = true;
        ++submitted;
        loop.issue(rep.server, fs, demand, job_id(slot, i));
      }
    }
  } replicas{loop};
  cluster.hooks.on_start = [&](std::uint64_t id) { replicas.on_start(id); };

  loop.dispatch = [&](FileSetId fs, double demand) {
    if (per_request) {
      const balance::DispatchDecision decision = balancer.dispatch(fs, demand);
      ANU_REQUIRE(decision.count >= 1);
      if (decision.count == 1) {
        loop.issue(decision.targets[0], fs, demand);
      } else {
        replicas.submit(decision, fs, demand);
      }
      return;
    }
    const ServerId target = routing[fs.value()];
    double extra = 0.0;
    std::swap(extra, pending_penalty[fs.value()]);
    loop.issue(target, fs, demand + extra);
  };

  // A replica's completion settles its race before the loop counts it.
  cluster.hooks.on_complete = [&](const cluster::Completion& c) {
    if (c.job_id != 0) replicas.on_complete(c.job_id);
    loop.complete(c);
  };
  // Requests stranded on a failing server re-dispatch: plain requests go
  // back through dispatch (placement is already updated); replicas are
  // dropped from their race and only re-dispatched when none survive.
  cluster.hooks.on_flush = [&](FileSetId fs, double demand,
                               std::uint64_t job_id) {
    if (job_id != 0) {
      replicas.on_lost(job_id);
      return;
    }
    loop.dispatch(fs, demand);
  };

  // Initial placement: prescient systems see interval 0; ANU and simple
  // randomization start blind (§4/§5.1). Dispatch strategies route each
  // arrival live and never consult the routing table.
  balancer.set_oracle(oracle_for(0));
  balancer.register_file_sets(workload.file_sets());
  routing.resize(workload.file_set_count());
  if (!per_request) {
    for (std::uint32_t fs = 0; fs < workload.file_set_count(); ++fs) {
      routing[fs] = balancer.server_for(FileSetId(fs));
    }
  }

  loop.start_arrivals();

  // The tuning loop (§4): collect interval reports, delegate round, record
  // movement.
  std::uint64_t rounds = 0;
  std::vector<ExperimentResult::ShareSample> share_samples;
  PeriodicTimer tuner(sim, config.tuning_interval, [&](SimTime now) {
    if (now > horizon) return;
    ++rounds;
    for (std::uint32_t s = 0; s < cluster.server_count(); ++s) {
      const auto id = ServerId(s);
      if (!cluster.is_up(id)) continue;
      const auto report = cluster.server(id).take_interval_report();
      balancer.report(id,
                      balance::ServerReport{report.mean_latency,
                                            report.completed});
    }
    const auto next_interval =
        static_cast<std::size_t>(std::llround(now / config.tuning_interval));
    balancer.set_oracle(oracle_for(next_interval));
    const balance::RebalanceResult result = balancer.tune();
    movement.record(now, result);
    apply_moves(result, /*immediate=*/false);

    if (trace) {
      const auto& round = movement.rounds().back();
      trace->emit(now, obs::EventType::kTuningRound,
                  static_cast<std::uint32_t>(rounds),
                  static_cast<std::uint32_t>(round.moved), 0,
                  round.moved_weight, round.cumulative_pct);
    }
    // Sample the assigned-weight share per server (the share trace of
    // ExperimentResult::shares_over_time). Dispatch strategies have no
    // placement to sample.
    if (per_request) return;
    ExperimentResult::ShareSample sample;
    sample.when = now;
    sample.share.assign(cluster.server_count(), 0.0);
    double total_weight = 0.0;
    for (std::uint32_t fs = 0; fs < workload.file_set_count(); ++fs) {
      const double w = weights[fs];
      sample.share[balancer.server_for(FileSetId(fs)).value()] += w;
      total_weight += w;
    }
    if (total_weight > 0.0) {
      for (double& s : sample.share) s /= total_weight;
    }
    if (trace) {
      for (std::uint32_t s = 0; s < sample.share.size(); ++s) {
        trace->emit(now, obs::EventType::kRegionRetune, s, 0, 0,
                    sample.share[s]);
      }
    }
    share_samples.push_back(std::move(sample));
  });

  // Scripted membership changes. Their moves apply at once: placement must
  // be valid before the cluster flushes queued requests back through
  // dispatch.
  auto rebalance_now = [&](const balance::RebalanceResult& moves) {
    movement.record(sim.now(), moves);
    apply_moves(moves, /*immediate=*/true);
  };
  auto refresh_oracle = [&] {
    balancer.set_oracle(oracle_for(
        static_cast<std::size_t>(sim.now() / config.tuning_interval)));
  };
  RequestLoop::Membership membership;
  membership.fail = [&](ServerId server) {
    rebalance_now(balancer.on_server_failed(server));
    // With control_delay, routing may lag the balancer and still pin a file
    // set to the failing server the balancer never saw it on; sweep every
    // such entry onto the balancer's current placement.
    if (per_request) return;
    for (std::uint32_t fs = 0; fs < routing.size(); ++fs) {
      if (routing[fs] == server) {
        routing[fs] = balancer.server_for(FileSetId(fs));
      }
    }
  };
  membership.recover = [&](ServerId server) {
    refresh_oracle();
    rebalance_now(balancer.on_server_recovered(server));
  };
  membership.add = [&](ServerId server) {
    refresh_oracle();
    rebalance_now(balancer.on_server_added(server));
  };
  loop.schedule_membership(config.failures, std::move(membership));

  sim.run_until(horizon);
  tuner.stop();

  ExperimentResult result = loop.result();
  result.shares_over_time = std::move(share_samples);
  result.shared_state_bytes = balancer.shared_state_bytes();
  result.tuning_rounds = rounds;
  result.balance.strategy = std::string(balancer.name());
  result.balance.per_request = per_request;
  result.balance.counters = balancer.counters();
  if (replicas.submitted > 0) {
    result.balance.counters.emplace_back("replicas_submitted",
                                         replicas.submitted);
    result.balance.counters.emplace_back("replicas_cancelled_queued",
                                         replicas.cancelled_queued);
    result.balance.counters.emplace_back("replicas_cancelled_in_service",
                                         replicas.cancelled_in_service);
    result.balance.counters.emplace_back("replicas_elided", replicas.elided);
    result.balance.counters.emplace_back("replicas_rescued", replicas.rescued);
  }
  return result;
}

}  // namespace anu::driver
