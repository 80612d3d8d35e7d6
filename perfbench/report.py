"""Metric definitions and aggregation for the repository benchmark.

run.py measures; this module names what it measures. BENCHMARK.json is
generated from the tables below (``python3 perfbench/report.py``), and the
tests check that the two agree.
"""

import json
import re

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

SIM = ("paper_synthetic", "protocol_churn", "dispatch_redundancy")
SERVE = ("serve_route",)
ALL = SIM + SERVE

RUN_SECONDS = 20

WORKLOADS = {
    "paper_synthetic": (
        "ANU on the paper cluster, the section 5.1 synthetic run 30 times:"
        " event kernel, servers, driver and metrics; the balancer only tunes"),
    "protocol_churn": (
        "ANU under the section 4 message protocol, 64 servers, 2% loss,"
        " fail/recover: hashing, region-map routing and protocol dominate"),
    "dispatch_redundancy": (
        "redundancy-d dispatch on the paper cluster: the balancer runs on"
        " every request, and the replica race and cancel paths are hot"),
    "serve_route": (
        "live anu_serve over loopback UDP with a closed-loop window of 8:"
        " the only workload on the runtime and the ROUTE data plane"),
}

# (name, unit, better, bound). Every workload reports every one of these.
END_TO_END = (
    ("requests_per_s", "1/s", "higher", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("latency_p50_ms", "ms", "lower", 0.25),
    ("latency_p90_ms", "ms", "lower", 0.25),
)

# (name, unit, better, workloads that exercise it). A workload that does
# not exercise a layer reports 0 for its metrics.
PER_LAYER = (
    ("workload.gen_s", "s", "lower", SIM),
    ("workload.requests", "count", "higher", SIM),
    ("driver.run_s", "s", "lower", SIM),
    ("driver.self_ns_per_request", "ns", "lower", SIM),
    ("sim.events_per_request", "ratio", "lower", SIM),
    ("sim.cancelled_skipped", "count", "lower", SIM),
    ("sim.max_pending", "count", "lower", SIM),
    ("sim.slab_high_water", "count", "lower", SIM),
    ("sim.rung_spills", "count", "lower", SIM),
    ("cluster.utilization_max", "ratio", "lower", SIM),
    ("cluster.replicas_per_request", "ratio", "lower", ("dispatch_redundancy",)),
    ("cluster.replica_useful_ratio", "ratio", "higher", ("dispatch_redundancy",)),
    ("cluster.cancelled_in_service", "count", "lower", ("dispatch_redundancy",)),
    ("balance.dispatch.calls", "count", "lower",
     ("paper_synthetic", "dispatch_redundancy")),
    ("balance.dispatch.ns_mean", "ns", "lower",
     ("paper_synthetic", "dispatch_redundancy")),
    ("balance.dispatch.ns_p99", "ns", "lower",
     ("paper_synthetic", "dispatch_redundancy")),
    ("balance.share_of_run", "ratio", "lower",
     ("paper_synthetic", "dispatch_redundancy")),
    ("core.tune.calls", "count", "lower", ("paper_synthetic",)),
    ("core.tune.ns_mean", "ns", "lower", ("paper_synthetic",)),
    ("core.tune.ns_p99", "ns", "lower", ("paper_synthetic",)),
    ("core.tune.moves_per_round", "count", "lower", ("paper_synthetic",)),
    ("core.workload_moved_pct", "%", "lower",
     ("paper_synthetic", "protocol_churn")),
    ("core.route.calls", "count", "lower", ("protocol_churn", "serve_route")),
    ("core.route.ns_mean", "ns", "lower", ("protocol_churn", "serve_route")),
    ("core.route.ns_p99", "ns", "lower", ("protocol_churn", "serve_route")),
    ("core.route.share_of_run", "ratio", "lower",
     ("protocol_churn", "serve_route")),
    ("hash.probes_per_route", "ratio", "lower",
     ("paper_synthetic", "protocol_churn", "serve_route")),
    ("proto.map_applies", "count", "lower", ("protocol_churn",)),
    ("proto.messages_per_round", "count", "lower", ("protocol_churn",)),
    ("proto.bytes_per_round", "B", "lower", ("protocol_churn",)),
    ("proto.delivery_ratio", "ratio", "higher", ("protocol_churn",)),
    ("proto.retransmits", "count", "lower", ("protocol_churn",)),
    ("proto.duplicates_suppressed", "count", "lower", ("protocol_churn",)),
    ("proto.retries_abandoned", "count", "lower", ("protocol_churn",)),
    ("proto.retunes", "count", "higher", ("protocol_churn", "serve_route")),
    ("proto.share_swing", "ratio", "lower", SERVE),
    ("faults.drops_injected", "count", "lower", ("protocol_churn",)),
    ("faults.duplicates_injected", "count", "lower", ("protocol_churn",)),
    ("runtime.cpu_us_per_route", "us", "lower", SERVE),
    ("runtime.sys_frac", "ratio", "lower", SERVE),
    ("runtime.server_busy_frac", "ratio", "lower", SERVE),
    ("runtime.client_busy_frac", "ratio", "lower", SERVE),
    ("metrics.latency_p99_ms", "ms", "lower", ALL),
    ("metrics.latency_samples", "count", "higher", ALL),
    ("metrics.server_latency_cv", "ratio", "lower", SIM),
    ("obs.trace_events", "count", "lower", SIM),
    ("obs.trace_dropped", "count", "lower", SIM),
    ("obs.trace_overhead_pct", "%", "lower", SIM),
)


def metrics_for(trace, workload, values):
    """The result's ``metrics`` object: every end-to-end metric (trace 0) or
    every per-layer metric (trace 1), each with its unit.

    ``values`` holds what the workload measured. It must name exactly the
    metrics its workload exercises; the rest read 0.
    """
    if trace:
        table = [(n, u, w) for n, u, _, w in PER_LAYER]
    else:
        table = [(n, u, ALL) for n, u, _, _ in END_TO_END]
    expected = {n for n, _, w in table if workload in w}
    if set(values) != expected:
        raise ValueError("%s measured %s, expected %s" % (
            workload, sorted(set(values) ^ expected), "the table's metrics"))
    return {n: {"value": float(values.get(n, 0.0)), "unit": u}
            for n, u, _ in table}


def result_line(correct, attempted, failed, metrics):
    return json.dumps({"correct": bool(correct), "attempted": int(attempted),
                       "failed": int(failed), "metrics": metrics})


def benchmark_json():
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b, _ in PER_LAYER],
    }


if __name__ == "__main__":
    print(json.dumps(benchmark_json(), indent=2))
