#!/usr/bin/env python3
"""The repository benchmark: one workload per call, measured from outside.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the benchmark programs from the checkout's sources (CMake, into
.bench_build/), runs the workload in its own process, checks its outputs,
and prints one JSON result as the last line of stdout. With --trace 0 the
result carries the end-to-end metrics, with --trace 1 the per-layer ones;
see README.md for each metric and workload.
"""

import argparse
import json
import os
import re
import resource
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time
from pathlib import Path

import report

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
TARGETS = ("perfbench_sim", "perfbench_load", "anu_serve")

SERVE_SERVERS = 3
SERVE_SLOW = "1,1,4"
# anu_serve is started this many times per run; set-up is the median
# launch -> first valid reply.
SERVE_SETUPS = 9
# anu_serve stops on its own this long after the load ends, and must exit 0.
SERVE_TAIL_S = 1.5
RETUNE_RE = re.compile(r"^anu_serve: retune version=(\d+) shares=([0-9.,]+)")
REPLY_RE = re.compile(rb"^OK (\d+) (\d+)$")


class BenchError(Exception):
    pass


def log(*args):
    print("perfbench:", *args, file=sys.stderr, flush=True)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError("no repository sources next to perfbench/")
    if not (BUILD / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", str(ROOT / "perfbench"), "-B",
                        str(BUILD), "-DCMAKE_BUILD_TYPE=Release", *generator],
                       check=True, stdout=sys.stderr, timeout=600)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs, "--target",
                    *TARGETS], check=True, stdout=sys.stderr, timeout=840)


def run_child(argv, timeout, preexec_fn=None):
    """Runs a program to completion; returns (exit code, stdout)."""
    proc = subprocess.run(argv, stdout=subprocess.PIPE, timeout=timeout,
                          preexec_fn=preexec_fn)
    return proc.returncode, proc.stdout.decode()


def wait_rusage(proc, timeout):
    """Waits for a child and returns (exit code, rusage) via wait4."""
    deadline = time.monotonic() + timeout
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid == proc.pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return proc.returncode, usage
        if time.monotonic() > deadline:
            proc.kill()
            os.wait4(proc.pid, 0)
            proc.returncode = -signal.SIGKILL
            raise BenchError("%s did not exit" % proc.args[0])
        time.sleep(0.01)


def last_json(text, what):
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise BenchError("%s printed nothing" % what)
    return json.loads(lines[-1])


# --- simulator workloads ---------------------------------------------------

def run_sim(workload, seed, seconds, trace):
    argv = [str(BUILD / "perfbench_sim"), "--workload", workload, "--seed",
            str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE)
    # Its one result line fits in the pipe, so it can be read after exit.
    code, usage = wait_rusage(proc, timeout=seconds + 120)
    out = proc.stdout.read().decode()
    proc.stdout.close()
    if code != 0:
        raise BenchError("perfbench_sim exited %d" % code)
    raw = last_json(out, "perfbench_sim")
    correct = raw["check_failures"] == 0
    table = report.PER_LAYER if trace else report.END_TO_END
    values = {n: raw[n] for n, *_ in table if n in raw}
    if not trace:
        # ru_maxrss is in KiB on Linux.
        values["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    log("%s seed=%d passes=%d over %d requests: %s" % (
        workload, seed, raw["passes"], raw["attempted"],
        " ".join("%s=%.6g" % kv for kv in values.items())))
    return correct, raw["attempted"], raw["failed"], values


# --- serve_route --------------------------------------------------------------

def free_port():
    # anu_serve prints its configured port, not the bound one, so the
    # benchmark picks a free port and passes it in.
    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


# anu_serve and the load generator each get a CPU of their own, the same
# ones on every run, so the scheduler does not move them between runs.
_CPUS = sorted(os.sched_getaffinity(0))
SERVER_CPU, CLIENT_CPU = (_CPUS[-2], _CPUS[-1]) if len(_CPUS) > 1 else (None,
                                                                        None)


def pin(cpu):
    if cpu is None:
        return None
    return lambda: os.sched_setaffinity(0, {cpu})


def start_serve(port, run_seconds):
    """Starts anu_serve; returns (process, seconds to the first valid reply)."""
    argv = [str(BUILD / "anu_serve"), "--servers", str(SERVE_SERVERS),
            "--port", str(port), "--run-seconds", str(run_seconds),
            "--slow", SERVE_SLOW]
    probe = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    probe.connect(("127.0.0.1", port))
    probe.settimeout(0.001)
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                            preexec_fn=pin(SERVER_CPU))
    try:
        while time.perf_counter() - start < 10.0:
            try:
                probe.send(b"key/probe")
                reply = probe.recv(64)
            except (socket.timeout, ConnectionRefusedError):
                if proc.poll() is not None:
                    break
                continue
            match = REPLY_RE.match(reply)
            if not match or int(match.group(1)) >= SERVE_SERVERS:
                raise BenchError("malformed first reply %r" % reply)
            return proc, time.perf_counter() - start
    except BaseException:
        stop_serve(proc)
        raise
    finally:
        probe.close()
    stop_serve(proc)
    raise BenchError("anu_serve never answered")


def stop_serve(proc):
    if proc.returncode is None:
        proc.terminate()
        wait_rusage(proc, timeout=10)
    proc.stdout.close()


def share_swing(retunes):
    """Largest per-server share change between the last two retunes."""
    if len(retunes) < 2:
        return 0.0
    return max(abs(a - b) for a, b in zip(retunes[-1], retunes[-2]))


def run_serve(seed, seconds, trace):
    setups = []
    for _ in range(SERVE_SETUPS - 1):
        proc, took = start_serve(free_port(), 30.0)
        setups.append(took)
        stop_serve(proc)

    port = free_port()
    load_wall_s = 1.0 + seconds  # warm-up, window, drain
    proc, took = start_serve(port, load_wall_s + SERVE_TAIL_S)
    setups.append(took)
    try:
        code, out = run_child(
            [str(BUILD / "perfbench_load"), "--port", str(port), "--servers",
             str(SERVE_SERVERS), "--seed", str(seed), "--seconds",
             str(seconds), "--trace", str(trace)], timeout=seconds + 60,
            preexec_fn=pin(CLIENT_CPU))
        if code != 0:
            raise BenchError("perfbench_load exited %d" % code)
        raw = last_json(out, "perfbench_load")
        # anu_serve stops on its own; its few retune lines fit in the pipe.
        server_code, usage = wait_rusage(proc, timeout=seconds + 30)
        server_out = proc.stdout.read().decode()
    finally:
        stop_serve(proc)

    retunes = []
    for line in server_out.splitlines():
        match = RETUNE_RE.match(line)
        if match:
            retunes.append([float(x) for x in match.group(2).split(",")])
    checks = {
        "anu_serve exit 0": server_code == 0,
        "every reply is OK <owner < servers> <version>": raw["invalid"] == 0,
        "versions never decrease": raw["version_regressions"] == 0,
        "replies answered": raw["valid"] > 0,
    }
    for what, ok in checks.items():
        if not ok:
            log("check failed: " + what)
    server_cpu = usage.ru_utime + usage.ru_stime
    if trace:
        calls = raw["replies"]
        values = {
            "core.route.calls": calls,
            "core.route.ns_mean": raw["core.route.ns_mean"],
            "core.route.ns_p99": raw["core.route.ns_p99"],
            # Share of anu_serve's CPU time the routing itself would take.
            "core.route.share_of_run":
                calls * raw["core.route.ns_mean"] * 1e-9 / server_cpu,
            "hash.probes_per_route": raw["hash.probes_per_route"],
            "proto.retunes": len(retunes),
            "proto.share_swing": share_swing(retunes),
            "runtime.cpu_us_per_route": server_cpu * 1e6 / calls,
            "runtime.sys_frac": usage.ru_stime / server_cpu,
            # Nearly all of anu_serve's CPU time falls in the load period.
            "runtime.server_busy_frac": server_cpu / raw["load_s"],
            "runtime.client_busy_frac": raw["client_busy_frac"],
            "metrics.latency_p99_ms": raw["latency_p99_ms"],
            "metrics.latency_samples": raw["latency_samples"],
        }
    else:
        values = {
            "requests_per_s": raw["requests_per_s"],
            "setup_s": statistics.median(setups),
            "peak_rss_mb": usage.ru_maxrss / 1024.0,
            "latency_p50_ms": raw["latency_p50_ms"],
            "latency_p90_ms": raw["latency_p90_ms"],
        }
    log("serve_route seed=%d: %d routes, %d timeouts, server cpu %.2fs: %s" % (
        seed, raw["latency_samples"], raw["timeouts"], server_cpu,
        " ".join("%s=%.6g" % kv for kv in values.items())))
    return (all(checks.values()), raw["sent"],
            raw["timeouts"] + raw["invalid"], values)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=report.ALL)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seconds <= 0 or args.seed < 0:
        parser.error("--seconds must be positive and --seed non-negative")
    # A failed invariant aborts its program; keep the core dump out of the
    # checkout.
    resource.setrlimit(resource.RLIMIT_CORE, (0, 0))
    try:
        build()
        if args.workload == "serve_route":
            result = run_serve(args.seed, args.seconds, args.trace)
        else:
            result = run_sim(args.workload, args.seed, args.seconds,
                             args.trace)
        correct, attempted, failed, values = result
        metrics = report.metrics_for(args.trace, args.workload, values)
    except (BenchError, subprocess.SubprocessError, OSError, KeyError,
            ValueError) as error:
        log("error:", error)
        return 1
    print(report.result_line(correct, attempted, failed, metrics), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
