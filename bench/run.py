"""Seeded end-to-end and per-layer benchmark of tropc.

    python3 bench/run.py --workload hull-nd --seed 1 --seconds 22 --trace 0
    python3 bench/run.py --seed 1        # all four workloads, one at a time

Each workload runs in fresh worker processes (bench/worker.py) importing
tropc from src/ of this checkout.  With ``--trace 0`` the run prints the
end-to-end metrics, measured by two workers at once, each on its own CPU;
with ``--trace 1`` a separate traced run in one worker prints the per-layer
table.  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.  The exit code is 1 when
an output check failed and 2 when the benchmark could not run.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ["hull-nd", "univariate-cert", "eval-grid", "cli-process"]
# fresh workers timed only up to "ready": half of them before the measuring
# workers and half after, so that they sample the host at both ends of the run
SETUP_SAMPLES = 11
# measuring workers of a run, each alone on its own CPU (fewer when fewer
# CPUs are allowed); an op's latency is its fastest run on any of them
REPLICAS = 2
# a workload's run must end within 180 s; its worker is killed before that
RUN_LIMIT_S = 170
# every metric's unit, by name, for the two kinds of run
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {key: {m["name"]: m["unit"] for m in SPEC[key]}
         for key in ("end_to_end", "per_layer")}


class BenchError(Exception):
    pass


def worker_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def spawn_workers(arg_lists, limit_s):
    """Start one worker per argument list, all at once; return, for each,
    (seconds from the start until it printed "ready", its last output
    line).  Workers still running after limit_s are killed."""
    t0 = time.perf_counter()
    procs, timers, ready = [], [], []
    try:
        for args in arg_lists:
            proc = subprocess.Popen(
                [sys.executable, str(BENCH / "worker.py"), *args],
                stdout=subprocess.PIPE, text=True, env=worker_env(), cwd=ROOT)
            procs.append(proc)
            timers.append(threading.Timer(limit_s, proc.kill))
            timers[-1].start()
        for proc in procs:
            ready.append((proc.stdout.readline(), time.perf_counter() - t0))
        outs = [proc.communicate()[0] for proc in procs]
    finally:
        for timer in timers:
            timer.cancel()
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            proc.stdout.close()
    results = []
    for args, proc, (line, t_ready), out in zip(arg_lists, procs, ready, outs):
        if proc.returncode != 0 or line.strip() != "ready":
            raise BenchError(f"worker {' '.join(args)} exited with code "
                             f"{proc.returncode}")
        results.append((t_ready, (out.strip().splitlines() or [""])[-1]))
    return results


def setup_seconds(args):
    return spawn_workers([args + ["--setup-only"]], 60)[0][0]


def fraction_loop_ms():
    """A fixed pure-Fraction loop: a reading of host speed, never used to
    normalise the metrics."""
    t0 = time.perf_counter()
    s = Fraction(0)
    for i in range(1, 20001):
        s += Fraction(i % 13 - 6, i % 7 + 1)
    return 1e3 * (time.perf_counter() - t0)


def host_facts():
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
        "fraction_loop_ms": round(fraction_loop_ms(), 3),
    }


def run_workload(name, seed, seconds, trace):
    started = time.perf_counter()
    args = ["--workload", name, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    setup_seconds(args)  # untimed: the first start compiles bytecode into src/
    samples = 0 if trace else SETUP_SAMPLES
    setups = [setup_seconds(args) for _ in range(samples // 2)]
    limit = max(30.0, RUN_LIMIT_S - 30 - (time.perf_counter() - started))
    if trace:
        runs = [args]
    else:
        cpus = sorted(os.sched_getaffinity(0))[:REPLICAS]
        runs = [args + ["--cpu", str(cpu)] for cpu in cpus]
    reps = [json.loads(line) for _, line in spawn_workers(runs, limit)]
    setups += [setup_seconds(args) for _ in range(samples - samples // 2)]
    res = combine(reps)
    if not trace:
        res.update(latency_metrics(res["lat"], res["tail_pct"]))
        res["setup_s"] = statistics.median(setups)
        res["setup_n"] = len(setups)
    return res


def combine(reps):
    """One result from the replicas of a run: each op's fastest latency on
    any of them, all their op runs and failures, the largest peak RSS.
    Replicas that disagree on the outputs fail the run."""
    res = dict(reps[0])
    res["replicas"] = len(reps)
    res["lat"] = [min(lats) for lats in zip(*(r["lat"] for r in reps))]
    res["attempted"] = sum(r["attempted"] for r in reps)
    res["failures"] = [f for r in reps for f in r["failures"]]
    res["round_s"] = [s for r in reps for s in r["round_s"]]
    if len({r["digest"] for r in reps}) > 1:
        res["attempted"] += 1
        res["failures"].append("replicas produced different outputs")
    if not res.get("layers"):
        res["peak_rss_mb"] = max(r["peak_rss_mb"] for r in reps)
        res["wall_s"] = [r["wall_s"] for r in reps]
    return res


def latency_metrics(lat, pct):
    """ops_per_s, op_p50_ms and op_tail_ms (at the percentile pct, with the
    number of ops beyond it) from each op's latency in seconds."""
    s = sorted(lat)
    k = min(len(s) - 1, int(len(s) * pct / 100))
    return {"ops_per_s": len(s) / sum(s),
            "op_p50_ms": 1e3 * statistics.median(s),
            "op_tail_ms": 1e3 * s[k], "tail_beyond": len(s) - 1 - k}


def unit(trace, metric):
    units = UNITS["per_layer" if trace else "end_to_end"]
    if metric not in units:
        raise BenchError(f"metric {metric} is not listed in BENCHMARK.json")
    return units[metric]


def report(res, wl, trace, seconds):
    """Print one workload's results; return its metrics for the JSON line."""
    n, failed = len(res["lat"]), len(res["failures"])
    attempted = res["attempted"]
    print(f"== {wl.name}  seed {res['seed']}  {seconds} s  trace {trace}")
    print(f"why: {wl.why}")
    print(f"inputs: {wl.props}")
    print("measured inputs: " + json.dumps(res["properties"]))
    if trace:
        lay = res["layers"]
        print(f"hull-cache hit ratio: {lay['essential.cache_hit_ratio']:.4f}"
              f" over {lay['essential.cache_lookups']} lookups")
        print(f"{'metric':34} {'value':>14}  unit")
        for k in sorted(lay):
            print(f"{k:34} {lay[k]:14.6g}  {unit(trace, k)}")
        print(f"spans: {res['spans']} over {n} traced ops")
        metrics = {k: {"value": v, "unit": unit(trace, k)}
                   for k, v in lay.items()}
    else:
        notes = {
            "ops_per_s": f"n={n} ops, fastest of {len(res['round_s'])} "
                          f"rounds on {res['replicas']} CPUs",
            "op_p50_ms": f"n={n} ops",
            "op_tail_ms": f"n={n} ops, p{res['tail_pct']}, "
                          f"{res['tail_beyond']} beyond",
            "setup_s": f"median of {res['setup_n']} fresh workers",
            "peak_rss_mb": f"largest of {res['replicas']} workers, after "
                           "round 0" if wl.name != "cli-process"
                           else "largest of all tropc processes",
        }
        print(f"{'metric':14} {'value':>12}  {'unit':6} samples")
        metrics = {}
        for key in UNITS["end_to_end"]:
            u = unit(trace, key)
            metrics[key] = {"value": res[key], "unit": u}
            print(f"{key:14} {res[key]:12.5g}  {u:6} {notes[key]}")
        print(f"{'fail_ratio':14} {failed / attempted:12.5g}  {'1':6} "
              f"{failed} of {attempted} op runs")
        rs = res["round_s"]
        print(f"timed seconds per round ({len(rs)} rounds, all CPUs): fastest "
              f"{min(rs):.3f}, median {statistics.median(rs):.3f}, slowest "
              f"{max(rs):.3f}; wall seconds of the measuring workers, with "
              f"the checks: {max(res['wall_s']):.1f}")
    print(f"digest: sha256:{res['digest']} (outputs of ops 0-{n - 1})")
    for f in res["failures"][:10]:
        print("FAILED " + f)
    return metrics, attempted, failed


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all",
                    choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=22)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = ap.parse_args(argv)
    if not (SRC / "tropc" / "__init__.py").is_file():
        print(f"error: no tropc sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads  # imports tropc, so only once src/ is on the path

    names = WORKLOADS if opts.workload == "all" else [opts.workload]
    host = host_facts()
    all_metrics, attempted, failed = {}, 0, 0
    try:
        for name in names:
            res = run_workload(name, opts.seed, opts.seconds, opts.trace)
            metrics, n, bad = report(res, workloads.WORKLOADS[name],
                                     opts.trace, opts.seconds)
            prefix = "" if len(names) == 1 else name + "/"
            all_metrics.update({prefix + k: v for k, v in metrics.items()})
            attempted += n
            failed += bad
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    end = host_facts()
    print(f"host: nproc {host['nproc']} (affinity {host['affinity']}), "
          f"python {host['python']}, loadavg {host['loadavg']} -> "
          f"{end['loadavg']}, fraction loop {host['fraction_loop_ms']} ms -> "
          f"{end['fraction_loop_ms']} ms")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": all_metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
