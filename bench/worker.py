"""One fresh benchmark worker: set up one workload, run it, print results.

Started by run.py with PYTHONPATH pointing at the checkout's src/.  It
prints ``ready`` once the inputs of all its ops are built (the end of
set-up) and, unless ``--setup-only``, one JSON line with its results: each
op's fastest latency, the op counts, failures and the output digest.  With
``--cpu`` it runs on that CPU alone.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import sys
import time
from pathlib import Path

import tropc
import workloads as W

# Per workload, tuned on a 2-core host: the ops of a run in whole periods of
# the mix (at least 10 ops beyond the tail percentile), the tail percentile,
# and the wall seconds one round of those ops takes there, checks included.  A
# run makes --seconds / round seconds rounds, so its length follows
# --seconds on that host, while the ops and the rounds it makes depend on
# nothing but the arguments.
PLAN = {"hull-nd": (2, 90, 1.1), "univariate-cert": (1, 90, 0.2),
        "eval-grid": (1, 75, 0.9), "cli-process": (3, 75, 6.5)}
SPAN_DIR = ".bench_out"


class Stats:
    """Latencies, failures, digest and input properties of one phase."""

    def __init__(self):
        self.lat = []
        self.round_s = []        # timed seconds of each round
        self.rss_mb = None
        self.attempted = 0
        self.failures = []
        self.digest = hashlib.sha256()
        self.kinds = {}
        self.polys = 0
        self.arity = {}
        self.terms = []
        self.degree = []
        self.coeffs = 0
        self.ghosts = 0
        self.multi = 0
        self.collinear = 0

    def observe_inputs(self, kind, args):
        self.kinds[kind.name] = self.kinds.get(kind.name, 0) + 1
        for f in W.input_polys(args):
            self.polys += 1
            self.arity[f.arity] = self.arity.get(f.arity, 0) + 1
            self.terms.append(len(f.terms))
            if f.terms:
                self.degree.append(f.total_degree())
            self.coeffs += len(f.terms)
            self.ghosts += sum(c.is_ghost() for c in f.terms.values())
            if f.arity >= 2:
                self.multi += 1
                self.collinear += W.is_collinear(f.terms)

    def record(self, i, kind, args, out, err, check, digest):
        """Count an op run; check its output (untimed) if `check`, and fold
        it into the digest if `digest`.  A raising op always fails."""
        self.attempted += 1
        if err is None and check:
            try:
                kind.check(args, out)
            except W.CheckFailed as exc:
                err = exc
        if err is not None:
            self.failures.append(f"op {i} {kind.name}: "
                                 f"{type(err).__name__}: {err}")
        if digest:
            self.digest.update(repr((i, kind.name, W.canon(out)
                                     if err is None else "failed")).encode())

    def properties(self):
        n = self.polys or 1
        return {
            "ops": dict(sorted(self.kinds.items())),
            "arity_mix": {a: round(c / n, 3)
                          for a, c in sorted(self.arity.items())},
            "terms": [min(self.terms), max(self.terms),
                      round(statistics.mean(self.terms), 2)]
            if self.terms else None,
            "degree": [min(self.degree), max(self.degree)]
            if self.degree else None,
            "ghost_share": round(self.ghosts / self.coeffs, 3)
            if self.coeffs else None,
            "collinear_share": round(self.collinear / self.multi, 3)
            if self.multi else None,
        }


def run_phase(ops, rounds, stats, tracer=None, shift=0, rss_workload=None):
    """Closed loop, one caller: `rounds` rounds over the fixed list `ops`.

    Round r runs every op on its inputs shifted by shift + r
    (``workloads.shifted``), so each round does the same work while nothing
    is answered from a cache.  An op's latency is its fastest round: the
    host this was tuned on switches between a fast state and ones up to 2x
    slower, often several times a second, and over many rounds a short op
    meets the fast state at least once.  Round 0 checks every output and
    feeds the digest; a later round r checks op j when j % rounds == r.
    With `rss_workload`, the peak RSS is read after round 0.
    """
    best = [math.inf] * len(ops)
    for r in range(rounds):
        c = shift + r
        total = 0.0
        for j, (kind, args) in enumerate(ops):
            if c:
                args = W.shifted(args, c)
            out, err, lat = run_op(j, kind, args, tracer)
            total += lat
            best[j] = min(best[j], lat)
            stats.record(j, kind, args, out, err,
                         check=r == 0 or j % rounds == r, digest=r == 0)
        stats.round_s.append(total)
        if r == 0 and rss_workload is not None:
            stats.rss_mb = peak_rss_mb(rss_workload)
    stats.lat = best


def run_op(i, kind, args, tracer):
    """Run one op; return (output, exception, seconds).  Only the call is
    timed, and only the call is traced; a raising op counts as failed."""
    if tracer is not None:
        tracer.enabled = True
    t0 = time.perf_counter()
    try:
        out = kind.call(*args) if tracer is None else \
            tracer.run_op(i, kind.name, kind.call, args)
        err = None
    except Exception as exc:  # any error fails the op; the run goes on
        out, err = None, exc
    t1 = time.perf_counter()
    if tracer is not None:
        tracer.enabled = False
    return out, err, t1 - t0


def peak_rss_mb(workload):
    who = resource.RUSAGE_CHILDREN if workload.name == "cli-process" \
        else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--cpu", type=int)
    opts = ap.parse_args(argv)
    if opts.cpu is not None:
        os.sched_setaffinity(0, {opts.cpu})

    src = Path(os.environ["PYTHONPATH"].split(os.pathsep)[0]).resolve()
    if Path(tropc.__file__).resolve().parent.parent != src:
        sys.exit(f"tropc imported from {tropc.__file__}, not {src}")
    workload = W.WORKLOADS[opts.workload]
    if opts.trace:
        # traced runs time ops in process, where spans can be recorded
        workload = W.TRACED_VARIANT.get(workload.name, workload)
    periods, pct, round_s = PLAN[opts.workload]
    ops = [W.make_op(workload, opts.seed, i)
           for i in range(periods * workload.period)]
    print("ready", flush=True)
    if opts.setup_only:
        return 0

    stats = Stats()
    for kind, args in ops:
        stats.observe_inputs(kind, args)
    result = {"workload": opts.workload, "seed": opts.seed, "tail_pct": pct}
    rounds = max(2, round(opts.seconds / round_s))
    if not opts.trace:
        t0 = time.perf_counter()
        run_phase(ops, rounds, stats, rss_workload=workload)
        result.update(phase_result(stats), peak_rss_mb=stats.rss_mb,
                      wall_s=time.perf_counter() - t0)
    else:
        # a quarter of the rounds traced and as many untraced: with the
        # tracing overhead, that fills about the same time
        result.update(traced(opts, ops, stats, max(1, rounds // 4)))
    print(json.dumps(result), flush=True)
    return 0


def phase_result(stats):
    return {
        "lat": stats.lat,
        "attempted": stats.attempted,
        "round_s": stats.round_s,
        "failures": stats.failures,
        "digest": stats.digest.hexdigest(),
        "properties": stats.properties(),
    }


def traced(opts, ops, spanned, rounds):
    """Traced rounds of the ops, as many untraced rounds after them (for the
    tracing overhead), then the pinned rows and the CLI facts."""
    import layers
    tracer = layers.Tracer()
    plain = Stats()
    with layers.installed(tracer, [W]):
        run_phase(ops, rounds, spanned, tracer=tracer)
    run_phase(ops, rounds, plain, shift=rounds)

    out = Path(SPAN_DIR)
    out.mkdir(exist_ok=True)
    tracer.write(out / f"spans-{opts.workload}-seed{opts.seed}.tsv")
    metrics = tracer.layer_metrics()
    traced_rate = len(spanned.lat) / sum(spanned.lat)
    plain_rate = len(plain.lat) / sum(plain.lat)
    metrics.update({
        "trace.ops_per_s_traced": traced_rate,
        "trace.ops_per_s_untraced": plain_rate,
        "trace.overhead_ratio": plain_rate / traced_rate,
    })
    metrics.update(layers.pinned_rows())
    argvs = [W.make_op(W.CLI_IN_PROCESS, opts.seed, i)[1]
             for i in range(2 * len(W.CLI_SUBCOMMANDS))]
    metrics.update(layers.cli_facts(dict(os.environ), os.getcwd(), argvs,
                                    W.CLI_IN_PROCESS.kinds[0].call))
    res = phase_result(spanned)
    res["failures"] += plain.failures
    res["attempted"] += plain.attempted
    res["layers"] = metrics
    res["spans"] = len(tracer.name)
    return res


if __name__ == "__main__":
    sys.exit(main())
