"""Per-layer measurement: spans around tropc's public functions, the
pinned-row layer table and the CLI start-up facts.

Spans are recorded from outside the program.  ``Tracer.install`` replaces
each public function at every binding callers use (``tropc.essential.red_mul``
as well as ``tropc.univariate.red_mul`` and ``tropc.red_mul``) and each traced
method on its class; ``uninstall`` puts the originals back.  A span is
(name, start, end, parent, op id), kept in flat arrays in memory and written
out when the run ends.  The layer names are the module names.
"""
from __future__ import annotations

import statistics
import subprocess
import sys
import time
from array import array
from contextlib import contextmanager
from fractions import Fraction

import tropc as T
import tropc.cli
import tropc.essential
from tropc import ghost, tangible

# layer -> public functions of that module; _lp is reported under essential
FUNCTIONS = {
    "essential": ["classify_monomials", "essential_part", "full_closure",
                  "is_full", "equivalent", "red_add", "red_mul", "red_pow",
                  "slope_sequence", "divides"],
    "_lp": ["lp_max", "lp_feasible"],
    "univariate": ["factor_full", "factor_tangible_full",
                   "roots_with_multiplicity", "find_root", "common_root"],
    "ideals": ["radical_member_1d", "weak_nullstellensatz", "is_ghost_potent",
               "ideal_member_syntactic", "verify_radical_certificate"],
    "sets": ["comset1d", "comset_meet", "comset_leq", "zset_contains",
             "corner_locus_2d"],
    "parser": ["parse_poly", "format_poly", "format_number"],
    "cli": ["run_cli"],
}
METHODS = {
    "polynomial": [(T.TropicalPolynomial, m) for m in
                   ("__mul__", "__add__", "__pow__", "evaluate", "substitute")],
    "univariate": [(T.Factorization, "expand")],
    "ideals": [(T.IdealFG, "__post_init__"),
               (T.RadicalCertificate, "combination")],
}
LAYERS = ["essential", "polynomial", "univariate", "ideals", "sets", "parser",
          "cli"]
OP_LAYER = "op"  # the root span of each op, recorded by the benchmark


def _term_pairs(args, out):
    return len(args[0].terms) * len(args[1].terms)


def _arity(args, out):
    return args[0].arity


def _cert_m(args, out):
    return -1 if out is None else out.m


def _segments(args, out):
    return len(out.segments)


def _cache_len():
    cache = getattr(tropc.essential, "_COMPLEX_CACHE", None)
    return -1 if cache is None else len(cache)


# values recorded per span: computed from (args, result) after the call
EXTRAS = {"__mul__": _term_pairs, "full_closure": _arity,
          "radical_member_1d": _cert_m, "corner_locus_2d": _segments}


class Tracer:
    """Spans around tropc's public functions, recorded while ``enabled``."""

    def __init__(self):
        self.names = []          # span name table
        self.layers = []         # layer of each name
        self.name_ids = {}
        self.name = array("i")   # per span: name id
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.extra = {}          # span index -> recorded value
        self.stack = [-1]
        self.op_id = -1
        self.enabled = False
        self._restore = []

    def _name_id(self, name, layer):
        nid = self.name_ids.get(name)
        if nid is None:
            nid = self.name_ids[name] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
        return nid

    def call(self, nid, fn, args, kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.op.append(self.op_id)
        self.end.append(0.0)
        self.stack.append(idx)
        name = self.names[nid]
        before = _cache_len() if name == "classify_monomials" else 0
        self.start.append(time.perf_counter())
        try:
            out = fn(*args, **kwargs)
        finally:
            self.end[idx] = time.perf_counter()
            self.stack.pop()
        if name == "classify_monomials":
            # a lookup that leaves the cache size unchanged was a hit
            self.extra[idx] = int(_cache_len() == before and before >= 0)
        elif name in EXTRAS:
            self.extra[idx] = EXTRAS[name](args, out)
        return out

    def run_op(self, op_id, kind_name, fn, args):
        self.op_id = op_id
        return self.call(self._name_id("op:" + kind_name, OP_LAYER), fn,
                         args, {})

    def _wrap(self, fn, name, layer):
        nid = self._name_id(name, layer)
        call = self.call

        def wrapper(*args, **kwargs):
            return call(nid, fn, args, kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, extra_modules=()):
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "tropc" or n.startswith("tropc."))]
        modules += list(extra_modules)
        for layer, names in FUNCTIONS.items():
            owner = sys.modules["tropc." + layer]
            for name in names:
                fn = getattr(owner, name)
                wrapper = self._wrap(fn, name, layer)
                for mod in modules:
                    for attr, val in list(vars(mod).items()):
                        if val is fn:
                            self._restore.append((mod, attr, fn))
                            setattr(mod, attr, wrapper)
        for layer, methods in METHODS.items():
            for cls, meth in methods:
                fn = cls.__dict__[meth]
                self._restore.append((cls, meth, fn))
                setattr(cls, meth, self._wrap(fn, meth, layer))

    def uninstall(self):
        for obj, attr, fn in reversed(self._restore):
            setattr(obj, attr, fn)
        self._restore.clear()

    def write(self, path):
        """Spans as tab-separated lines: name, layer, start, end, parent, op."""
        with open(path, "w") as out:
            out.write("name\tlayer\tstart\tend\tparent\top\n")
            for k in range(len(self.name)):
                nid = self.name[k]
                out.write(f"{self.names[nid]}\t{self.layers[nid]}\t"
                          f"{self.start[k]:.9f}\t{self.end[k]:.9f}\t"
                          f"{self.parent[k]}\t{self.op[k]}\n")

    # -- aggregation ------------------------------------------------------

    def layer_metrics(self):
        """Per-layer metrics from the recorded spans.  The traced ops are
        the same for every run of a seed, so the counts repeat exactly."""
        n = len(self.name)
        dur = [self.end[k] - self.start[k] for k in range(n)]
        child = [0.0] * n
        for k in range(n):
            p = self.parent[k]
            if p >= 0:
                child[p] += dur[k]
        layer_of = [self.layers[self.name[k]] for k in range(n)]
        name_of = [self.names[self.name[k]] for k in range(n)]

        by_name = {}
        for k in range(n):
            by_name.setdefault(name_of[k], []).append(k)

        def spans(*names):
            return [k for name in names for k in by_name.get(name, ())]

        def p50(ks, scale):
            return statistics.median(dur[k] for k in ks) * scale if ks else 0.0

        def total(ks):
            return sum(dur[k] for k in ks)

        self_by_layer = {}
        for k in range(n):
            layer = "essential" if layer_of[k] == "_lp" else layer_of[k]
            self_by_layer[layer] = (self_by_layer.get(layer, 0.0)
                                    + dur[k] - child[k])
        op_total = sum(dur[k] for k in range(n) if layer_of[k] == OP_LAYER)
        m = {}
        for layer in LAYERS:
            m[f"{layer}.self_s"] = self_by_layer.get(layer, 0.0)
            m[f"{layer}.self_share"] = (self_by_layer.get(layer, 0.0)
                                        / op_total if op_total else 0.0)
        m["outside.self_share"] = (self_by_layer.get(OP_LAYER, 0.0) / op_total
                                   if op_total else 0.0)

        ess = [k for k in range(n) if layer_of[k] == "essential"]
        lp_top = [k for k in range(n) if layer_of[k] == "_lp"
                  and (self.parent[k] < 0 or layer_of[self.parent[k]] != "_lp")]
        closures = spans("full_closure")
        lookups = spans("classify_monomials")
        hits = sum(self.extra.get(k, 0) for k in lookups)
        muls = spans("__mul__")
        evals = spans("evaluate")
        radicals = spans("radical_member_1d")
        ms = [self.extra[k] for k in radicals if self.extra.get(k, -1) >= 0]
        corners = spans("corner_locus_2d")
        segs = [self.extra[k] for k in corners if k in self.extra]
        m.update({
            "essential.calls": len(ess),
            "essential.lp_solves": len(lp_top),
            "essential.lp_s": total(lp_top),
            "essential.nd_closure_ms_p50": p50(
                [k for k in closures if self.extra.get(k, 0) >= 2], 1e3),
            "essential.1d_closure_us_p50": p50(
                [k for k in closures if self.extra.get(k, 0) == 1], 1e6),
            "essential.cache_lookups": len(lookups),
            "essential.cache_hit_ratio": hits / len(lookups) if lookups else 0.0,
            "polynomial.mul_calls": len(muls),
            "polynomial.mul_term_pairs": sum(self.extra.get(k, 0)
                                             for k in muls),
            "polynomial.mul_s": total(muls),
            "polynomial.eval_calls": len(evals),
            "polynomial.eval_us_p50": p50(evals, 1e6),
            "polynomial.eval_s": total(evals),
            "univariate.factor_ms_p50": p50(
                spans("factor_full", "factor_tangible_full"), 1e3),
            "univariate.certify_s": total(spans("expand")),
            "ideals.radical_ms_p50": p50(radicals, 1e3),
            "ideals.cert_m_mean": statistics.mean(ms) if ms else 0.0,
            "ideals.nss_us_p50": p50(spans("weak_nullstellensatz"), 1e6),
            "sets.comset_us_p50": p50(spans("comset1d"), 1e6),
            "sets.corner_locus_ms_p50": p50(corners, 1e3),
            "sets.segments_out": statistics.mean(segs) if segs else 0.0,
            "parser.parse_calls": len(spans("parse_poly")),
            "parser.parse_us_p50": p50(spans("parse_poly"), 1e6),
            "parser.format_us_p50": p50(spans("format_poly"), 1e6),
        })
        return m


# ---------------------------------------------------------------------------
# pinned rows: the ROADMAP baseline table on fixed inputs


def _per_call(fn, args_list, repeats=5):
    """Median over repeats of the mean time of one call, in seconds.

    ``args_list`` holds one argument tuple per call of a repeat; closures
    get inputs shifted by a different constant each call, so none of them
    is answered from the hull cache.
    """
    times = []
    for r in range(repeats):
        batch = args_list[r] if isinstance(args_list[0], list) else args_list
        t0 = time.perf_counter()
        for args in batch:
            fn(*args)
        times.append((time.perf_counter() - t0) / len(batch))
    return statistics.median(times)


def _shifted(f, count, base):
    return [(f.scale(tangible(base + j)),) for j in range(count)]


def _shifted_batches(f, repeats, per):
    return [_shifted(f, per, 1000 * (r + 1)) for r in range(repeats)]


def pinned_rows():
    P = T.parse_poly
    text5 = "2*x^4 + 5*x^3 + 5*x^2 + 3*x + 0"
    f5 = P(text5)
    f6 = P("3*x^2*y + 1v*x*y^2 + 2*x^2 + 0*y^2 + 4*x*y + 1")
    f8 = P("x^8 + 3*x^7 + 1v*x^5 + 4*x^4 + 2*x^2 + -1*x + 0")
    xy4 = P("(x + y + 0)^4")
    a, b = tangible(Fraction(3, 2)), ghost(Fraction(5, 2))
    pt1, pt2 = (tangible(1),), (tangible(1), ghost(-1))
    bbox = (-10, -10, 10, 10)
    return {
        "pin.num_add_us": 1e6 * _per_call(T.trop_add, [(a, b)] * 2000),
        "pin.num_mul_us": 1e6 * _per_call(T.trop_mul, [(a, b)] * 2000),
        "pin.eval_5t_us": 1e6 * _per_call(f5.evaluate, [(pt1,)] * 300),
        "pin.eval_6t_2d_us": 1e6 * _per_call(f6.evaluate, [(pt2,)] * 200),
        "pin.parse_5t_us": 1e6 * _per_call(P, [(text5,)] * 50),
        "pin.closure_1d_deg8_us": 1e6 * _per_call(
            T.full_closure, _shifted_batches(f8, 5, 30)),
        "pin.closure_xy0_pow4_ms": 1e3 * _per_call(
            T.full_closure, _shifted_batches(xy4, 5, 1)),
        "pin.factor_deg8_ms": 1e3 * _per_call(
            T.factor_full, _shifted_batches(f8, 5, 5)),
        "pin.comset1d_us": 1e6 * _per_call(T.comset1d, [(f5,)] * 100),
        "pin.corner_locus_6t_ms": 1e3 * _per_call(
            T.corner_locus_2d, [(f6, bbox)] * 10),
    }


# ---------------------------------------------------------------------------
# CLI facts


def cli_facts(env, cwd, argvs, run_cli_op, repeats=7):
    """Bare interpreter start, fresh-process ``import tropc.cli`` above it,
    and in-process ``run_cli`` latency on the given argument vectors.  The
    process starts are the fastest of `repeats`, as a ``cli-process`` op's
    latency is its fastest round."""
    floor, imp = [], []
    for _ in range(repeats):
        for code, out in (("pass", floor), ("import tropc.cli", imp)):
            t0 = time.perf_counter()
            # capture_output: with pipes, run() returns on end of output
            # instead of polling the exit status every 50 ms
            subprocess.run([sys.executable, "-c", code], env=env, cwd=cwd,
                           check=True, capture_output=True, timeout=60)
            out.append(time.perf_counter() - t0)
    lat = []
    for args in argvs:
        t0 = time.perf_counter()
        run_cli_op(*args)
        lat.append(time.perf_counter() - t0)
    return {
        "cli.python_floor_ms": 1e3 * min(floor),
        "cli.import_ms": 1e3 * (min(imp) - min(floor)),
        "cli.run_cli_ms_p50": 1e3 * statistics.median(lat),
    }


@contextmanager
def installed(tracer, extra_modules=()):
    """Wrappers in place for the block; spans are recorded while
    ``tracer.enabled`` is set."""
    tracer.install(extra_modules)
    try:
        yield tracer
    finally:
        tracer.uninstall()
