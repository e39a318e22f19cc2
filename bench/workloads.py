"""Seeded inputs, operations and output checks of the four workloads.

Every input is built here from the seed; tropc only receives the finished
polynomials (or, for ``cli-process``, the argument vectors).  Operation ``i``
of a run draws its inputs from its own generator, seeded by the workload,
the seed and ``i``, so a run sees the same inputs whatever the speed of the
host, and every operation gets fresh polynomials: hull-cache hits come only
from sharing inside one operation.

An operation is ``kind.call(*args)``; the timed region is that call and
nothing else.  ``kind.check(args, out)`` runs afterwards, untimed, and
raises ``CheckFailed`` on a wrong answer.  ``canon`` turns an output into
text that only depends on the answer, for the per-run digest.
"""
from __future__ import annotations

import dataclasses
import io
import json
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

import tropc as T
from tropc import (NEG_INFINITY, TropicalNumber, TropicalPolynomial, ghost,
                   tangible)

BBOX = (-10, -10, 10, 10)


class CheckFailed(Exception):
    pass


def expect(cond, what):
    if not cond:
        raise CheckFailed(what)


class Kind(NamedTuple):
    name: str
    gen: Callable[[random.Random, int], tuple]
    call: Callable
    check: Callable[[tuple, object], None]


class Workload(NamedTuple):
    name: str
    why: str
    kinds: List[Kind]
    props: str  # generator parameters, printed next to the results
    period: int  # ops after which the mix of kinds and sizes repeats


def op_rng(workload: str, seed: int, i: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{i}")


# ---------------------------------------------------------------------------
# generators, modelled on tests/util.py::rand_poly


def rand_fraction(rng, lo=-9, hi=9, dens=(1, 1, 2, 3)) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.choice(dens))


def rand_coeff(rng, ghost_share=0.4):
    v = rand_fraction(rng)
    return ghost(v) if rng.random() < ghost_share else tangible(v)


def rand_poly(rng, arity, max_degree, n_terms, collinear=False,
              nonconstant=False) -> TropicalPolynomial:
    """``n_terms`` distinct random exponents of total degree at most
    ``max_degree`` (fewer where that many do not exist), each with a random
    coefficient.

    With ``collinear`` (arity >= 2) the exponents lie on one lattice line,
    giving a lower-dimensional Newton polytope.
    """
    if arity >= 2 and collinear:
        d = [rng.randint(0, 2) for _ in range(arity)]
        if not any(d):
            d[rng.randrange(arity)] = 1
        base = [rng.randint(0, 1) for _ in range(arity)]
        if sum(base) > max_degree:
            base = [0] * arity
        steps = [t for t in range(max_degree + 1)
                 if sum(base) + t * sum(d) <= max_degree]
        exps = {tuple(b + t * s for b, s in zip(base, d))
                for t in rng.sample(steps, min(n_terms, len(steps)))}
    else:
        exps = set()
        for _ in range(50 * n_terms):
            if len(exps) == n_terms:
                break
            exp = tuple(rng.randint(0, max_degree) for _ in range(arity))
            if sum(exp) <= max_degree:
                exps.add(exp)
    if nonconstant and all(sum(e) == 0 for e in exps):
        exps.add(tuple(1 if k == 0 else 0 for k in range(arity)))
    return TropicalPolynomial(arity, {e: rand_coeff(rng) for e in exps})


def rand_tangible_full(rng, degree) -> Tuple[TropicalPolynomial, list]:
    """A tangible-full univariate polynomial with known roots.

    Built directly from sorted roots r1 >= r2 >= ...: the coefficient of
    x^(lower+d-j) is unit + r1 + ... + rj, so no tropc arithmetic is
    involved.  Returns the polynomial and its roots as (value, multiplicity)
    with None standing for -inf.
    """
    unit = rand_fraction(rng)
    lower = rng.randint(0, 1) if degree > 1 else 0
    roots = sorted((rand_fraction(rng) for _ in range(degree - lower)),
                   reverse=True)
    terms = {}
    acc = unit
    top = degree
    terms[(top,)] = tangible(acc)
    for j, r in enumerate(roots, 1):
        acc += r
        terms[(top - j,)] = tangible(acc)
    mult: Dict[Optional[Fraction], int] = {}
    for r in roots:
        mult[r] = mult.get(r, 0) + 1
    if lower:
        mult[None] = lower
    return TropicalPolynomial(1, terms), sorted(mult.items(), key=_root_key)


def _root_key(item):
    return (-float("inf"),) if item[0] is None else (item[0],)


def is_collinear(exps) -> bool:
    """Is the support contained in a line (affine rank <= 1)?"""
    exps = list(exps)
    if len(exps) <= 2:
        return True
    base = exps[0]
    diffs = [tuple(a - b for a, b in zip(e, base)) for e in exps[1:]]
    d0 = next((d for d in diffs if any(d)), None)
    if d0 is None:
        return True
    n = len(d0)
    return all(d0[a] * d[b] == d0[b] * d[a]
               for d in diffs for a in range(n) for b in range(a + 1, n))


# ---------------------------------------------------------------------------
# reference evaluation and sample points, independent of tropc


def ref_eval(f: TropicalPolynomial, point) -> Tuple[Optional[Fraction], bool]:
    """(value, is_root) of f at a point, by max-plus arithmetic on Fractions.

    A point coordinate is a TropicalNumber; the result is a root when the
    maximum is -inf, is attained twice, or is attained by a ghost product.
    """
    best = None
    root = True
    for exp, c in f.terms.items():
        val = c.value
        gh = c.is_ghost()
        for e, x in zip(exp, point):
            if e:
                if x.is_neg_inf():
                    val = None
                    break
                val += e * x.value
                gh = gh or x.is_ghost()
        if val is None:
            continue
        if best is None or val > best:
            best, root = val, gh
        elif val == best:
            root = True
    return best, root


def sample_points(rng, arity, count):
    """Random points mixing tangible, ghost and -inf coordinates."""
    pts = []
    for _ in range(count):
        pt = []
        for _ in range(arity):
            roll = rng.random()
            v = Fraction(rng.randint(-24, 24), rng.choice((1, 2, 4)))
            pt.append(NEG_INFINITY if roll < 0.06
                      else ghost(v) if roll < 0.4 else tangible(v))
        pts.append(tuple(pt))
    pts.append((NEG_INFINITY,) * arity)
    return pts


def critical_points_1d(*polys):
    """Tie values of all affine forms, midpoints and outer points, each as
    tangible and ghost, plus -inf: enough to separate any two univariate
    piecewise-linear functions built from the given polynomials."""
    lines = [(e[0], c.value) for f in polys for e, c in f.terms.items()]
    ties = set()
    for a in range(len(lines)):
        for b in range(a + 1, len(lines)):
            (s1, h1), (s2, h2) = lines[a], lines[b]
            if s1 != s2:
                ties.add(Fraction(h2 - h1, s1 - s2))
    xs = sorted(ties)
    samples = set(xs)
    samples.update((u + v) / 2 for u, v in zip(xs, xs[1:]))
    if xs:
        samples.update((xs[0] - 1, xs[-1] + 1))
    else:
        samples.update((Fraction(-1), Fraction(0), Fraction(1)))
    pts = [(NEG_INFINITY,)]
    for v in sorted(samples):
        pts += [(tangible(v),), (ghost(v),)]
    return pts


def same_on(f, g, pts, what):
    for p in pts:
        expect(f.evaluate(p) == g.evaluate(p), f"{what} differs at {p}")


# ---------------------------------------------------------------------------
# canonical text of outputs, for the digest


def canon(obj):
    if isinstance(obj, TropicalPolynomial):
        return ("P", obj.arity, sorted(
            (e, c.tag, str(c.value)) for e, c in obj.terms.items()))
    if isinstance(obj, T.TropicalNumber):
        return ("N", obj.tag, None if obj.value is None else str(obj.value))
    if isinstance(obj, Fraction):
        return str(obj)
    if dataclasses.is_dataclass(obj):
        return (type(obj).__name__, [canon(getattr(obj, f.name))
                                     for f in dataclasses.fields(obj)])
    if isinstance(obj, dict):
        return sorted((repr(canon(k)), canon(v)) for k, v in obj.items())
    if isinstance(obj, (list, tuple)):
        return [canon(x) for x in obj]
    return obj


# ---------------------------------------------------------------------------
# hull-nd: arity 2 and 3 hulls through the LP, the planar subdivision and
# the pairwise corner clipping; the target of the hull-kernel and red_mul
# items of the ROADMAP.


# Sizes are not drawn at random but cycle with the op index, so every seed
# runs the same mix of sizes and seeds differ only in coefficients and
# exponents: op i is kind i % 7 in round q = i // 7; rounds cycle arity
# 2, 2, 3 and, every three rounds, the size step t = 0..3 (3 + t // 2
# terms in arity 2, 3 in arity 3), so the mix repeats every 84 ops.  Every
# extreme point of a hull costs an exact LP of a few milliseconds, so the
# inputs stay small: an op that takes longer than the host's short fast
# spells cannot be timed steadily (see README.md).


def _hull_arity(i):
    return 3 if (i // 7) % 3 == 2 else 2


def _hull_step(i):
    return (i // 21) % 4


def _hull_poly(rng, i, max_degree=2, n_terms=None):
    if n_terms is None:
        n_terms = 3 + _hull_step(i) // 2 if _hull_arity(i) == 2 else 3
    # each kind gets a collinear support in one round out of six
    return rand_poly(rng, _hull_arity(i), max_degree, n_terms,
                     collinear=(i // 7) % 6 == (i % 7) % 6)


def _points_for(rng, f):
    return sample_points(rng, f.arity, 12)


def _gen_closure(rng, i):
    f = _hull_poly(rng, i)
    return f, _points_for(rng, f)


def _check_same_function(args, out):
    f, pts = args
    same_on(out, f, pts, "closure/essential part")


def _gen_equiv(rng, i):
    f = _hull_poly(rng, i)
    if (i // 7) % 2 == 0:
        # a new term strictly below the hull, at the midpoint of two
        # exponents: functionally the same polynomial.  Supports with no
        # such lattice point get the unknown case below instead.
        exps = sorted(f.terms)
        mids = sorted({tuple((a + b) // 2 for a, b in zip(e1, e2))
                       for e1 in exps for e2 in exps if e1 < e2
                       and not any((a + b) % 2 for a, b in zip(e1, e2))}
                      - set(exps))
        if mids:
            low = min(c.value for c in f.terms.values()) - 20
            g = f + TropicalPolynomial(f.arity,
                                       {rng.choice(mids): tangible(low)})
            return f, g, True, _points_for(rng, f)
    g = _hull_poly(rng, i)
    return f, g, None, _points_for(rng, f)  # unknown: checked on the points


def _check_equiv(args, out):
    f, g, expected, pts = args
    expect(isinstance(out, bool), "equivalent returned a non-bool")
    if expected is not None:
        expect(out == expected, "equivalent missed an equal function")
    if out:
        same_on(f, g, pts, "equivalent polynomials")


def _simplex_support(rng, arity, n):
    """`n` distinct exponents of degree <= 1 (vertices of the unit simplex),
    so that the hull, and with it the cost of its closure, depends on `n`
    and the arity alone."""
    pts = [tuple(int(k == j) for k in range(arity)) for j in range(-1, arity)]
    return rng.sample(pts, min(n, len(pts)))


def _gen_mul(rng, i):
    t = _hull_step(i)
    a = _hull_arity(i)
    f, g = (TropicalPolynomial(a, {e: rand_coeff(rng)
                                   for e in _simplex_support(rng, a, n)})
            for n in (2 + t % 2 if a == 2 else 2, 2))
    return f, g, _points_for(rng, f)


def _check_mul(args, out):
    f, g, pts = args
    same_on(out, f * g, pts, "red_mul")


def _gen_pow(rng, i):
    # f + g has 2 distinct terms (in arity 2, 3 in one size step of four),
    # one of them shared by f and g; k = 3 in another step.  Drawn freely,
    # the number of distinct terms of f + g decided the cost and made one
    # seed differ from the next; three terms with k = 3 cost 16 times two
    # terms with k = 2
    a = _hull_arity(i)
    t = _hull_step(i)
    exps = _simplex_support(rng, a, 3 if t == 3 and a == 2 else 2)
    f = TropicalPolynomial(a, {e: rand_coeff(rng) for e in exps[:2]})
    g = TropicalPolynomial(a, {e: rand_coeff(rng) for e in exps[1:]})
    return f, g, 3 if t == 1 else 2, _points_for(rng, f)


def _check_pow(args, out):
    f, g, k, pts = args
    same_on(out, (f + g) ** k, pts, "red_pow")


def _gen_classify(rng, i):
    return (_hull_poly(rng, i),)


def _check_classify(args, out):
    f, = args
    expect(set(out.classification) == set(f.terms),
           "classification does not cover the terms")
    ess = TropicalPolynomial(f.arity, {
        e: c for e, c in f.terms.items()
        if out.classification[e] == "essential"})
    same_on(ess, f, sample_points(random.Random(0), f.arity, 8),
            "essential terms of the classification")
    if f.arity == 2:
        expect(out.subdivision and all(
            set(cell) <= set(f.terms) for cell in out.subdivision),
            "subdivision cells are not subsets of the support")


def _gen_corner(rng, i):
    return (rand_poly(rng, 2, 3, 3 + _hull_step(i) // 2,
                      collinear=(i // 7) % 6 == 0),)


def _check_corner(args, out):
    f, = args
    terms = f.sorted_terms()
    if f.is_ghost_poly():
        expect(out.whole_plane, "all-ghost polynomial must give whole_plane")
        return
    for seg in out.segments:
        x = (seg["from"][0] + seg["to"][0]) / 2
        y = (seg["from"][1] + seg["to"][1]) / 2
        vals = {e: c.value + e[0] * x + e[1] * y for e, c in terms}
        top = max(vals.values())
        for e in seg["indices"]:
            expect(vals[tuple(e)] == top,
                   f"segment midpoint ({x},{y}) is not a tie of {e}")
    for seg in out.segments + out.rays:
        fx, fy = seg["from"]
        expect(BBOX[0] <= fx <= BBOX[2] and BBOX[1] <= fy <= BBOX[3],
               "corner locus point outside the bounding box")


HULL_ND = Workload(
    "hull-nd",
    "all three multivariate hull computations: the exact LP, "
    "_subdivision_2d and the pairwise corner clipping",
    [Kind("full_closure", _gen_closure, lambda f, pts: T.full_closure(f),
          _check_same_function),
     Kind("essential_part", _gen_closure,
          lambda f, pts: T.essential_part(f), _check_same_function),
     Kind("equivalent", _gen_equiv,
          lambda f, g, expected, pts: T.equivalent(f, g), _check_equiv),
     Kind("red_mul", _gen_mul, lambda f, g, pts: T.red_mul(f, g), _check_mul),
     Kind("red_pow", _gen_pow,
          lambda f, g, k, pts: T.red_pow(T.red_add(f, g), k), _check_pow),
     Kind("classify", _gen_classify,
          lambda f: T.classify_monomials(f, with_subdivision=True),
          _check_classify),
     Kind("corner_locus_2d", _gen_corner,
          lambda f: T.corner_locus_2d(f, BBOX), _check_corner)],
    "arity 2 in two rounds of three, else 3 (corner locus always 2); "
    "degree <=2, 3-4 terms in arity 2, 3 in arity 3; red_mul: operands of "
    "2-3 and 2 terms on vertices of the unit simplex; red_pow: f + g with 2 "
    "terms (3 in one arity-2 step of four) on such vertices, k = 2 or 3; "
    "ghost share 0.4; one op in six on a collinear support", 84)


# ---------------------------------------------------------------------------
# univariate-cert: the 1-D sweep, certificate products and ideals; never
# reaches _lp, so a hull change should leave it unchanged while a red_mul
# change must show here too.


# op i is kind i % 6 in round q = i // 6; sizes cycle with q


def _gen_factor(rng, i):
    return (rand_poly(rng, 1, 8, 2 + (i // 6) % 6),)


def _check_factor(args, out):
    f, = args
    expect(out.certified, "factorization not certified")
    expect(out.expand() == T.full_closure(f),
           "expand() differs from full_closure(f)")


def _gen_roots(rng, i):
    f, roots = rand_tangible_full(rng, 1 + (i // 6) % 8)
    return f, roots


def _check_roots(args, out):
    f, roots = args
    got = sorted(((None if r.is_neg_inf() else r.value, m) for r, m in out),
                 key=_root_key)
    expect(got == roots, f"roots {got} differ from the built roots {roots}")
    for r, _ in out:
        expect(f.is_root((r,)), f"root {r} is not a root")


def _gen_comset(rng, i):
    f = rand_poly(rng, 1, 8, 2 + (i // 6 + 2) % 6)
    return f, critical_points_1d(f)


def _check_comset(args, out):
    f, pts = args
    for p in pts:
        inside = any(c.contains(p[0]) for c in out)
        expect(inside != f.is_root(p),
               f"comset1d and is_root disagree at {p[0]}")


def _gen_find_root(rng, i):
    return (rand_poly(rng, 1, 8, 2 + (i // 6 + 4) % 6, nonconstant=True),)


def _check_find_root(args, out):
    f, = args
    expect(f.is_root(out), f"find_root gave a non-root {out}")


def _gen_radical(rng, i):
    q = i // 6
    f, _ = rand_tangible_full(rng, 1 + q % 4)
    return f, 1 + (q // 4) % 3


def _radical(f, k):
    return T.radical_member_1d(f, T.IdealFG(1, [T.red_pow(f, k)]))


def _check_radical(args, out):
    f, k = args
    expect(out is not None, "f is not found in the radical of (f^k)")
    combo = out.combination()
    power = f ** out.m
    same_on(power, combo, critical_points_1d(power, combo),
            "radical certificate")


def _gen_nss(rng, i):
    q = i // 6
    gens = [rand_poly(rng, 1, 6, 2 + (q // 2 + j) % 4)
            for j in range(2 + q % 2)]
    if q % 8 == 7:
        gens.append(T.constant(tangible(rand_fraction(rng)), 1))
    return (gens,)


def _check_nss(args, out):
    gens, = args
    if out.nonempty:
        for g in gens:
            expect(g.is_root(out.witness), "witness is not a common root")
    else:
        p = out.proof_of_emptiness
        expect(p.is_constant() and p.constant_value().is_tangible(),
               "proof of emptiness is not a tangible constant")


UNIVARIATE_CERT = Workload(
    "univariate-cert",
    "the 1-D hull sweep, factorization certificates (expand) and ideals; "
    "never reaches _lp",
    # ops look tropc functions up at call time, where the tracer wraps them
    [Kind("factor_full", _gen_factor, lambda f: T.factor_full(f),
          _check_factor),
     Kind("roots_with_multiplicity", _gen_roots,
          lambda f, roots: T.roots_with_multiplicity(f), _check_roots),
     Kind("comset1d", _gen_comset, lambda f, pts: T.comset1d(f),
          _check_comset),
     Kind("find_root", _gen_find_root, lambda f: T.find_root(f),
          _check_find_root),
     Kind("radical_member_1d", _gen_radical, _radical, _check_radical),
     Kind("weak_nullstellensatz", _gen_nss,
          lambda gens: T.weak_nullstellensatz(T.IdealFG(1, gens)),
          _check_nss)],
    "arity 1; factor/comset/find_root: 2-7 terms, degree <=8; roots: "
    "tangible-full, degree 1-8; radical: tangible-full degree 1-4, k 1-3; "
    "nss: 2-3 generators of 2-5 terms, degree <=6, 1 in 8 with a tangible "
    "constant; ghost share 0.4", 144)


# ---------------------------------------------------------------------------
# eval-grid: core arithmetic and polynomial.evaluate over point grids; never
# calls essential, so it isolates the compiled-evaluation item.


def _grid(arity):
    """About 30 points per arity, so ops of every arity cost about the same."""
    if arity == 1:
        vals = [Fraction(k, 2) for k in range(-7, 8)]
        pts = [(t(v),) for v in vals for t in (tangible, ghost)]
    elif arity == 2:
        vals = [Fraction(k) for k in (-2, 0, 1)]
        pts = [(t1(a), t2(b)) for a in vals for b in vals
               for t1, t2 in ((tangible, tangible), (ghost, ghost),
                              (tangible, ghost))]
    else:
        pts = [(t(a), tangible(b), t(c)) for a in (-1, 1) for b in (-1, 0, 1)
               for c in (-1, 1) for t in (tangible, ghost)]
    for j in range(arity):
        pts.append(tuple(NEG_INFINITY if k == j else tangible(1)
                         for k in range(arity)))
    pts.append((NEG_INFINITY,) * arity)
    return pts


GRIDS = {a: _grid(a) for a in (1, 2, 3)}
GRID_STRIDE = 6


def _gen_grid(rng, i):
    # arity cycles 1, 2, 3 with i; term counts 3..6 cycle with i // 3 and
    # i // 12; each op takes every sixth grid point, from an offset that
    # cycles with i // 3, so the mix repeats every 144 ops
    arity = 1 + i % 3
    f = rand_poly(rng, arity, 4, 3 + (i // 3) % 4)
    g = rand_poly(rng, arity, 4, 3 + (i // 12) % 4)
    return f, g, GRIDS[arity][(i // 3) % GRID_STRIDE::GRID_STRIDE]


def _eval_grid(f, g, pts):
    fg, fk, fpg = f * g, f ** 3, f + g
    return [(f.is_root(p), g.is_root(p), fg.is_root(p), fk.is_root(p),
             fpg.is_root(p), T.zset_contains([f, g], p)) for p in pts]


def _check_grid(args, out):
    f, g, pts = args
    expect(len(out) == len(pts), "missing grid points")
    for p, (rf, rg, rfg, rfk, rfpg, both) in zip(pts, out):
        expect(rf == ref_eval(f, p)[1], f"is_root(f) wrong at {p}")
        expect(rfg == (rf or rg), f"root of f*g is not root of f or g at {p}")
        expect(rfk == rf, f"root of f^3 differs from root of f at {p}")
        expect(not (rf and rg) or rfpg, f"common root not a root of f+g {p}")
        expect(both == (rf and rg), f"zset_contains wrong at {p}")


EVAL_GRID = Workload(
    "eval-grid",
    "core arithmetic and polynomial.evaluate on point grids; never calls "
    "essential",
    [Kind("eval_grid", _gen_grid, _eval_grid, _check_grid)],
    "arity cycles 1, 2, 3; f, g 3-6 terms, degree <=4; ghost share 0.4; "
    f"grid points per arity {dict((a, len(p)) for a, p in GRIDS.items())} "
    f"(tangible, ghost and -inf coordinates), every {GRID_STRIDE}th in an op",
    144)


# ---------------------------------------------------------------------------
# cli-process: one `python -m tropc.cli --json ...` process per op; interpreter
# start, `import tropc.cli`, argparse, the parser and emit only show here.


def poly_text(f: TropicalPolynomial) -> str:
    names = ["x", "y", "z"][:f.arity]
    parts = []
    for exp, c in sorted(f.terms.items(), reverse=True):
        mono = [n if e == 1 else f"{n}^{e}" for n, e in zip(names, exp) if e]
        parts.append("*".join([str(c)] + mono))
    return " + ".join(parts)


def _small(rng, arity=1, deg=3, terms=3):
    return poly_text(_every_variable(
        rand_poly(rng, arity, deg, rng.randint(1, terms))))


def _every_variable(f):
    """Add x, y, ... where missing, so the parser infers the full arity."""
    terms = dict(f.terms)
    for k in range(f.arity):
        if not any(e[k] for e in terms):
            terms[tuple(int(j == k) for j in range(f.arity))] = tangible(0)
    return TropicalPolynomial(f.arity, terms)


def _tfull(rng, deg):
    f, roots = rand_tangible_full(rng, deg)
    return poly_text(f), roots


def _cli_args(rng, i):
    sub = CLI_SUBCOMMANDS[i % len(CLI_SUBCOMMANDS)]
    extra = None
    if sub == "eval":
        f = _every_variable(rand_poly(rng, 2, 3, rng.randint(1, 4)))
        pt = sample_points(rng, 2, 1)[0]
        args = [poly_text(f), ",".join(str(c) for c in pt)]
        extra = ref_eval(f, pt)
    elif sub in ("essential", "full", "ghost-potent"):
        args = [_small(rng, rng.choice((1, 2)), 3, 4)]
    elif sub == "classify":
        args = [_small(rng, 2, 2, 4)]
    elif sub == "equiv":
        a = rng.choice((1, 2))
        args = [_small(rng, a, 3, 3), _small(rng, a, 3, 3)]
    elif sub == "factor":
        args = [_small(rng, 1, 4, 4)]
    elif sub == "roots":
        text, extra = _tfull(rng, rng.randint(1, 4))
        args = [text]
    elif sub in ("common-root", "nss"):
        args = [_small(rng, 1, 3, 3) for _ in range(2)]
    elif sub == "comset":
        args = [_small(rng, 1, 4, 4)]
    elif sub == "curve2d":
        args = [_small(rng, 2, 2, 4)]
    elif sub == "radical-member":
        text, _ = _tfull(rng, rng.randint(1, 3))
        args = [text, f"({text})^{rng.randint(1, 2)}"]
    else:  # member
        args = [_small(rng, 1, 3, 3), _small(rng, 1, 2, 2)]
    # "--" ends the options: coefficients and points may start with "-"
    return ["--json", sub, "--", *args], extra


CLI_SUBCOMMANDS = ["eval", "essential", "full", "classify", "equiv", "factor",
                   "roots", "common-root", "comset", "curve2d", "nss",
                   "radical-member", "ghost-potent", "member"]


def _cli_run(argv, extra):
    proc = subprocess.run([sys.executable, "-m", "tropc.cli", *argv],
                          capture_output=True, text=True, timeout=60)
    return proc.returncode, proc.stdout, proc.stderr


def _check_cli(args, out):
    argv, extra = args
    code, stdout, stderr = out
    expect(code == 0, f"exit code {code} for {argv}: {stderr.strip()}")
    lines = stdout.strip().splitlines()
    expect(len(lines) == 1, f"expected one JSON line for {argv}")
    obj = json.loads(lines[0])
    expect(obj.get("schema") == "tropc/1", "output not tagged tropc/1")
    sub = argv[1]
    if sub == "eval":
        value, root = extra
        got = obj["value"]
        expect(obj["is_root"] == root, "eval: is_root differs")
        expect((got["value"] is None) == (value is None)
               and (value is None or Fraction(got["value"]) == value),
               "eval: value differs")
    elif sub == "roots":
        got = sorted(((None if r["point"]["value"] is None
                       else Fraction(r["point"]["value"]), r["multiplicity"])
                      for r in obj["roots"]), key=_root_key)
        expect(got == extra, "roots differ from the built roots")
    elif sub == "radical-member":
        expect(obj["member"], "f not in the radical of (f^k)")


CLI_PROCESS = Workload(
    "cli-process",
    "interpreter start, import tropc.cli, argparse, parser and emit, one "
    "process per op",
    [Kind("cli", _cli_args, _cli_run, _check_cli)],
    f"one child process at a time cycling {len(CLI_SUBCOMMANDS)} "
    "subcommands with --json; inputs <=4 terms, degree <=4, arity 1-2", 14)


def _run_cli_in_process(argv, extra):
    import tropc.cli  # here, so that set-up of the other workloads skips it
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = tropc.cli.run_cli(argv)
    return code, out.getvalue(), err.getvalue()


# the same argument vectors through run_cli in this process, where spans
# into parser and cli can be recorded
CLI_IN_PROCESS = CLI_PROCESS._replace(
    kinds=[Kind("run_cli", _cli_args, _run_cli_in_process, _check_cli)])

WORKLOADS = {w.name: w for w in (HULL_ND, UNIVARIATE_CERT, EVAL_GRID,
                                 CLI_PROCESS)}
TRACED_VARIANT = {"cli-process": CLI_IN_PROCESS}


def make_op(workload: Workload, seed: int, i: int):
    kind = workload.kinds[i % len(workload.kinds)]
    return kind, kind.gen(op_rng(workload.name, seed, i), i)


def input_polys(args):
    """The polynomials among an op's arguments, for the input properties."""
    out = []
    for a in args:
        if isinstance(a, TropicalPolynomial):
            out.append(a)
        elif isinstance(a, list) and a and isinstance(a[0],
                                                      TropicalPolynomial):
            out.extend(a)
    return out


def shifted(args, c):
    """The op's arguments with every coefficient of every polynomial raised
    by the constant c.

    Adding one constant to all coefficients moves each polynomial's values
    by c and leaves its Newton hull, ties and roots as they were, so the op
    does the same work and passes the same checks, while value-keyed caches
    see new keys and object-keyed ones new objects.
    """
    def shift(f):
        return TropicalPolynomial(f.arity, {
            e: TropicalNumber(v.tag, v.value + c) for e, v in f.terms.items()})

    out = []
    for a in args:
        if isinstance(a, TropicalPolynomial):
            a = shift(a)
        elif isinstance(a, list) and a and isinstance(a[0],
                                                      TropicalPolynomial):
            a = [shift(f) for f in a]
        out.append(a)
    return tuple(out)
