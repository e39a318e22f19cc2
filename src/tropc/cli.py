"""Command line interface.

Exit codes: 0 on success, 1 for domain errors (the stable error name goes
to stderr), 2 for syntax errors (with the offending position).  Output is
deterministic for a fixed argument vector.  Each subcommand imports the
modules it runs, so a ``tropc`` process compiles only those: ``eval`` needs
no hull code, and only the four ideal commands load ``ideals``.
"""
from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import List, Optional, Sequence

from . import __version__
from .core import TropicalNumber
from .errors import PolySyntaxError, TropicalError
from .parser import format_number, format_poly, parse_poly
from .polynomial import TropicalPolynomial

SCHEMA = "tropc/1"


def _read_arg(text: str, opts) -> str:
    """The argument, or stdin for "-"; stdin is read once per run."""
    if text != "-":
        return text
    if opts.stdin is None:
        opts.stdin = sys.stdin.read().strip()
    return opts.stdin


def _load_poly(text: str, opts, arity=None) -> TropicalPolynomial:
    f = parse_poly(_read_arg(text, opts), arity=arity,
                   max_degree=opts.max_degree)
    if opts.reduced:
        from .essential import full_closure
        f = full_closure(f)
    return f


def _load_polys(texts: Sequence[str], opts) -> List[TropicalPolynomial]:
    """The polynomials, all over the largest arity any of them uses."""
    fs = [_load_poly(text, opts) for text in texts]
    arity = max(f.arity for f in fs)
    return [f if f.arity == arity else _load_poly(text, opts, arity)
            for text, f in zip(texts, fs)]


def _parse_point(text: str) -> List[TropicalNumber]:
    """Comma-separated numbers; a bad one is a syntax error at its
    position."""
    out = []
    consumed = 0
    for part in text.split(","):
        try:
            out.append(TropicalNumber.parse(part))
        except (ValueError, ZeroDivisionError):
            raise PolySyntaxError(
                f"bad coordinate {part.strip()!r}", consumed)
        consumed += len(part) + 1
    return out


def _frac(v: Fraction) -> str:
    return str(v)


def _point_json(point) -> list:
    return [c.to_json() for c in point]


def _emit(opts, text_lines, json_obj):
    if opts.json:
        json_obj = {"schema": SCHEMA, **json_obj}
        print(json.dumps(json_obj, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_eval(opts) -> int:
    f = _load_poly(opts.poly, opts)
    point = _parse_point(_read_arg(opts.point, opts))
    value = f.evaluate(point)
    _emit(opts, [format_number(value)],
          {"value": value.to_json(), "is_root": value.is_ghost_or_bottom()})
    return 0


def _cmd_essential(opts) -> int:
    from .essential import essential_part
    g = essential_part(_load_poly(opts.poly, opts))
    _emit(opts, [format_poly(g)], {"poly": g.to_json()})
    return 0


def _cmd_full(opts) -> int:
    from .essential import full_closure
    g = full_closure(_load_poly(opts.poly, opts))
    _emit(opts, [format_poly(g)], {"poly": g.to_json()})
    return 0


def _cmd_classify(opts) -> int:
    from .essential import classify_monomials
    f = _load_poly(opts.poly, opts)
    cx = classify_monomials(f)
    lines = [f"{exp}: {cls}" for exp, cls in sorted(cx.classification.items())]
    _emit(opts, lines, {
        "classification": [
            {"exp": list(e), "class": cls}
            for e, cls in sorted(cx.classification.items())],
        "hull_lattice_points": [
            {"exp": list(e), "height": _frac(h)}
            for e, h in sorted(cx.hull_lattice_points.items())],
        "subdivision": None if cx.subdivision is None else
            [[list(e) for e in cell] for cell in cx.subdivision],
        "interior_vertices": [list(e) for e in sorted(cx.interior_vertices)],
    })
    return 0


def _cmd_equiv(opts) -> int:
    from .essential import equivalent
    f, g = _load_polys([opts.poly1, opts.poly2], opts)
    same = equivalent(f, g)
    _emit(opts, ["true" if same else "false"], {"equivalent": same})
    return 0


def _factorization_json(fact):
    return {
        "unit": fact.unit.to_json(),
        "certified": fact.certified,
        "factors": [{"poly": p.to_json(), "multiplicity": m}
                    for p, m in fact.factors],
    }


def _factorization_text(fact):
    pieces = []
    for p, m in fact.factors:
        body = f"({format_poly(p)})"
        pieces.append(body if m == 1 else f"{body}^{m}")
    return [f"unit: {format_number(fact.unit)}",
            "factors: " + "".join(pieces) if pieces else "factors: (none)"]


def _cmd_factor(opts) -> int:
    from .univariate import factor_full, factor_tangible_full
    f = _load_poly(opts.poly, opts)
    fact = factor_tangible_full(f) if opts.tangible else factor_full(f)
    _emit(opts, _factorization_text(fact), _factorization_json(fact))
    return 0


def _cmd_roots(opts) -> int:
    from .univariate import find_root, roots_with_multiplicity
    f = _load_poly(opts.poly, opts)
    if opts.single:
        point = find_root(f)
        text = ",".join(format_number(c) for c in point)
        _emit(opts, [text], {"root": _point_json(point)})
        return 0
    roots = roots_with_multiplicity(f)
    lines = [f"{format_number(r)} (multiplicity {m})" for r, m in roots]
    _emit(opts, lines, {"roots": [
        {"point": r.to_json(), "multiplicity": m} for r, m in roots]})
    return 0


def _cmd_common_root(opts) -> int:
    from .univariate import common_root
    point = common_root(_load_polys(opts.polys, opts))
    text = ",".join(format_number(c) for c in point)
    _emit(opts, [text], {"root": _point_json(point)})
    return 0


def _interval_text(iv) -> str:
    lo = "-inf" if iv[0] is None else str(iv[0])
    hi = "+inf" if iv[1] is None else str(iv[1])
    return f"({lo},{hi})"


def _interval_json(iv):
    if iv is None:
        return None
    return [None if iv[0] is None else _frac(iv[0]),
            None if iv[1] is None else _frac(iv[1])]


def _cmd_comset(opts) -> int:
    from .sets import comset1d
    comps = comset1d(_load_poly(opts.poly, opts))
    lines = []
    for c in comps:
        bits = []
        if c.tangible is not None:
            bits.append("tangible" + _interval_text(c.tangible))
        if c.ghost is not None:
            bits.append("ghost" + _interval_text(c.ghost))
        if c.neg_inf:
            bits.append("-inf")
        lines.append(" ".join(bits))
    if not lines:
        lines = ["(empty complement)"]
    _emit(opts, lines, {"components": [
        {"tangible": _interval_json(c.tangible),
         "ghost": _interval_json(c.ghost),
         "neg_inf": c.neg_inf} for c in comps]})
    return 0


def _cmd_curve2d(opts) -> int:
    from .sets import corner_locus_2d
    f = _load_poly(opts.poly, opts, arity=2)
    bounds = _parse_point(opts.bbox)
    if len(bounds) != 4 or not all(c.is_tangible() for c in bounds):
        raise PolySyntaxError("bounding box needs xmin,ymin,xmax,ymax", 0)
    bbox = tuple(c.value for c in bounds)
    if bbox[0] > bbox[2] or bbox[1] > bbox[3]:
        raise PolySyntaxError("bounding box has xmin > xmax or ymin > ymax", 0)
    locus = corner_locus_2d(f, bbox)
    obj = {
        "whole_plane": locus.whole_plane,
        "segments": [
            {"from": [_frac(s["from"][0]), _frac(s["from"][1])],
             "to": [_frac(s["to"][0]), _frac(s["to"][1])],
             "indices": s["indices"]} for s in locus.segments],
        "rays": [
            {"from": [_frac(r["from"][0]), _frac(r["from"][1])],
             "dir": [_frac(r["dir"][0]), _frac(r["dir"][1])],
             "indices": r["indices"]} for r in locus.rays],
    }
    print(json.dumps({"schema": SCHEMA, **obj}, sort_keys=True))
    return 0


def _cmd_nss(opts) -> int:
    from .ideals import IdealFG, weak_nullstellensatz
    fs = _load_polys(opts.polys, opts)
    result = weak_nullstellensatz(IdealFG(fs[0].arity, fs))
    if result.nonempty:
        text = ",".join(format_number(c) for c in result.witness)
        _emit(opts, [f"witness: {text}"],
              {"nonempty": True, "witness": _point_json(result.witness)})
    else:
        _emit(opts, [f"empty: {format_poly(result.proof_of_emptiness)}"],
              {"nonempty": False,
               "proof_of_emptiness": result.proof_of_emptiness.to_json()})
    return 0


def _cmd_radical_member(opts) -> int:
    from .ideals import IdealFG, radical_member_1d
    f, *gens = _load_polys([opts.poly] + opts.generators, opts)
    cert = radical_member_1d(f, IdealFG(f.arity, gens))
    if cert is None:
        _emit(opts, ["not a member"], {"member": False})
        return 0
    lines = [f"member: m={cert.m}"]
    for h, g in cert.combiners:
        lines.append(f"h = {format_poly(h)}  (for {format_poly(g)})")
    _emit(opts, lines, {"member": True, "m": cert.m, "combiners": [
        {"h": h.to_json(), "g": g.to_json()} for h, g in cert.combiners]})
    return 0


def _cmd_ghost_potent(opts) -> int:
    from .ideals import is_ghost_potent
    result = is_ghost_potent(_load_poly(opts.poly, opts))
    _emit(opts, ["true" if result else "false"], {"ghost_potent": result})
    return 0


def _cmd_member(opts) -> int:
    from .ideals import IdealFG, ideal_member_syntactic
    f, *gens = _load_polys([opts.poly] + opts.generators, opts)
    result = ideal_member_syntactic(f, IdealFG(f.arity, gens))
    _emit(opts,
          [f"heuristic-member: {'true' if result else 'false'}"],
          {"member": result, "heuristic": True})
    return 0


# ---------------------------------------------------------------------------


def _non_negative(text: str) -> int:
    """The argparse type of ``--max-degree``: an integer of at least 0."""
    try:
        n = int(text)
    except ValueError:
        n = -1
    if n < 0:
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {text!r}")
    return n


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="tropc",
        description="computer algebra for the extended tropical semiring",
        epilog="an argument that starts with '-' (-inf,1 or -2*x) reads as an"
               " option: put it after --, as in tropc eval -- 'x + y' -inf,1")
    top.add_argument("--json", action="store_true",
                     help="emit JSON instead of text")
    top.add_argument("--max-degree", type=_non_negative, default=64,
                     help="refuse polynomials above this total degree")
    top.add_argument("--reduced", action="store_true",
                     help="fully close polynomials after parsing")
    top.add_argument("--version", action="version", version=__version__)
    top.set_defaults(stdin=None)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate a polynomial at a point")
    p.add_argument("poly")
    p.add_argument("point", help="comma-separated coordinates, e.g. 1,2v")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("essential", help="essential part")
    p.add_argument("poly")
    p.set_defaults(func=_cmd_essential)

    p = sub.add_parser("full", help="full closure")
    p.add_argument("poly")
    p.set_defaults(func=_cmd_full)

    p = sub.add_parser("classify", help="monomial classification and hull")
    p.add_argument("poly")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("equiv", help="functional equivalence")
    p.add_argument("poly1")
    p.add_argument("poly2")
    p.set_defaults(func=_cmd_equiv)

    p = sub.add_parser("factor", help="certified factorization")
    p.add_argument("poly")
    p.add_argument("--tangible", action="store_true",
                   help="require a tangible-full input")
    p.set_defaults(func=_cmd_factor)

    p = sub.add_parser("roots", help="roots with multiplicity")
    p.add_argument("poly")
    p.add_argument("--single", action="store_true",
                   help="construct a single root instead")
    p.set_defaults(func=_cmd_roots)

    p = sub.add_parser("common-root", help="simultaneous root")
    p.add_argument("polys", nargs="+")
    p.set_defaults(func=_cmd_common_root)

    p = sub.add_parser("comset", help="complement components")
    p.add_argument("poly")
    p.set_defaults(func=_cmd_comset)

    p = sub.add_parser("curve2d", help="plane corner locus as JSON")
    p.add_argument("poly")
    p.add_argument("--bbox", default="-10,-10,10,10",
                   help="xmin,ymin,xmax,ymax")
    p.set_defaults(func=_cmd_curve2d)

    p = sub.add_parser("nss", help="weak nullstellensatz on generators")
    p.add_argument("polys", nargs="+")
    p.set_defaults(func=_cmd_nss)

    p = sub.add_parser("radical-member",
                       help="univariate radical membership with certificate")
    p.add_argument("poly")
    p.add_argument("generators", nargs="+")
    p.set_defaults(func=_cmd_radical_member)

    p = sub.add_parser("ghost-potent", help="is some power ghost")
    p.add_argument("poly")
    p.set_defaults(func=_cmd_ghost_potent)

    p = sub.add_parser("member",
                       help="heuristic syntactic ideal membership")
    p.add_argument("poly")
    p.add_argument("generators", nargs="+")
    p.set_defaults(func=_cmd_member)

    return top


def run_cli(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        opts = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return opts.func(opts)
    except PolySyntaxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TropicalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RecursionError:
        print("error: InternalError: input too deeply nested",
              file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
