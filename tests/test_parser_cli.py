"""Text syntax round trips and the command line interface."""
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import tropc
import tropc.cli
from tropc import (ArityMismatch, MaxDegreeExceeded, PolySyntaxError,
                   TropicalPolynomial, format_poly, ghost, parse_poly,
                   tangible)
from tropc.cli import run_cli
from util import rand_poly

P = parse_poly
SRC = os.path.dirname(os.path.dirname(os.path.abspath(tropc.__file__)))


def _fresh_python(*args, stdin=None):
    """One new interpreter with this checkout's src/ first on its path:
    the completed process, stdout and stderr as text."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    return subprocess.run([sys.executable, *args], input=stdin,
                          capture_output=True, text=True, env=env, timeout=60)


class TestParser:
    def test_pinned(self):
        assert P("x^2 + 0*x + 2") == TropicalPolynomial(
            1, {(2,): tangible(0), (1,): tangible(0), (0,): tangible(2)})
        assert P("2x") == P("2*x")
        assert P("2v") == TropicalPolynomial(1, {(0,): ghost(2)})
        assert P("-inf") == TropicalPolynomial(1, {})
        assert P("5/2*x") == TropicalPolynomial(1, {(1,): tangible(Fraction(5, 2))})
        assert P("-5/2") == TropicalPolynomial(1, {(0,): tangible(Fraction(-5, 2))})

    def test_variables(self):
        assert P("x*y*z").arity == 3
        assert P("x1*x2*x3*x4").arity == 4
        assert P("y").terms == {(0, 1): tangible(0)}

    def test_parenthesized_raw_product(self):
        assert P("(x + 1)(x + 2)") == P("x + 1") * P("x + 2")
        assert P("(x + 3)^2") == P("x + 3") ** 2
        assert P("(x + 3)^2") == P("x^2 + 3v*x + 6")

    def test_arity_hint(self):
        assert P("x", arity=3).arity == 3
        with pytest.raises(ArityMismatch):
            P("x*y", arity=1)

    @pytest.mark.parametrize("text,pos", [
        ("x - 1", 2),
        ("x ^ -1", 4),
        ("x0", 0),
        ("w + 1", 0),
        ("(x + 1", 6),
        ("", 0),
        ("x + ", 4),
        ("x @ 1", 2),
        ("y7", 0),
    ])
    def test_errors_carry_positions(self, text, pos):
        with pytest.raises(PolySyntaxError) as err:
            P(text)
        assert err.value.position == pos
        assert err.value.name == "SyntaxError"

    def test_over_long_numbers(self):
        # past the interpreter's digit limit for int(); the position is
        # the number's
        for text, pos in (("1" * 5000, 0), ("x^" + "1" * 5000, 2),
                          ("x + 1/" + "1" * 5000, 4)):
            with pytest.raises(PolySyntaxError) as err:
                P(text)
            assert err.value.position == pos
            assert "number too long" in str(err.value)

    def test_variable_index_limit(self):
        # the index becomes the arity, so x1001 and beyond are refused on
        # their digits, before any conversion
        assert P("x1000").arity == 1000
        assert P("x0001000 + x2").arity == 1000
        for text in ("x1001", "x" + "1" * 5000, "x99999999999"):
            with pytest.raises(PolySyntaxError) as err:
                P(text)
            assert err.value.position == 0
            assert "variable index too large" in str(err.value)
        with pytest.raises(PolySyntaxError) as err:
            P("y + x1001")
        assert err.value.position == 4

    def test_requested_arity_limit(self):
        # a requested arity is capped like a variable index, before any
        # N-entry exponent tuple is built
        assert P("x", arity=1000).arity == 1000
        for arity in (1001, 10 ** 11):
            with pytest.raises(ArityMismatch):
                P("x + 0", arity=arity)

    def test_arity_zero_round_trip(self):
        # text with no variable parses at arity 0; without a requested
        # arity it still parses at arity 1
        for f in (TropicalPolynomial(0, {(): tangible(3)}),
                  TropicalPolynomial(0, {(): ghost(Fraction(-1, 2))}),
                  TropicalPolynomial(0, {})):
            text = format_poly(f)
            g = P(text, arity=0)
            assert g == f and format_poly(g) == text, text
            assert P(text).arity == 1, text
        for text, arity in (("x", 0), ("3", -1), ("x + 0", -2)):
            with pytest.raises(ArityMismatch):
                P(text, arity=arity)

    def test_format_pinned(self):
        assert format_poly(P("0*x^2 + 0v*x + 2")) == "x^2 + 0v*x + 2"
        assert format_poly(P("x*y + 3")) == "x*y + 3"
        assert format_poly(TropicalPolynomial(1, {})) == "-inf"
        assert format_poly(P("x1 + x4")) == "x1 + x4"

    def test_round_trip_byte_identical(self):
        rng = random.Random(137)
        for _ in range(300):
            f = rand_poly(rng, rng.randint(1, 4), 6, 7, nonempty=False)
            text = format_poly(f)
            g = P(text, arity=f.arity)
            assert g == f
            assert format_poly(g) == text


def run(capsys, *argv):
    code = run_cli(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCli:
    def test_eval(self, capsys):
        code, out, _ = run(capsys, "eval", "x^2 + 0*x + 2", "1")
        assert code == 0 and out.strip() == "2v"

    def test_eval_json(self, capsys):
        code, out, _ = run(capsys, "--json", "eval", "x + 1", "0")
        obj = json.loads(out)
        assert code == 0
        assert obj["schema"] == "tropc/1"
        assert obj["value"] == {"tag": "t", "value": "1"}
        assert obj["is_root"] is False

    def test_leading_minus_after_double_dash(self, capsys):
        # argparse reads "-inf,1" as an option unless it follows "--"
        code, out, _ = run(capsys, "--json", "eval", "--", "x + y", "-inf,1")
        assert code == 0
        assert json.loads(out)["value"] == {"tag": "t", "value": "1"}

    def test_stdin_dash(self, capsys, monkeypatch):
        import io
        monkeypatch.setattr("sys.stdin", io.StringIO("x + 2\n"))
        code, out, _ = run(capsys, "essential", "-")
        assert code == 0 and out.strip() == "x + 2"

    def test_stdin_read_once_for_repeated_dash(self, capsys, monkeypatch):
        import io
        monkeypatch.setattr("sys.stdin", io.StringIO("x + 2\n"))
        code, out, _ = run(capsys, "equiv", "-", "-")
        assert code == 0 and out.strip() == "true"

    def test_common_root_mixed_arities(self, capsys):
        # every argument is parsed over the largest arity any of them uses
        code, out, _ = run(capsys, "common-root", "x + 1", "x*y + 1")
        assert code == 0 and out.strip() == "1v,1v"
        code, out, _ = run(capsys, "common-root", "x + 0", "y + 1")
        assert code == 0 and out.strip() == "1v,1v"

    def test_equiv_mixed_arities(self, capsys):
        code, out, _ = run(capsys, "equiv", "x + 0", "x + 0*y^0")
        assert code == 0 and out.strip() == "true"
        code, out, _ = run(capsys, "equiv", "x + 0", "x + y")
        assert code == 0 and out.strip() == "false"

    def test_nss_mixed_arities(self, capsys):
        code, out, _ = run(capsys, "--json", "nss", "x + 0", "y + 0")
        obj = json.loads(out)
        assert code == 0 and obj["nonempty"] is True
        assert obj["witness"] == [{"tag": "g", "value": "0"}] * 2
        code, out, _ = run(capsys, "nss", "y + 0", "3")
        assert code == 0 and out.strip() == "empty: 3"

    def test_member_mixed_arities(self, capsys):
        code, out, _ = run(capsys, "member", "x*y + y", "x + 0")
        assert code == 0 and out.strip() == "heuristic-member: true"
        code, out, _ = run(capsys, "member", "x*y + 0", "x + 0")
        assert code == 0 and out.strip() == "heuristic-member: false"

    def test_full_and_reduced(self, capsys):
        code, out, _ = run(capsys, "full", "x^2 + 0")
        assert code == 0 and out.strip() == "x^2 + 0v*x + 0"
        code, out, _ = run(capsys, "--reduced", "essential", "x^2 + 0")
        assert code == 0 and out.strip() == "x^2 + 0"

    def test_equiv(self, capsys):
        code, out, _ = run(capsys, "equiv", "(x + 3)^2", "x^2 + 6")
        assert code == 0 and out.strip() == "true"
        code, out, _ = run(capsys, "equiv", "x + 2", "x + 2v")
        assert code == 0 and out.strip() == "false"

    def test_factor_pinned(self, capsys):
        code, out, _ = run(capsys, "factor", "--tangible",
                           "2*x^4 + 5*x^3 + 5*x^2 + 3*x + 0")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "unit: 2"
        assert lines[1] == "factors: (x + 3)(x + 0)(x + -2)(x + -3)"

    def test_roots(self, capsys):
        code, out, _ = run(capsys, "--json", "roots", "--single", "x + 1")
        obj = json.loads(out)
        assert code == 0 and obj["root"] == [{"tag": "t", "value": "1"}]

    def test_comset(self, capsys):
        code, out, _ = run(capsys, "comset", "x + 2")
        assert code == 0
        assert out.strip().splitlines() == [
            "tangible(-inf,2) ghost(-inf,2) -inf",
            "tangible(2,+inf)"]

    def test_curve2d(self, capsys):
        code, out, _ = run(capsys, "curve2d", "x + y + 0", "--bbox=-5,-5,5,5")
        obj = json.loads(out)
        assert code == 0 and not obj["whole_plane"]
        assert len(obj["segments"]) == 3 and len(obj["rays"]) == 3
        # --reduced draws the full closure's locus, ghost terms included
        code, reduced, _ = run(capsys, "--reduced", "curve2d",
                               "x^2 + y^2 + 0", "--bbox=-5,-5,5,5")
        assert code == 0
        _, plain, _ = run(capsys, "curve2d", "x^2 + y^2 + 0",
                          "--bbox=-5,-5,5,5")
        _, closed, _ = run(capsys, "curve2d",
                           "x^2 + 0v*x*y + y^2 + 0v*x + 0v*y + 0",
                           "--bbox=-5,-5,5,5")
        assert reduced == closed != plain

    def test_curve2d_inverted_box_refused(self, capsys):
        for box in ("1,1,0,0", "0,1,1,0", "1,0,0,1"):
            code, out, err = run(capsys, "curve2d", "x + y + 0",
                                 "--bbox=" + box)
            assert code == 2 and out == "" and "SyntaxError" in err, box
        # a degenerate box is a segment, and stays allowed
        code, out, _ = run(capsys, "curve2d", "x + y + 0", "--bbox=0,-5,0,5")
        assert code == 0 and json.loads(out)["segments"]

    def test_nss(self, capsys):
        code, out, _ = run(capsys, "nss", "x + 1", "x + 5")
        assert code == 0 and out.strip() == "witness: 5v"
        code, out, _ = run(capsys, "nss", "x + 1", "3")
        assert code == 0 and out.strip() == "empty: 3"

    def test_radical_member(self, capsys):
        code, out, _ = run(capsys, "--json", "radical-member",
                           "x + 0", "(x + 0)^2")
        obj = json.loads(out)
        assert code == 0 and obj["member"] is True and obj["m"] == 2
        code, out, _ = run(capsys, "radical-member", "x + 1", "x + 0")
        assert code == 0 and out.strip() == "not a member"

    def test_radical_member_multivariate_in_either_order(self, capsys):
        # every argument is read over the largest arity, so a bivariate
        # candidate and a bivariate generator are refused alike
        for argv in (("x + 0", "y + 0"), ("x*y + 0", "x + 0"),
                     ("x + 0", "x*y + 0")):
            code, out, err = run(capsys, "radical-member", *argv)
            assert code == 1 and out == "", argv
            assert "ArityUnsupported" in err and "ArityMismatch" not in err

    def test_ghost_potent(self, capsys):
        code, out, _ = run(capsys, "ghost-potent", "1v*x + 0v")
        assert code == 0 and out.strip() == "true"

    def test_syntax_error_exit_2(self, capsys):
        code, out, err = run(capsys, "eval", "x - 1", "0")
        assert code == 2 and out == ""
        assert "SyntaxError" in err and "position 2" in err

    def test_over_long_number_exit_2(self):
        # a whole process, so that an escaping exception shows as a
        # traceback on stderr
        for text in ("1" * 5000, "x^" + "1" * 5000):
            proc = _fresh_python("-m", "tropc.cli", "--json", "eval", text,
                                 "1")
            assert proc.returncode == 2 and proc.stdout == ""
            assert proc.stderr.startswith("error: SyntaxError:")
            assert "Traceback" not in proc.stderr

    def test_guardrails_exit_2(self):
        # a huge exponent in a coordinate and a huge variable index are
        # refused before the work, with no traceback
        for args in (("x + 0", "1e999999999"), ("x" + "1" * 5000, "1"),
                     ("x1001", "1")):
            proc = _fresh_python("-m", "tropc.cli", "--json", "eval", *args)
            assert proc.returncode == 2 and proc.stdout == ""
            assert proc.stderr.startswith("error: SyntaxError:")
            assert "Traceback" not in proc.stderr

    def test_bad_bbox_exit_2(self):
        # a bound is read like a coordinate: exponent notation is refused
        # before the work, a ghost, -inf or missing bound is not a box, and
        # "-" is a bad bound, not a read of stdin
        for box, message in (("1e1000000,0,1e1000001,1", "bad coordinate"),
                             ("0v,0,1,1", "needs xmin,ymin,xmax,ymax"),
                             ("-inf,0,1,1", "needs xmin,ymin,xmax,ymax"),
                             ("1,2,3", "needs xmin,ymin,xmax,ymax"),
                             ("a,0,1,1", "bad coordinate 'a' at position 0"),
                             ("-", "bad coordinate '-' at position 0")):
            proc = _fresh_python("-m", "tropc.cli", "curve2d",
                                 "--bbox=" + box, "x + y + 0",
                                 stdin="0,0,1,1")
            assert proc.returncode == 2 and proc.stdout == "", box
            assert proc.stderr.startswith("error: SyntaxError:"), box
            assert message in proc.stderr, (box, proc.stderr)
            assert "Traceback" not in proc.stderr, box

    def test_domain_error_exit_1(self, capsys):
        code, _, err = run(capsys, "roots", "--single", "3")
        assert code == 1 and "ConstantTangibleInput" in err
        code, _, err = run(capsys, "factor", "--tangible", "x^2 + 3v*x + 0")
        assert code == 1 and "NotTangibleFull" in err

    def test_max_degree(self, capsys):
        code, _, err = run(capsys, "--max-degree", "3", "essential", "x^5")
        assert code == 1 and "MaxDegreeExceeded" in err

    def test_max_degree_is_non_negative(self, capsys):
        # a usage error (exit 2), not a MaxDegreeExceeded on a constant
        for value in ("-1", "-64", "two", "1.5"):
            code, out, err = run(capsys, "--max-degree", value, "eval",
                                 "0", "1")
            assert code == 2 and out == "", value
            assert "--max-degree" in err and "non-negative" in err, value
        code, out, _ = run(capsys, "--max-degree", "0", "eval", "3", "1")
        assert code == 0 and out.strip() == "3"
        code, _, err = run(capsys, "--max-degree", "0", "eval", "x", "1")
        assert code == 1 and "MaxDegreeExceeded" in err

    def test_max_degree_refused_before_expanding(self, capsys):
        start = time.perf_counter()
        code, out, err = run(capsys, "--max-degree", "8", "eval",
                             "(x+1)^2000", "0")
        assert time.perf_counter() - start < 1.0
        assert code == 1 and out == "" and "MaxDegreeExceeded" in err
        code, _, err = run(capsys, "--max-degree", "8", "curve2d",
                           "(x + y + 0)^9")
        assert code == 1 and "MaxDegreeExceeded" in err

    def test_max_degree_bounds_every_subexpression(self, capsys):
        # refused although the -inf factor makes the whole product empty
        code, _, err = run(capsys, "--max-degree", "8", "eval", "--",
                           "-inf*(x+1)^100", "0")
        assert code == 1 and "MaxDegreeExceeded" in err
        assert P("-inf*(x+1)^100").is_empty()
        with pytest.raises(MaxDegreeExceeded):
            P("-inf*(x+1)^100", max_degree=8)

    def test_max_degree_in_the_parser(self):
        assert P("(x + 1)^4*(y + 2)^4", max_degree=8).total_degree() == 8
        assert P("x*x*x", max_degree=3) == P("x^3")
        assert P("x^0 + 3", max_degree=0) == P("3")
        assert P("-inf", max_degree=0).is_empty()
        for text in ("x^9", "x^4*y^5", "x*x*x*x", "(x^2 + 1)^5"):
            with pytest.raises(MaxDegreeExceeded):
                P(text, max_degree=8 if "^" in text else 3)

    def test_version(self, capsys):
        code, out, _ = run(capsys, "--version")
        assert code == 0 and out.strip()

    def test_deterministic_output(self, capsys):
        a = run(capsys, "--json", "classify", "x^2 + x*y + y^2 + 0")
        b = run(capsys, "--json", "classify", "x^2 + x*y + y^2 + 0")
        assert a == b


def _tropc_imports(importtime_log: str) -> set:
    """The tropc modules a ``-X importtime`` log names."""
    names = set()
    for line in importtime_log.splitlines():
        name = line.rpartition("|")[2].strip()
        if line.startswith("import time:") and \
                name.split(".")[0] == "tropc":
            names.add(name)
    return names


# what every subcommand loads: the package, its eager _lp, and the parse,
# arithmetic and error modules (the cli itself runs as __main__)
CLI_BASE = {"tropc", "tropc._lp", "tropc.core", "tropc.errors",
            "tropc.parser", "tropc.polynomial"}
HULL = {"tropc.essential"}
IDEALS = {"tropc.essential", "tropc.ideals", "tropc.sets",
          "tropc.univariate"}


class TestFreshProcessImports:
    """Each subcommand in a process of its own loads exactly the modules it
    runs and prints what it prints in process.  In-process tests run with
    every module already loaded, so only a fresh process shows a handler
    that lacks an import."""

    CASES = [
        (("eval", "x^2 + 1*x + 0", "1"), set()),
        (("--reduced", "eval", "x^2 + 0", "0"), HULL),
        (("essential", "x^2 + -5*x + 0"), HULL),
        (("full", "x^2 + 0"), HULL),
        (("classify", "x^2 + x*y + y^2 + 0"), HULL),
        (("equiv", "(x + 3)^2", "x^2 + 6"), HULL),
        (("factor", "x^2 + 3*x + 1"), HULL | {"tropc.univariate"}),
        (("roots", "x^2 + 3*x + 1"), HULL | {"tropc.univariate"}),
        (("common-root", "x + 1", "x*y + 1"), HULL | {"tropc.univariate"}),
        (("comset", "x + 2"), HULL | {"tropc.sets"}),
        (("curve2d", "x + y + 0"), HULL | {"tropc.sets"}),
        (("nss", "x + 1", "x + 5"), IDEALS),
        (("radical-member", "x + 0", "(x + 0)^2"), IDEALS),
        (("ghost-potent", "1v*x + 0v"), IDEALS),
        (("member", "x*y + y", "x + 0"), IDEALS),
    ]

    def test_modules_and_output(self, capsys):
        commands = set()
        for argv, extra in self.CASES:
            argv = ["--json", *argv]
            commands.add(next(a for a in argv if not a.startswith("--")))
            proc = _fresh_python("-X", "importtime", "-m", "tropc.cli", *argv)
            assert proc.returncode == 0, (argv, proc.stderr)
            assert _tropc_imports(proc.stderr) == CLI_BASE | extra, argv
            code, out, _ = run(capsys, *argv)
            assert code == 0 and proc.stdout == out, argv
        subparsers = tropc.cli._build_parser()._subparsers._group_actions[0]
        assert commands == set(subparsers.choices)


class TestNamespace:
    """The package's public names, loaded on first access."""

    # every name tropc 0.1.0 exports, by the module that defines it
    PUBLIC = {
        "core": ["NEG_INFINITY", "TropicalNumber", "compare", "ghost",
                 "ghost_of", "project", "tangible", "trop_add", "trop_inv",
                 "trop_mul", "trop_pow", "trop_root"],
        "errors": ["ArityMismatch", "ArityUnsupported",
                   "CertificateSearchExceeded", "ConstantTangibleAmongInputs",
                   "ConstantTangibleInput", "EmptyPolynomial",
                   "InternalInconsistency", "InversionOfNegInfinity",
                   "MaxDegreeExceeded", "MonomialInput", "NotFull",
                   "NotTangibleFull", "PolySyntaxError", "RootOfNegInfinity",
                   "TropicalError"],
        "essential": ["EssentialComplex", "SlopeSequence",
                      "classify_monomials", "divides", "equivalent",
                      "essential_part", "full_closure", "is_full", "red_add",
                      "red_mul", "red_pow", "slope_sequence"],
        "ideals": ["IdealFG", "NssResult", "RadicalCertificate",
                   "ideal_member_syntactic", "is_ghost_potent", "is_proper",
                   "radical_member_1d", "verify_radical_certificate",
                   "weak_nullstellensatz"],
        "parser": ["format_number", "format_poly", "parse_poly"],
        "polynomial": ["TropicalPolynomial", "constant", "monomial",
                       "variable"],
        "sets": ["Component1D", "CornerLocus2D", "comset1d", "comset_leq",
                 "comset_meet", "corner_locus_2d", "zset_contains"],
        "univariate": ["Factorization", "common_root", "factor_full",
                       "factor_tangible_full", "find_root",
                       "roots_with_multiplicity"],
    }

    # run in a fresh process, so that every name is resolved on first access
    SCRIPT = """if True:
        import json, sys
        import tropc
        bare = sorted(n for n in sys.modules if n.split(".")[0] == "tropc")
        wrong = [name for home, names in json.loads(sys.argv[1]).items()
                 for name in names
                 if getattr(tropc, name) is not
                 vars(sys.modules["tropc." + home])[name]]
        star = {}
        exec("from tropc import *", star)
        print(json.dumps({"bare": bare, "wrong": wrong,
                          "star": sorted(set(star) - {"__builtins__"}),
                          "dir": dir(tropc)}))
    """

    def test_public_names(self):
        proc = _fresh_python("-c", self.SCRIPT, json.dumps(self.PUBLIC))
        assert proc.returncode == 0, proc.stderr
        got = json.loads(proc.stdout)
        public = {name for names in self.PUBLIC.values() for name in names}
        assert got["bare"] == ["tropc", "tropc._lp"]
        assert got["wrong"] == []
        assert set(got["star"]) == public
        assert public <= set(got["dir"])
        assert set(tropc.__all__) == public

    def test_unknown_name(self):
        with pytest.raises(AttributeError, match="nope"):
            tropc.nope
        assert not hasattr(tropc, "nope")
        assert "nope" not in dir(tropc)
