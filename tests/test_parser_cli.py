"""Text syntax round trips and the command line interface."""
import json
import random
import time
from fractions import Fraction

import pytest

from tropc import (ArityMismatch, MaxDegreeExceeded, PolySyntaxError,
                   TropicalPolynomial, format_poly, ghost, parse_poly,
                   tangible)
from tropc.cli import run_cli
from util import rand_poly

P = parse_poly


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
        code, _, err = run(capsys, "common-root", "x + 1", "x*y + 1")
        assert code == 1 and err.startswith("error: ArityMismatch")

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

    def test_ghost_potent(self, capsys):
        code, out, _ = run(capsys, "ghost-potent", "1v*x + 0v")
        assert code == 0 and out.strip() == "true"

    def test_syntax_error_exit_2(self, capsys):
        code, out, err = run(capsys, "eval", "x - 1", "0")
        assert code == 2 and out == ""
        assert "SyntaxError" in err and "position 2" in err

    def test_domain_error_exit_1(self, capsys):
        code, _, err = run(capsys, "roots", "--single", "3")
        assert code == 1 and "ConstantTangibleInput" in err
        code, _, err = run(capsys, "factor", "--tangible", "x^2 + 3v*x + 0")
        assert code == 1 and "NotTangibleFull" in err

    def test_max_degree(self, capsys):
        code, _, err = run(capsys, "--max-degree", "3", "essential", "x^5")
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
