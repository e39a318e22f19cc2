"""Text syntax for tropical polynomials.

Grammar: terms joined by '+', a term is a product of factors (the '*' is
optional), a factor is a number, a variable or a parenthesized expression,
optionally raised to a nonnegative integer power with '^'.  Numbers are
exact rationals like 3, -5/2; a trailing 'v' marks a ghost coefficient and
'-inf' is the bottom element.  Variables are x, y, z or x1, x2, ...
Parenthesized products and powers are evaluated in the raw semiring.

With ``max_degree`` set, a factor, power or product above that total degree
is refused before it is computed.  Degrees add under '*' and multiply
under '^' (the top terms of a max-plus product of non-empty polynomials do
not cancel), so the bound is known in advance; a sub-expression above it is
refused even where a later '-inf' factor or '^0' would shrink the result.
"""
from __future__ import annotations

import re
from fractions import Fraction
from typing import List, Optional, Tuple

from .core import NEG_INFINITY, TropicalNumber, ghost, tangible
from .errors import ArityMismatch, MaxDegreeExceeded, PolySyntaxError
from .polynomial import TropicalPolynomial, constant, variable

_TOKEN_RE = re.compile(
    r"(?P<ninf>-inf)"
    r"|(?P<num>-?\d+(?:/\d+)?)(?P<ghost>v)?"
    r"|(?P<var>[xyz]\d*)"
    r"|(?P<op>[-+*^()])"
)


class _Token:
    __slots__ = ("kind", "text", "pos", "payload")

    def __init__(self, kind, text, pos, payload=None):
        self.kind = kind
        self.text = text
        self.pos = pos
        self.payload = payload


def _tokenize(text: str) -> List[_Token]:
    tokens = []
    pos = 0
    n = len(text)
    while pos < n:
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise PolySyntaxError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup is None:
            raise PolySyntaxError(f"unexpected character {text[pos]!r}", pos)
        if m.group("ninf"):
            tokens.append(_Token("num", m.group(), pos, NEG_INFINITY))
        elif m.group("num"):
            try:
                value = Fraction(m.group("num"))
            except ZeroDivisionError:
                raise PolySyntaxError("zero denominator", pos)
            coeff = ghost(value) if m.group("ghost") else tangible(value)
            tokens.append(_Token("num", m.group(), pos, coeff))
        elif m.group("var"):
            name = m.group("var")
            if len(name) > 1:
                if name[0] != "x":
                    raise PolySyntaxError(
                        f"unknown variable {name!r}", pos)
                index = int(name[1:]) - 1
                if index < 0:
                    raise PolySyntaxError(
                        "variable indices start at 1", pos)
            else:
                index = "xyz".index(name)
            tokens.append(_Token("var", name, pos, index))
        else:
            op = m.group("op")
            if op == "-":
                raise PolySyntaxError("there is no subtraction", pos)
            tokens.append(_Token(op, op, pos))
        pos = m.end()
    tokens.append(_Token("end", "", n))
    return tokens


class _Parser:
    def __init__(self, tokens: List[_Token], arity: int,
                 max_degree: Optional[int] = None):
        self.tokens = tokens
        self.i = 0
        self.arity = arity
        self.max_degree = max_degree

    def check_degree(self, factors: Tuple[TropicalPolynomial, ...], k=1):
        """Refuse the product of ``factors`` to the power ``k`` before it is
        built when its total degree is above ``max_degree``; an empty factor
        makes the product empty."""
        if self.max_degree is None or any(f.is_empty() for f in factors):
            return
        degree = k * sum(f.total_degree() for f in factors)
        if degree > self.max_degree:
            raise MaxDegreeExceeded(
                f"degree {degree} exceeds max degree {self.max_degree}")

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise PolySyntaxError(
                f"expected {kind!r}, found {tok.text or 'end of input'!r}",
                tok.pos)
        return self.advance()

    def parse_expr(self) -> TropicalPolynomial:
        acc = self.parse_term()
        while self.peek().kind == "+":
            self.advance()
            acc = acc + self.parse_term()
        return acc

    def parse_term(self) -> TropicalPolynomial:
        acc = self.parse_factor()
        while True:
            tok = self.peek()
            if tok.kind == "*":
                self.advance()
            elif tok.kind not in ("num", "var", "("):
                return acc
            factor = self.parse_factor()
            self.check_degree((acc, factor))
            acc = acc * factor

    def parse_factor(self) -> TropicalPolynomial:
        base = self.parse_primary()
        if self.peek().kind == "^":
            self.advance()
            tok = self.expect("num")
            coeff = tok.payload
            if (coeff.is_neg_inf() or coeff.is_ghost()
                    or coeff.value.denominator != 1 or coeff.value < 0):
                raise PolySyntaxError(
                    "exponent must be a nonnegative integer", tok.pos)
            k = int(coeff.value)
            self.check_degree((base,), k)
            return base ** k
        self.check_degree((base,))
        return base

    def parse_primary(self) -> TropicalPolynomial:
        tok = self.peek()
        if tok.kind == "num":
            self.advance()
            return constant(tok.payload, self.arity)
        if tok.kind == "var":
            self.advance()
            return variable(tok.payload, self.arity)
        if tok.kind == "(":
            self.advance()
            inner = self.parse_expr()
            self.expect(")")
            return inner
        raise PolySyntaxError(
            f"expected a term, found {tok.text or 'end of input'!r}", tok.pos)


def parse_poly(text: str, arity: Optional[int] = None,
               max_degree: Optional[int] = None) -> TropicalPolynomial:
    """Parse ``text``; with ``max_degree``, raise ``MaxDegreeExceeded``
    before building any sub-expression of larger total degree."""
    tokens = _tokenize(text)
    used = [tok.payload for tok in tokens if tok.kind == "var"]
    needed = max(used) + 1 if used else 1
    if arity is None:
        arity = needed
    elif arity < needed:
        raise ArityMismatch(
            f"text uses {needed} variables but arity {arity} was requested")
    parser = _Parser(tokens, arity, max_degree)
    poly = parser.parse_expr()
    end = parser.peek()
    if end.kind != "end":
        raise PolySyntaxError(
            f"unexpected {end.text!r} after expression", end.pos)
    return poly


def _var_names(arity: int) -> List[str]:
    if arity <= 3:
        return ["x", "y", "z"][:arity]
    return [f"x{i + 1}" for i in range(arity)]


def format_number(c: TropicalNumber) -> str:
    return str(c)


def format_poly(f: TropicalPolynomial) -> str:
    """Canonical text, graded-lex descending; parses back to the same terms."""
    if f.is_empty():
        return "-inf"
    names = _var_names(f.arity)
    parts = []
    for exp, coeff in f.sorted_terms():
        mono = "*".join(
            name if e == 1 else f"{name}^{e}"
            for name, e in zip(names, exp) if e)
        if not mono:
            parts.append(str(coeff))
        elif coeff.is_tangible() and coeff.value == 0:
            parts.append(mono)
        else:
            parts.append(f"{coeff}*{mono}")
    return " + ".join(parts)
