"""Exact arithmetic on the extended max-plus semiring with ghost elements.

An element is either a tangible rational, the ghost copy of a rational, or
the shared bottom element ``-inf``.  Addition is maximum with respect to the
total order (tangible below its own ghost); adding an element to itself
ghosts it, so the semiring is not idempotent.  Multiplication is classical
addition of values, with ghostness absorbing.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .errors import InversionOfNegInfinity, RootOfNegInfinity

TAG_TANGIBLE = "t"
TAG_GHOST = "g"
TAG_NEG_INF = "ninf"

RationalLike = Union[int, str, Fraction]


@dataclass(frozen=True, slots=True)
class TropicalNumber:
    tag: str
    value: Optional[Fraction] = None

    def __post_init__(self):
        if self.tag == TAG_NEG_INF:
            if self.value is not None:
                raise ValueError("-inf carries no value")
        elif self.tag in (TAG_TANGIBLE, TAG_GHOST):
            if not isinstance(self.value, Fraction):
                if isinstance(self.value, float):
                    # a binary float is not the rational it was written as
                    raise TypeError(
                        f"inexact float value {self.value!r}; pass an int, "
                        "a str or a Fraction")
                object.__setattr__(self, "value", Fraction(self.value))
        else:
            raise ValueError(f"unknown tag {self.tag!r}")

    # -- predicates ----------------------------------------------------
    def is_tangible(self) -> bool:
        return self.tag == TAG_TANGIBLE

    def is_ghost(self) -> bool:
        return self.tag == TAG_GHOST

    def is_neg_inf(self) -> bool:
        return self.tag == TAG_NEG_INF

    def is_ghost_or_bottom(self) -> bool:
        """True for the ghost ideal: ghosts together with -inf."""
        return self.tag != TAG_TANGIBLE

    # -- total order ---------------------------------------------------
    def _key(self):
        if self.tag == TAG_NEG_INF:
            return (0, Fraction(0), 0)
        return (1, self.value, 0 if self.tag == TAG_TANGIBLE else 1)

    def __lt__(self, other):
        return self._key() < other._key()

    def __le__(self, other):
        return self._key() <= other._key()

    def __gt__(self, other):
        return self._key() > other._key()

    def __ge__(self, other):
        return self._key() >= other._key()

    # -- arithmetic ----------------------------------------------------
    def __add__(self, other: "TropicalNumber") -> "TropicalNumber":
        if self == other:
            # -inf + -inf stays -inf; anything else ghosts on a tie
            return self if self.is_neg_inf() else ghost_of(self)
        return self if self > other else other

    def __mul__(self, other: "TropicalNumber") -> "TropicalNumber":
        if self.is_neg_inf() or other.is_neg_inf():
            return NEG_INFINITY
        tag = TAG_GHOST if (self.is_ghost() or other.is_ghost()) else TAG_TANGIBLE
        return TropicalNumber(tag, self.value + other.value)

    def inv(self) -> "TropicalNumber":
        """Multiplicative inverse; the tag is preserved."""
        if self.is_neg_inf():
            raise InversionOfNegInfinity("-inf has no inverse")
        return TropicalNumber(self.tag, -self.value)

    def __pow__(self, k: int) -> "TropicalNumber":
        if k == 0:
            return TANGIBLE_ZERO
        if self.is_neg_inf():
            return NEG_INFINITY
        return TropicalNumber(self.tag, k * self.value)

    def root(self, k: int) -> "TropicalNumber":
        """Exact k-th root (divide the value by k); the tag is preserved."""
        if self.is_neg_inf():
            raise RootOfNegInfinity("-inf has no root")
        return TropicalNumber(self.tag, self.value / k)

    # -- text and JSON forms -------------------------------------------
    def __str__(self):
        if self.is_neg_inf():
            return "-inf"
        text = str(self.value)
        return text + "v" if self.is_ghost() else text

    def to_json(self):
        if self.is_neg_inf():
            return {"tag": "ninf", "value": None}
        return {"tag": self.tag, "value": str(self.value)}

    @staticmethod
    def from_json(obj) -> "TropicalNumber":
        if obj["tag"] == "ninf":
            return NEG_INFINITY
        return TropicalNumber(obj["tag"], Fraction(obj["value"]))

    @staticmethod
    def parse(text: str) -> "TropicalNumber":
        text = text.strip()
        if text == "-inf":
            return NEG_INFINITY
        if text.endswith("v"):
            return ghost(Fraction(text[:-1]))
        return tangible(Fraction(text))


NEG_INFINITY = TropicalNumber(TAG_NEG_INF)


def tangible(v: RationalLike) -> TropicalNumber:
    return TropicalNumber(TAG_TANGIBLE, v)


def ghost(v: RationalLike) -> TropicalNumber:
    return TropicalNumber(TAG_GHOST, v)


TANGIBLE_ZERO = tangible(0)


def ghost_of(a: TropicalNumber) -> TropicalNumber:
    """The ghost map: tangibles to their ghost copy, ghosts and -inf fixed."""
    if a.is_tangible():
        return TropicalNumber(TAG_GHOST, a.value)
    return a


def project(a: TropicalNumber) -> Optional[Fraction]:
    """Project onto classical max-plus, forgetting the tag; -inf maps to None."""
    return None if a.is_neg_inf() else a.value


def trop_add(a: TropicalNumber, b: TropicalNumber) -> TropicalNumber:
    return a + b


def trop_mul(a: TropicalNumber, b: TropicalNumber) -> TropicalNumber:
    return a * b


def trop_inv(a: TropicalNumber) -> TropicalNumber:
    return a.inv()


def trop_pow(a: TropicalNumber, k: int) -> TropicalNumber:
    return a ** k


def trop_root(a: TropicalNumber, k: int) -> TropicalNumber:
    return a.root(k)


def compare(a: TropicalNumber, b: TropicalNumber) -> int:
    """Total order: by projected value, tangible before its ghost, -inf least."""
    ka, kb = a._key(), b._key()
    return (ka > kb) - (ka < kb)
