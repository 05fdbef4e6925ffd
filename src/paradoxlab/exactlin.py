"""Exact rational 3x3 linear algebra and the two rotation generators.

Everything here is arithmetic over arbitrary-precision rationals (stdlib
``fractions.Fraction``); no floats appear.  The two generators

    A = (1/7) [ 6  2  3 ]        B = (1/7) [ 2 -6  3 ]
              [ 2  3 -6 ]                  [ 6  3  2 ]
              [-3  6  2 ]                  [-3  2  6 ]

are special orthogonal with inverse = transpose.  Products of k generators
have denominator dividing 7^k, so :func:`ball_matrices`, the one place a
word's matrix is multiplied out, carries the integer matrix 7^k * M instead
of fractions.  A rotation's axis comes from that integer matrix too: the
cross product of two independent rows of 7^k * (M - I) (:func:`_scaled_axis`).
The reference routes these are checked against (the general fraction-free
kernel, the rational word product, matrix-vector application and the
special-orthogonality test) live in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterator, Mapping, Sequence

from .errors import DegenerateInputError, InvariantViolationError
from .words import Letter, ball_levels


@dataclass(frozen=True)
class Mat3:
    """Row-major 3x3 matrix of rationals."""

    entries: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.entries) != 9:
            raise ValueError("Mat3 needs exactly 9 entries")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence], scale=1) -> "Mat3":
        s = Fraction(scale)
        return cls(tuple(Fraction(e) * s for row in rows for e in row))

    def transpose(self) -> "Mat3":
        e = self.entries
        return Mat3((e[0], e[3], e[6], e[1], e[4], e[7], e[2], e[5], e[8]))


GEN_A = Mat3.from_rows([[6, 2, 3], [2, 3, -6], [-3, 6, 2]], scale=Fraction(1, 7))
GEN_B = Mat3.from_rows([[2, -6, 3], [6, 3, 2], [-3, 2, 6]], scale=Fraction(1, 7))

DEFAULT_GENERATORS: Mapping[Letter, Mat3] = {
    Letter.A: GEN_A,
    Letter.B: GEN_B,
    Letter.A_INV: GEN_A.transpose(),
    Letter.B_INV: GEN_B.transpose(),
}


# -- scaled-integer fast path ----------------------------------------------

IntMat = tuple[int, ...]


def scaled_integer_form(m: Mat3) -> tuple[IntMat, int]:
    """Return (d*M as integers, d) with d the lcm of entry denominators."""
    d = lcm(*(e.denominator for e in m.entries))
    ints = tuple(int(e * d) for e in m.entries)
    return ints, d


#: scaled_integer_form of each default generator, indexed by letter: (7*M, 7).
SCALED_GENERATORS: tuple[tuple[IntMat, int], ...] = tuple(
    scaled_integer_form(DEFAULT_GENERATORS[letter]) for letter in Letter
)


def _matmul_ints(a: IntMat, b: IntMat) -> IntMat:
    a0, a1, a2, a3, a4, a5, a6, a7, a8 = a
    b0, b1, b2, b3, b4, b5, b6, b7, b8 = b
    return (
        a0 * b0 + a1 * b3 + a2 * b6,
        a0 * b1 + a1 * b4 + a2 * b7,
        a0 * b2 + a1 * b5 + a2 * b8,
        a3 * b0 + a4 * b3 + a5 * b6,
        a3 * b1 + a4 * b4 + a5 * b7,
        a3 * b2 + a4 * b5 + a5 * b8,
        a6 * b0 + a7 * b3 + a8 * b6,
        a6 * b1 + a7 * b4 + a8 * b7,
        a6 * b2 + a7 * b5 + a8 * b8,
    )


_INT_IDENTITY: IntMat = (1, 0, 0, 0, 1, 0, 0, 0, 1)


def ball_matrices(depth: int) -> Iterator[tuple[bytes, IntMat, int]]:
    """Yield (letters, d*eval(word) as integers, d) over ball(depth) in length-lex order.

    ``letters`` is the word's raw letter string from :func:`words.ball_levels`:
    ``bytes`` of the ints 0-3, which :class:`words.Letter` names; indexing
    and iteration give plain ints.
    Each word's matrix is its parent's times the scaled generator of its last
    letter, so the whole ball costs one 3x3 multiply per word, and
    d = 7^len(word).  The parent of a one-letter word is the identity, and
    that of word i on a longer level is word i // 3 of the level before, so
    only the previous level's matrices are held; the last level's are yielded
    and dropped.
    """
    generators = SCALED_GENERATORS
    levels = ball_levels(depth)
    (identity,) = next(levels)  # the first next checks the radius
    yield identity, _INT_IDENTITY, 1
    parents = [(_INT_IDENTITY, 1)]
    fan = 4  # the four one-letter words all extend the identity
    for k, level in enumerate(levels, 1):
        keep = k < depth
        mats: list[tuple[IntMat, int]] = []
        for i, letters in enumerate(level):
            p_ints, p_den = parents[i // fan]
            g_ints, g_den = generators[letters[-1]]
            ints, den = _matmul_ints(p_ints, g_ints), p_den * g_den
            yield letters, ints, den
            if keep:
                mats.append((ints, den))
        parents, fan = mats, 3


@dataclass(frozen=True)
class ProjectiveDirection:
    """A projective direction as a primitive integer triple.

    Canonical form: gcd of the components is 1 and the first nonzero
    component is positive, so +/- multiples collapse to one representative.
    """

    a: int
    b: int
    c: int

    def __post_init__(self) -> None:
        comps = (self.a, self.b, self.c)
        if not any(comps):
            raise DegenerateInputError("zero vector has no direction")
        if gcd(*comps) != 1:
            raise ValueError(f"{comps} is not primitive; use ProjectiveDirection.canonical")
        first = next(v for v in comps if v)
        if first < 0:
            raise ValueError(f"{comps} has negative leading sign; use ProjectiveDirection.canonical")

    @classmethod
    def canonical(cls, a, b, c) -> "ProjectiveDirection":
        fr = (Fraction(a), Fraction(b), Fraction(c))
        if not any(fr):
            raise DegenerateInputError("zero vector has no direction")
        d = lcm(*(f.denominator for f in fr))
        ints = [int(f * d) for f in fr]
        g = gcd(*ints)
        ints = [v // g for v in ints]
        first = next(v for v in ints if v)
        if first < 0:
            ints = [-v for v in ints]
        return cls(*ints)

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.a, self.b, self.c)

    def __str__(self) -> str:
        return f"[{self.a}:{self.b}:{self.c}]"


def _scaled_axis(ints: IntMat, den: int) -> tuple[int, int, int]:
    """Axis of the rotation whose scaled integer matrix is (ints, den), as its canonical primitive triple.

    The fixed space is the right kernel of N = ints - den*I.  When N has rank
    2, the cross product of two independent rows spans it.  Some cross
    product of two rows must be nonzero (else rank <= 1) and it must be
    orthogonal to all three rows (else rank 3); otherwise the fixed space is
    not a line and InvariantViolationError is raised.  The triple is the
    components of :class:`ProjectiveDirection` (gcd 1, first nonzero
    component positive); a caller that keeps one axis per direction builds
    the direction once per distinct triple.
    """
    r0 = (ints[0] - den, ints[1], ints[2])
    r1 = (ints[3], ints[4] - den, ints[5])
    r2 = (ints[6], ints[7], ints[8] - den)
    for p, q in ((r0, r1), (r0, r2), (r1, r2)):
        a = p[1] * q[2] - p[2] * q[1]
        b = p[2] * q[0] - p[0] * q[2]
        c = p[0] * q[1] - p[1] * q[0]
        if a or b or c:
            break
    else:
        dim = 3 if not any(r0 + r1 + r2) else 2
        raise InvariantViolationError(f"fixed space is {dim}-dimensional; expected a single axis")
    for r in (r0, r1, r2):
        if r[0] * a + r[1] * b + r[2] * c:
            raise InvariantViolationError("fixed space is 0-dimensional; expected a single axis")
    g = gcd(a, b, c)
    if (a or b or c) < 0:
        g = -g
    return (a // g, b // g, c // g)

