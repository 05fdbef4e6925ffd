"""Finite action models, paradox witnesses, and two worked decompositions.

A :class:`FiniteActionModel` is a finite set of points with labelled maps.
Witness verifiers check the set-theoretic content of a paradoxical
decomposition on such a model.  Infinite sets only ever appear
through finite truncations, so covering identities may be scoped to an
*interior* subset: points whose preimages stay inside the truncation.  The
interior is derived from the model, as the points every mover of the
witness reaches; an interior a caller passes is only compared with it.
Boundary effects are reported, never silently passed.

Two concrete decompositions are built here:

* the Sierpinski-Mazurkiewicz style planar set E = {P(e^i) : P has
  nonnegative integer coefficients}, where multiplying by e^-i and
  subtracting 1 realize a paradox using two pieces (``smp_*`` functions).
  Each P is its coefficient tuple, low degree first, with no trailing zero
  (() is 0), and :func:`poly_str` gives its text form.  Class A, the
  domain of g, has a zero constant term (P = x*Q, so P(t) = t*Q(t)); class
  B, the domain of h, a positive one.  On a truncation, g and h are
  bijections onto their images because the enumeration is distinct, the
  closed-form index maps are injective onto the image set, and the forward
  maps agree with them;

* the orbit of an integer base vector under the free rotation group
  (:func:`orbit_transport`), which transports the word-level decomposition
  to honest subsets of the sphere's orbit points.  Each orbit point p of
  the word ball of radius depth is held as the integer triple p * 7^depth.
"""

from __future__ import annotations

import itertools
import math
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property, reduce
from operator import ne, or_, sub
from types import MappingProxyType
from typing import Hashable, Iterable, Iterator, Mapping, Sequence

from mpmath.libmp import (
    fone,
    fzero,
    from_man_exp,
    mpc_abs,
    mpc_exp,
    mpc_mul,
    mpc_sub,
    mpf_abs,
    mpf_cmp,
    mpf_sub,
    round_nearest,
    to_float,
    to_str,
)

from .errors import DomainError, InvariantViolationError, ModelError, PreconditionError, ResourceLimitError
from .freeness import FreenessCertificate, verify_certificate
from .report import Finding
from .sphere import DEFAULT_PRECISION_BITS, MAX_PRECISION_BITS, MIN_PRECISION_BITS, SEPARATION_RESOLUTION
from .words import _FIRST, Letter, ReducedWord, ball, ball_size
from .exactlin import SCALED_GENERATORS, ball_matrices

Point = Hashable


# ---------------------------------------------------------------------------
# finite action models
# ---------------------------------------------------------------------------


def bitset(indices: Iterable[int], width: int) -> int:
    """The int with bit i set for each i of ``indices``, all below ``width``; -1 sets no bit."""
    flags = bytearray(b"0") * (width + 1)
    for i in indices:
        flags[i] = 49  # "1"; -1 writes the spare last slot, cleared below
    flags[-1] = 48
    return int(flags[::-1], 2)


@dataclass(frozen=True)
class _PointIndex:
    """A model's points numbered 0..n-1 in one fixed order, and its maps on those numbers.

    ``image[label][i]`` is the number of the image of point i, or -1 where
    the label is undefined there; ``reach[label]`` is the bitset of the
    label's range.  A label in ``outside`` maps a point, or to a point,
    outside the point set: its tuple holds only the pairs inside it.  Bit i
    of a bitset stands for point i; a point the model lacks has no bit.
    """

    members: frozenset
    points: tuple
    at: dict
    image: dict[str, tuple[int, ...]]
    reach: dict[str, int]
    outside: frozenset[str]

    @classmethod
    def build(cls, points: frozenset, maps: Mapping[str, Mapping[Point, Point]]) -> "_PointIndex":
        # Iteration order of the frozenset, not sorting: points need not be mutually orderable.
        order = tuple(points)
        n = len(order)
        at = dict(zip(order, range(n)))
        image, reach, outside = {}, {}, set()
        for label, mapping in maps.items():
            src = list(map(at.get, mapping))
            dst = list(map(at.get, mapping.values()))
            row = [-1] * n
            if None in src or None in dst:
                outside.add(label)
                pairs = [(i, j) for i, j in zip(src, dst) if i is not None and j is not None]
                dst = [j for j in dst if j is not None]
            else:
                pairs = zip(src, dst)
            for i, j in pairs:
                row[i] = j
            image[label] = tuple(row)
            reach[label] = bitset(dst, n)
        return cls(points, order, at, image, reach, frozenset(outside))

    @property
    def full(self) -> int:
        """The bitset of every point."""
        return (1 << len(self.points)) - 1

    def ids(self, subset: frozenset, what: str) -> list[int]:
        """The bit of each point of ``subset``; a point the model lacks raises ModelError naming it and ``what``."""
        ids = list(map(self.at.get, subset))
        if None in ids:
            lost = min(repr(p) for i, p in zip(ids, subset) if i is None)
            raise ModelError(f"{what} point {lost} is not in the model")
        return ids

    def bits(self, subset: frozenset, what: str) -> int:
        """The bitset of ``subset`` (see :meth:`ids`); the model's own point set is every bit, without a lookup."""
        if subset == self.members:
            return self.full
        return bitset(self.ids(subset, what), len(self.points))

    def subset(self, bits: int) -> frozenset:
        """The points whose bits are set; every bit must be below the number of points."""
        flags = format(bits, f"0{len(self.points)}b")[::-1]
        return frozenset(itertools.compress(self.points, map("1".__eq__, flags)))

    def moved(self, pieces: Sequence[list[int]], movers: Sequence[str]) -> tuple[list[int], int]:
        """Move each piece, given by its bits (:meth:`ids`), by its mover.

        Returns the bitset of each image and the count of points where the
        mover is undefined.
        """
        images, undefined = [], 0
        for ids, label in zip(pieces, movers):
            row = self.image.get(label)
            if row is None:
                raise ModelError(f"unknown group label {label!r}")
            targets = list(map(row.__getitem__, ids))
            undefined += targets.count(-1)
            images.append(bitset(targets, len(self.points)))
        return images, undefined

    def interior(self, movers: Sequence[str]) -> int:
        """The bitset of points every mover reaches."""
        inside = self.full
        for label in dict.fromkeys(movers):
            if label not in self.image:
                raise ModelError(f"unknown group label {label!r}")
            inside &= self.reach[label]
        return inside


@dataclass(frozen=True, eq=False)
class FiniteActionModel:
    """Points plus labelled maps; ``partial`` admits truncation boundaries.

    Total models require every label to act as a bijection.  Partial models
    (finite shadows of infinite actions) require injectivity on the defined
    domain instead; the identity label must still be total.

    The model keeps read-only copies of ``points`` and ``maps``, and the
    verifiers run on an index built from them once, on first use: the
    points numbered 0..n-1, each map an int tuple and point sets int
    bitsets.  A verifier refuses a point the model lacks.  Point objects
    come back only for messages.
    """

    points: frozenset
    maps: Mapping[str, Mapping[Point, Point]]
    identity: str = "e"
    partial: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "points", frozenset(self.points))
        frozen = {label: MappingProxyType(dict(mapping)) for label, mapping in self.maps.items()}
        object.__setattr__(self, "maps", MappingProxyType(frozen))

    @cached_property
    def _index(self) -> _PointIndex:
        return _PointIndex.build(self.points, self.maps)

    def validate(self) -> None:
        if self.identity not in self.maps:
            raise ModelError(f"identity label {self.identity!r} missing from maps")
        index = self._index
        n = len(index.points)
        for label, row in index.image.items():
            if label in index.outside:
                raise ModelError(f"label {label!r} maps outside the point set")
            defined = n - row.count(-1)
            targets = set(row)
            targets.discard(-1)
            if len(targets) != defined:
                raise ModelError(f"label {label!r} is not injective")
            if not self.partial and defined != n:
                raise ModelError(f"label {label!r} is not total on the point set")
        if index.image[self.identity] != tuple(range(n)):
            raise ModelError("identity label must fix every point")


def interior_mismatch(given: frozenset, derived: frozenset) -> str:
    """How a caller's interior differs from the derived one, naming points; "" when they agree."""
    if given == derived:
        return ""

    def some(points: frozenset) -> str:
        names = sorted(map(str, points))
        return ", ".join(map(repr, names[:3])) + (", ..." if len(names) > 3 else "")

    extra, missing = given - derived, derived - given
    parts = []
    if extra:
        parts.append(f"{len(extra)} given point(s) outside the movers' common range ({some(extra)})")
    if missing:
        parts.append(f"{len(missing)} point(s) of that range not given ({some(missing)})")
    return "the given interior is not the derived one: " + "; ".join(parts)


@dataclass(frozen=True)
class ParadoxWitness:
    """Disjoint pieces A_i, B_j with movers whose images each cover the set."""

    pieces_a: tuple[frozenset, ...]
    movers_a: tuple[str, ...]
    pieces_b: tuple[frozenset, ...]
    movers_b: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.pieces_a) != len(self.movers_a) or len(self.pieces_b) != len(self.movers_b):
            raise ModelError("each piece needs exactly one mover")
        if not self.pieces_a or not self.pieces_b:
            raise ModelError("a paradox witness needs pieces on both sides")


@dataclass(frozen=True)
class WitnessReport:
    findings: tuple[Finding, ...]
    details: dict

    @property
    def passed(self) -> bool:
        return all(f.ok for f in self.findings)


def _disjointness(pieces: Sequence[int]) -> list[str]:
    """Each overlapping pair of piece bitsets, with the points they share."""
    problems = []
    for i, j in itertools.combinations(range(len(pieces)), 2):
        overlap = (pieces[i] & pieces[j]).bit_count()
        if overlap:
            problems.append(f"pieces {i} and {j} share {overlap} point(s)")
    return problems


@dataclass(frozen=True)
class _WitnessPass:
    """A witness on a model's index, as both verifiers read it; a-side pieces come first in ``pieces``.

    ``target`` is the set the moved unions must cover: the space, or, for a
    truncated model, the interior derived from the movers' common range.
    ``mismatch`` says how a given interior differs from that derived one.
    """

    space: int
    pieces: list[int]
    moved: tuple[list[int], list[int]]
    unions: tuple[int, int]
    undefined: tuple[int, int]
    target: int
    mismatch: str


def _witness_pass(
    model: FiniteActionModel, space: frozenset, witness: ParadoxWitness, interior: frozenset | None
) -> _WitnessPass:
    """Space, pieces, images and covering target of ``witness`` as bitsets; a point the model lacks raises ModelError."""
    index = model._index
    space_bits = index.bits(space, "space")
    piece_ids = [index.ids(p, "piece") for p in witness.pieces_a + witness.pieces_b]
    n = len(index.points)
    k = len(witness.pieces_a)
    moved_a, undefined_a = index.moved(piece_ids[:k], witness.movers_a)
    moved_b, undefined_b = index.moved(piece_ids[k:], witness.movers_b)
    if interior is None:
        target, mismatch = space_bits, ""
    else:
        target = index.interior(witness.movers_a + witness.movers_b)
        mismatch = "" if index.bits(interior, "interior") == target else interior_mismatch(interior, index.subset(target))
    return _WitnessPass(
        space_bits,
        [bitset(ids, n) for ids in piece_ids],
        (moved_a, moved_b),
        (reduce(or_, moved_a), reduce(or_, moved_b)),
        (undefined_a, undefined_b),
        target,
        mismatch,
    )


def verify_paradox_witness(
    model: FiniteActionModel,
    space: frozenset,
    witness: ParadoxWitness,
    *,
    interior: frozenset | None = None,
) -> WitnessReport:
    """Check disjointness and both covering identities on a finite model.

    Passing ``interior`` marks the model as truncated: covering is then
    required on the interior derived from the model, the points every
    mover reaches, and an ``interior`` that differs from it fails both
    covering findings.  The uncovered boundary is reported in the details
    either way.  A space or piece point the model lacks raises ModelError.
    """
    model.validate()
    if interior is not None and not interior <= space:
        raise ModelError("interior must sit inside the space")
    run = _witness_pass(model, space, witness, interior)
    target = run.target
    findings: list[Finding] = []
    contained = all(p & run.space == p for p in run.pieces)
    findings.append(Finding("pieces_in_space", contained, "" if contained else "a piece leaves the space"))
    overlap_problems = _disjointness(run.pieces)
    findings.append(Finding("pieces_disjoint", not overlap_problems, "; ".join(overlap_problems)))

    details: dict = {"space_size": len(space), "interior_size": target.bit_count()}
    for side, union, undefined_total in zip("ab", run.unions, run.undefined):
        in_space = union & run.space == union
        missing = (target & ~union).bit_count()
        findings.append(
            Finding(
                f"moved_{side}_defined",
                undefined_total == 0,
                "" if not undefined_total else f"mover undefined on {undefined_total} point(s)",
            )
        )
        ok = not missing and in_space and not run.mismatch
        findings.append(
            Finding(
                f"moved_{side}_covers",
                ok,
                "" if ok else run.mismatch or f"{missing} interior point(s) uncovered",
            )
        )
        details[f"moved_{side}_size"] = union.bit_count()
        details[f"boundary_{side}_leak"] = (union & ~target).bit_count()
    return WitnessReport(tuple(findings), details)


def two_to_one_shift_model(
    max_len: int,
) -> tuple[FiniteActionModel, frozenset, ParadoxWitness, frozenset]:
    """Truncated paradoxical shift on binary strings: (model, space, witness, interior).

    The space is all binary strings of length <= max_len.  Stripping a
    leading 0 maps the strings starting with 0 injectively onto everything of
    length <= max_len - 1, and likewise for 1, so the space carries two
    disjoint pieces each of which alone re-covers the interior.  Unlike the
    group-theoretic decompositions this one is exactly measure-balanced at
    every truncation: each string of length <= max_len - 1 has exactly one
    preimage per piece, which makes it the cleanest input for the
    measure-contradiction chain.
    """
    if max_len < 1:
        raise ValueError("need strings of length at least 1")
    space = frozenset(
        "".join(bits) for n in range(max_len + 1) for bits in itertools.product("01", repeat=n)
    )
    interior = frozenset(s for s in space if len(s) < max_len)
    piece0 = frozenset(s for s in space if s.startswith("0"))
    piece1 = frozenset(s for s in space if s.startswith("1"))
    model = FiniteActionModel(
        points=space,
        maps={
            "e": {s: s for s in space},
            "s0": {s: s[1:] for s in piece0},
            "s1": {s: s[1:] for s in piece1},
        },
        partial=True,
    )
    witness = ParadoxWitness(
        pieces_a=(piece0,), movers_a=("s0",), pieces_b=(piece1,), movers_b=("s1",)
    )
    return model, space, witness, interior


def f2_ball_model(depth: int) -> tuple[FiniteActionModel, frozenset, ParadoxWitness, frozenset]:
    """The four-piece free-group decomposition on a word ball: (model, space, witness, interior).

    Points are the reduced words of length <= depth; each generator letter
    acts by left multiplication where the product stays inside the ball.  The
    witness pairs the prefix classes with the movers of the covering
    identities: every word lies in W(a) or equals a * (a^-1 h) with a^-1 h in
    W(a^-1), and likewise for b.  Both identities hold exactly on the
    interior ball of radius depth - 1, which is where a truncated chain can
    be audited honestly.
    """
    if depth < 2:
        raise ValueError("depth must be at least 2 so the interior is nontrivial")
    space = frozenset(ball(depth))
    maps: dict[str, dict] = {"e": {w: w for w in space}}
    find = maps["e"].get  # a word equals its letters, so the identity map finds the word they spell
    for letter in Letter:
        inverse, prepend = letter.inverse(), _FIRST[letter].__add__  # bytes' own +: a word has none
        action = {}
        for w in space:
            # x.(x^-1 u) = u cancels; any other x.w is x prepended to w.
            moved = find(w[1:] if w and w[0] == inverse else prepend(w))
            if moved is not None:
                action[w] = moved
        maps[letter.symbol] = action
    model = FiniteActionModel(points=space, maps=maps, partial=True)
    witness, interior = _prefix_class_witness(zip(space, space), depth)
    return model, space, witness, interior


def _prefix_class_witness(
    points: Iterable[tuple[bytes, Point]], depth: int
) -> tuple[ParadoxWitness, frozenset]:
    """The four prefix-class pieces with movers e, a, e, b, and the interior ball(depth - 1).

    ``points`` pairs the letters of each word of ball(depth) with the point
    that stands for it.  The interior is the word ball's own; the verifiers
    compare it with the one they derive from the model.
    """
    piece: list[set] = [set(), set(), set(), set()]  # by first letter
    interior = set()
    for letters, p in points:
        if letters:
            piece[letters[0]].add(p)
        if len(letters) < depth:
            interior.add(p)
    witness = ParadoxWitness(
        pieces_a=(frozenset(piece[Letter.A]), frozenset(piece[Letter.A_INV])),
        movers_a=("e", Letter.A.symbol),
        pieces_b=(frozenset(piece[Letter.B]), frozenset(piece[Letter.B_INV])),
        movers_b=("e", Letter.B.symbol),
    )
    return witness, frozenset(interior)


# ---------------------------------------------------------------------------
# nonnegative integer polynomials: the planar two-piece paradox
# ---------------------------------------------------------------------------

#: Hard cap on the planar paradox's (max_coeff+1)^(max_degree+1) points; at the cap, ``smp_verify``
#: takes 4.0-4.2 s and 268 MiB peak RSS at (19, 1), 3.1-3.3 s and 214 MiB at (9, 3), 6.9-7.0 s and
#: 183 MiB at (1, 1023) and 3.5-3.7 s and 184 MiB at (4, 15), two runs each in a fresh process on a
#: 2-vCPU VM, alternated with runs that rounded the defect by shifts on the unstripped unit (4.5-5.5,
#: 3.6-3.7, 6.1-7.1 and 3.6-4.3 s): time bounds it.  The cap holds at and below the default precision;
#: above it, ``smp_verify`` scales it by DEFAULT_PRECISION_BITS / bits, since at 1024 bits a point adds
#: about 670 B to the peak RSS, not the 185 B it adds at 128 (at (7, 3), same VM).
SMP_POINT_CAP = 2**20


def poly_str(p: tuple[int, ...]) -> str:
    """The text form of a coefficient tuple, like ``1 + 2x^1 + 1x^3``; the zero polynomial is ``0``."""
    return " + ".join(f"{c}x^{k}" if k else str(c) for k, c in enumerate(p) if c) or "0"


def smp_g(p: tuple[int, ...]) -> tuple[int, ...]:
    """Divide by x (rotate the planar point by e^-i).  Domain: class A."""
    if p and p[0]:
        raise DomainError("smp_g needs a zero constant term")
    return p[1:]


def smp_h(p: tuple[int, ...]) -> tuple[int, ...]:
    """Subtract 1 (translate the planar point by -1).  Domain: class B."""
    if not (p and p[0]):
        raise DomainError("smp_h needs a positive constant term")
    # only a lone constant 1 leaves a trailing zero
    return () if p == (1,) else (p[0] - 1,) + p[1:]


def enumerate_polys(max_degree: int, max_coeff: int) -> tuple[tuple[int, ...], ...]:
    """All polynomials with degree <= max_degree and coefficients <= max_coeff.

    Padded coefficient tuples map one-to-one onto stripped polynomials, so
    this yields (max_coeff+1)^(max_degree+1) distinct elements, in
    ``itertools.product`` order with the constant term most significant.
    It checks no size: :func:`smp_verify` checks its point cap first.
    """
    polys = []
    for t in itertools.product(range(max_coeff + 1), repeat=max_degree + 1):
        n = len(t)
        while n and not t[n - 1]:
            n -= 1
        polys.append(t[:n])
    return tuple(polys)


def _grid_bits(precision_bits: int) -> int:
    """F of the fixed-point grid: the numeric half of smp_verify holds each real as an int v meaning v*2^-F.

    Sums of grid values, and their products by an integer, lie on the grid,
    and rounding to precision_bits significant bits only clears low bits.
    The exact product of two grid values lies on 2^-2F; rounded, it is back
    on 2^-F whenever its magnitude is at least 2^-precision_bits, since its
    lowest kept bit is then at or above 2^-2*precision_bits = 2^-F.
    :func:`_mul` checks this for every product all the same.
    """
    return 2 * precision_bits


class _OffGrid(ArithmeticError):
    """A value the fixed-point kernel cannot hold exactly."""


def _rounding_tables(prec: int, top: int) -> tuple[list[int], list[int], list[int]]:
    """Ties-to-even rounding to prec bits as constants by bit length, for every int of bit length 0 to ``top``.

    Returns (half, odd, keep), indexed by n = v.bit_length().  With
    s = n - prec > 0 and v = q*2^s + r, q floored: half = 2^(s-1) - 1,
    odd = 2^s and keep = -2^s, so ``(v + half[n] + ((v & odd[n]) != 0)) & keep[n]``
    carries into q exactly when r is above one half, or equal to it with q
    odd (v & 2^s is q's low bit), and clears the s low bits, both in two's
    complement: libmp's round_nearest at the same scale.  For n <= prec the
    entries are 0, 0 and -1, which leave v unchanged.  A value longer than
    ``top`` bits has no entry and raises IndexError.  :class:`_Kernel`
    builds them once per smp_verify call; its rounder and the column sums of
    :func:`_embed_polys` read them.
    """
    shifts = range(-prec, top + 1 - prec)
    half = [(1 << (s - 1)) - 1 if s > 0 else 0 for s in shifts]
    odd = [1 << s if s > 0 else 0 for s in shifts]
    keep = [-(1 << s) if s > 0 else -1 for s in shifts]
    return half, odd, keep


class _Kernel:
    """The planar fixed-point kernel at prec bits: one rounder, and products by a unit t stripped of zero low bits.

    Built for a unit t on the grid of :func:`_grid_bits` and a bound m on
    the column values: each has modulus below (m + 1) * 2^F, so below 2^top
    with top = F + (m + 1).bit_length().  ``unit`` is t with the ``strip``
    zero low bits its two components share taken off, F at most, so a
    product by it (:func:`_mul`) multiplies by ints of at most prec bits in
    place of 2F.  Rounding to prec significant bits commutes with scaling by
    2^strip, so the off-grid mask ``low`` and the shift back ``shift`` move
    by strip and every result is that of the unstripped product.

    ``round`` is ties to even by the tables of :func:`_rounding_tables`,
    which span every bit length the kernel reaches.  With the unit's
    components below 2^U, a product by it is below 2^(top+U+1), and rounded
    and shifted back at most that; the difference of such a product and a
    column value, or of a column value and one translated by -1, is below
    2^(top+U+2).
    """

    __slots__ = ("prec", "grid", "t", "unit", "shift", "low", "tables", "round")

    def __init__(self, t: tuple[int, int], precision_bits: int, max_sum: int):
        prec, grid = precision_bits, _grid_bits(precision_bits)
        strip = min([grid] + [(c & -c).bit_length() - 1 for c in t if c])
        self.prec, self.grid, self.t = prec, grid, t
        self.unit = (t[0] >> strip, t[1] >> strip)
        self.shift = grid - strip
        self.low = (1 << self.shift) - 1
        top = grid + (max_sum + 1).bit_length() + max(c.bit_length() for c in self.unit) + 2
        half, odd, keep = self.tables = _rounding_tables(prec, top)

        def round_(v: int) -> int:
            n = v.bit_length()
            return (v + half[n] + ((v & odd[n]) != 0)) & keep[n]

        self.round = round_


def _mul(z: tuple[int, int], w: tuple[int, int], kernel: _Kernel) -> tuple[int, int]:
    """A grid point z times the kernel's unit w, or its conjugate, as libmp's mpc_mul of z and w * 2^strip.

    The product is exact and each component rounds once, by the kernel's
    rounder, on 2^-(2F - strip); a shift of F - strip bits brings it back to
    the grid, and a product with bits below the grid fails closed.
    """
    a, b = z
    c, d = w
    rnd = kernel.round
    re, im = rnd(a * c - b * d), rnd(a * d + b * c)
    if re & kernel.low or im & kernel.low:
        raise _OffGrid(
            f"a {kernel.prec}-bit product has bits below the fixed-point grid 2^-{kernel.grid}; it is not rounded again"
        )
    return re >> kernel.shift, im >> kernel.shift


def _from_mpf(x: tuple, grid: int) -> int:
    sign, man, exp, _ = x
    if exp + grid < 0:
        raise _OffGrid(f"a libmp value has bits below the fixed-point grid 2^-{grid}")
    v = man << (exp + grid)
    return -v if sign else v


def _to_mpc(z: tuple[int, int], grid: int) -> tuple:
    """A grid point as an exact raw libmp complex tuple."""
    return from_man_exp(z[0], -grid), from_man_exp(z[1], -grid)


def _planar_kernel(max_degree: int, max_coeff: int, precision_bits: int) -> _Kernel:
    """The kernel of one smp_verify call: t = e^i, libmp's mpc_exp on the grid, and the bound max_coeff*(max_degree+1).

    |t^k| = 1, so every sum of :func:`_embed_polys` has modulus at most
    m = max_coeff*(max_degree+1) up to its roundings, below (m+1) * 2^F.
    """
    grid = _grid_bits(precision_bits)
    t = tuple(_from_mpf(x, grid) for x in mpc_exp((fzero, fone), precision_bits, round_nearest))
    return _Kernel(t, precision_bits, max_coeff * (max_degree + 1))


def _powers(kernel: _Kernel, max_degree: int) -> list[tuple[int, int]]:
    """t^0, ..., t^max_degree for the kernel's t: each power is the one before times t by :func:`_mul`, so t^1 is t."""
    powers = [(1 << kernel.grid, 0)]
    for _ in range(max_degree):
        powers.append(_mul(powers[-1], kernel.unit, kernel))
    return powers


def _embed_polys(kernel: _Kernel, max_degree: int, max_coeff: int) -> tuple[list[int], list[int]]:
    """P(t) for every P of ``enumerate_polys``, for the kernel's t, on its grid: (re, im).

    The real and imaginary parts are two int columns, indexed as the
    enumeration.  The sum over c0..ck is shared by every polynomial with that
    prefix, so the sums are built one power of t (:func:`_powers`) at a time.
    Each term c*t^k is rounded once, and each nonzero coefficient adds one
    rounded sum: the operations of summing each polynomial on its own, in the
    same order, so every value is bit-identical to that route.  The two
    parts of a sum round independently, so each column is built on its own.
    Rounding is to nearest, as in mpmath's default context; only t itself
    comes from libmp.  Each sum rounds by the kernel's tables written out
    over the column, which its many sums repay.
    """
    base = max_coeff + 1
    rnd = kernel.round
    half, odd, keep = kernel.tables
    powers = _powers(kernel, max_degree)

    def column(part: int) -> list[int]:
        values = [0]
        for power in powers:
            # the polynomial of index i with coefficient c appended has index base*i + c
            extended = [0] * (base * len(values))
            extended[::base] = values
            for c in range(1, base):
                term = rnd(c * power[part])
                # kernel.round(z + term) for each z, by the tables
                extended[c::base] = [
                    (v + half[n] + ((v & odd[n]) != 0)) & keep[n]
                    for z in values
                    for v in (z + term,)
                    for n in (v.bit_length(),)
                ]
            values = extended
        return values

    return column(0), column(1)


def _embed_poly(p: tuple[int, ...], kernel: _Kernel) -> tuple[int, int]:
    """P(t) for one polynomial, summed on its own in the order :func:`_embed_polys` documents, so bit-identical."""
    rnd = kernel.round
    power, z = (1 << kernel.grid, 0), (0, 0)
    for k, c in enumerate(p):
        if k:
            power = _mul(power, kernel.unit, kernel)
        if c:
            z = (rnd(z[0] + rnd(c * power[0])), rnd(z[1] + rnd(c * power[1])))
    return z


#: Unit roundoff of a float: round to nearest with a 53-bit significand.
FLOAT_UNIT = 2.0**-53


def _coordinate_error(max_degree: int, max_coeff: int, precision_bits: int) -> float:
    """Bound on |float coordinate - exact coordinate| for every embedded point.

    |t^k| = 1, so every point and partial sum has modulus at most
    m = max_coeff*(max_degree+1).  With u = 2^-precision_bits: e^i is
    within one ulp (2u) per component, each power, term c*t^k and sum
    rounds once to nearest, so to first order the powers drift by 4ku and
    a point by (max_degree+1)*(5m+1)*u; 8*(max_degree+1)*(m+1)*u also
    covers the second-order terms.  The float conversion, one exact int
    division v / 2^grid, then rounds correctly to nearest: it moves a
    coordinate by at most its magnitude times FLOAT_UNIT, or among
    subnormals by at most 2^-1075, less than the accumulated term.
    """
    m = max_coeff * (max_degree + 1)
    accumulated = 8 * (max_degree + 1) * (m + 1) * 2.0**-precision_bits
    return accumulated + FLOAT_UNIT * (m + accumulated)


def _separation_slack(max_degree: int, max_coeff: int, precision_bits: int, distance: float) -> float:
    """Bound on (float distance of a pair) - (exact distance) for the sweep.

    Both points move by at most sqrt(2) times the coordinate error; the
    float distance (a subtraction and a square per coordinate, a sum and
    a square root) is within 4*FLOAT_UNIT of its value relative to it.
    """
    return 2 * math.sqrt(2) * _coordinate_error(max_degree, max_coeff, precision_bits) + 4 * FLOAT_UNIT * distance


def _difference_slack(max_degree: int, max_coeff: int, precision_bits: int) -> float:
    """Bound on |search distance of D - sweep distance of a pair realising D|, for every D.

    Each is within its own error of |D(e^i)| <= m = max_coeff*(max_degree+1),
    so neither exceeds 2m, where both errors are taken.  The sweep's is
    :func:`_separation_slack`.  The search (:func:`_least_differences`) sums
    at most n = max_degree+1 terms d*t^k per point, |d| <= max_coeff, over
    the powers of :func:`_powers` (each within 8n*2^-precision_bits of e^ik
    per component, as in _coordinate_error) rounded to floats (FLOAT_UNIT
    more).  Each product and each sum rounds once to nearest, at a modulus of
    at most m, so a coordinate is within m*(8n*2^-precision_bits +
    FLOAT_UNIT) + 2n*m*FLOAT_UNIT, and one more m*FLOAT_UNIT covers the
    second-order terms.  Both points of a distance move by at most sqrt(2)
    times that, and the float distance rounds within 4*FLOAT_UNIT of its
    value relative to it.
    """
    n = max_degree + 1
    m = max_coeff * n
    coordinate = m * (8 * n * 2.0**-precision_bits + (2 * n + 2) * FLOAT_UNIT)
    search = 2 * math.sqrt(2) * coordinate + 4 * FLOAT_UNIT * 2 * m
    return search + _separation_slack(max_degree, max_coeff, precision_bits, 2 * m)


def _closest_pair_sq(xs: Sequence[float], ys: Sequence[float]) -> tuple[float, tuple[int, int]]:
    """Plane sweep for the closest pair of the points (xs[i], ys[i]); returns (squared distance, indices).

    Points are visited in (x, y, index) order: the indices are sorted by y,
    then again by x.  Both sorts are stable, so the second keeps y order
    among equal x, and the first keeps index order among equal y.  The
    active strip is kept in (y, x, index) order as two parallel lists, its y
    values and its indices.  A new point goes after every active point of
    equal y, since it comes after them in (x, index); a leaving point is
    found by bisecting to its y and stepping through that run to its index.
    The window is the active points with y - d <= cy < y + d for
    d = sqrt(best) at the point's visit, walked in strip order, so of
    several pairs at the least distance the first one met wins.
    """
    order = sorted(range(len(xs)), key=ys.__getitem__)
    order.sort(key=xs.__getitem__)
    best = d = math.inf
    pair = (-1, -1)
    active_y: list[float] = []
    active: list[int] = []
    left = 0
    for idx in order:
        x, y = xs[idx], ys[idx]
        while xs[order[left]] < x - d:
            old = order[left]
            k = bisect_left(active_y, ys[old])
            while active[k] != old:
                k += 1
            del active_y[k], active[k]
            left += 1
        for k in range(bisect_left(active_y, y - d), bisect_left(active_y, y + d)):
            cidx = active[k]
            dsq = (x - xs[cidx]) ** 2 + (y - active_y[k]) ** 2
            if dsq < best:
                best, d = dsq, math.sqrt(dsq)
                pair = (cidx, idx)
        k = bisect_right(active_y, y)
        active_y.insert(k, y)
        active.insert(k, idx)
    return best, pair


def _least_differences(powers: Sequence[complex], max_coeff: int, window: float) -> tuple[float, list[tuple[int, ...]]]:
    """The least |D(t)| over nonzero D with coefficients in [-max_coeff, max_coeff], and each D within ``window`` of it.

    ``powers`` holds t^0..t^max_degree as floats.  Meet in the middle: D(t) =
    L(t) + t^h*H(t) for the low h = len(powers)//2 coefficients L and the
    high ones H, so |D(t)| is the distance from L(t) to -t^h*H(t).  Each side
    is summed in floats over every digit vector, and a plane sweep in x order
    keeps one active strip per side, in y order: a point is compared with the
    other side's strip only, so the many points of its own side never enter
    its window, and L = H = 0 is skipped.  The window reaches the least
    distance so far plus twice ``window``, so every pair within ``window`` of
    the least is compared.  It starts at the least modulus of a nonzero sum,
    the distance from that sum to the other side's zero, so from the first
    point on, each strip holds only points within that reach in x; started
    at infinity, it would take every point visited before the two sides
    first meet.  Each kept D is a coefficient tuple, constant first, with its
    first nonzero coefficient positive: -D is realised by the same pairs,
    swapped.
    """
    digits = range(-max_coeff, max_coeff + 1)
    h = len(powers) // 2

    def sums(side: Sequence[complex], sign: int) -> list[complex]:
        # the sum at index i has the digits of i in base 2*max_coeff + 1, less max_coeff, lowest power first
        zs = [0j]
        for p in side:
            terms = [sign * d * p for d in digits]
            zs = [z + w for z in zs for w in terms]
        return zs

    low, high = sums(powers[:h], 1), sums(powers[h:], -1)
    points = low + high
    n_low = len(low)
    zeros = {n_low // 2, n_low + len(high) // 2}
    xs, ys = [z.real for z in points], [z.imag for z in points]
    order = sorted(range(len(points)), key=xs.__getitem__)
    strips: tuple[tuple[list[float], list[int]], ...] = (([], []), ([], []))  # per side: y values and indices
    # a nonzero sum and the other side's zero are a cross pair, so the window starts at the least of those
    best = min(abs(z) for z in points if z)
    reach = best + 2 * window
    near: list[tuple[float, int, int]] = []
    left = 0
    for idx in order:
        x, y, z = xs[idx], ys[idx], points[idx]
        while xs[order[left]] < x - reach:
            old = order[left]
            strip_y, strip = strips[old >= n_low]
            k = bisect_left(strip_y, ys[old])
            while strip[k] != old:
                k += 1
            del strip_y[k], strip[k]
            left += 1
        other_y, other = strips[idx < n_low]
        for k in range(bisect_left(other_y, y - reach), bisect_right(other_y, y + reach)):
            j = other[k]
            dist = abs(z - points[j])
            if dist <= reach and not (idx in zeros and j in zeros):
                near.append((dist, j, idx))
                if dist < best:
                    best, reach = dist, dist + 2 * window
        strip_y, strip = strips[idx >= n_low]
        k = bisect_right(strip_y, y)
        strip_y.insert(k, y)
        strip.insert(k, idx)

    def digit_vector(i: int, length: int) -> list[int]:
        out = [0] * length
        for k in range(length - 1, -1, -1):
            i, out[k] = divmod(i, len(digits))
        return [c - max_coeff for c in out]

    kept = set()
    for dist, a, b in near:
        if dist <= best + window:
            a, b = min(a, b), max(a, b)
            d = digit_vector(a, h) + digit_vector(b - n_low, len(powers) - h)
            sign = 1 if next(c for c in d if c) > 0 else -1
            kept.add(tuple(sign * c for c in d))
    return best, sorted(kept)


def _realising_points(differences: Iterable[Sequence[int]], max_degree: int, max_coeff: int) -> bytes:
    """A byte per index of ``enumerate_polys``: 1 at both ends of each pair (i, j) with P_i - P_j in ``differences``.

    P_i - P_j = D exactly when every coefficient p_k of P_i lies in
    [max(0, d_k), max_coeff + min(0, d_k)]: the i form a box of digits,
    box(D), and P_j = P_i - D then ranges over box(-D).  So the mask is the
    union of box(D) and box(-D) over every D.  Each box is built from the
    least significant digit (the highest power) up, each digit making base
    copies of the mask so far, blank outside the box.  The rest is 0.
    """
    base = max_coeff + 1
    union = 0
    for d in differences:
        for e in (d, [-c for c in d]):
            box = b"\x01"
            for c in reversed(e):
                blank = bytes(len(box))
                box = b"".join(box if max(0, c) <= p <= max_coeff + min(0, c) else blank for p in range(base))
            union |= int.from_bytes(box, "big")
    return union.to_bytes(base ** (max_degree + 1), "big")


@dataclass(frozen=True)
class SMPReport:
    max_degree: int
    max_coeff: int
    precision_bits: int
    total: int
    count_a: int
    count_b: int
    min_distance: float
    min_pair: tuple[str, str]
    max_isometry_defect: float
    findings: tuple[Finding, ...]
    outcome: str

    @property
    def passed(self) -> bool:
        return self.outcome == "pass"


def _smp_index_maps(max_degree: int, max_coeff: int) -> tuple[int, range, range]:
    """g and h on the indices of ``enumerate_polys``, in closed form: (n_A, g images, h images).

    The order is mixed radix in base B = max_coeff + 1 with the constant term
    the most significant of the max_degree + 1 digits, so class A is the
    indices i < n_A = B^max_degree.  Dividing by x moves every digit one
    place up, so g is i -> B*i on class A; subtracting 1 lowers the top digit,
    so h is i -> i - n_A on class B, the indices n_A..B*n_A - 1.
    """
    base = max_coeff + 1
    n_a = base**max_degree
    return n_a, range(0, base * n_a, base), range((base - 1) * n_a)


def _smp_poly(i: int, max_degree: int, max_coeff: int) -> tuple[int, ...]:
    """``enumerate_polys(max_degree, max_coeff)[i]``, decoded from the mixed-radix order of :func:`_smp_index_maps`."""
    coeffs = [0] * (max_degree + 1)
    for k in range(max_degree, -1, -1):
        i, coeffs[k] = divmod(i, max_coeff + 1)
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return tuple(coeffs)


def _maps_match(polys: tuple[tuple[int, ...], ...], domain: range, images: range, forward) -> bool:
    """forward takes each polys[i] to polys[j] of the index map i -> j."""
    return len(images) == len(domain) and all(forward(polys[i]) == polys[j] for i, j in zip(domain, images))


def smp_verify(max_degree: int = 6, max_coeff: int = 3, precision_bits: int = DEFAULT_PRECISION_BITS) -> SMPReport:
    """Verify the two-piece planar paradox on a finite truncation.

    Symbolic side: A/B partition the range, and g and h are bijections onto
    the degree- and constant-truncated ranges.  Bijectivity rests on three
    facts: the enumeration is distinct, each closed-form index map of
    :func:`_smp_index_maps` is an injective range whose image indices are
    exactly the truncated image set, and the forward map (:func:`smp_g` or
    :func:`smp_h`) takes each polynomial to the one at its image index.
    Numeric side, at ``precision_bits``: all embedded points are pairwise
    distinct beyond 1e-12, and g/h act as the claimed isometries
    (rotation by e^-i, translation by -1).  Separation below threshold is
    reported as inconclusive, not failure: the embedded points are distinct
    transcendentals, only the precision can fall short.  A value the
    fixed-point kernel cannot hold exactly fails the run (``fixed_point_grid``).
    """
    if max_degree < 1 or max_coeff < 1:
        raise ValueError("need max_degree >= 1 and max_coeff >= 1")
    if not MIN_PRECISION_BITS <= precision_bits <= MAX_PRECISION_BITS:
        raise ValueError(f"precision_bits must be in {MIN_PRECISION_BITS}..{MAX_PRECISION_BITS}")
    # A point's grid ints grow with the bits, so above the default precision
    # the cap shrinks in proportion; below it, SMP_POINT_CAP holds.  Any base
    # >= 2 overshoots the cap at an exponent of its bit length, so clamping
    # the exponent there keeps the verdict and skips a huge power.
    cap = SMP_POINT_CAP * DEFAULT_PRECISION_BITS // max(precision_bits, DEFAULT_PRECISION_BITS)
    if (max_coeff + 1) ** min(max_degree + 1, cap.bit_length()) > cap:
        raise ResourceLimitError(
            f"{max_coeff + 1}^{max_degree + 1} polynomials exceed the configured cap {cap} at {precision_bits} bits"
        )
    polys = enumerate_polys(max_degree, max_coeff)
    total = len(polys)
    n_a, g_images, h_images = _smp_index_maps(max_degree, max_coeff)
    part_a, part_b = range(n_a), range(n_a, total)
    # Stripping trailing zeros keeps the lexicographic order of the padded
    # tuples, so an enumeration in strictly increasing order is distinct.
    distinct = all(map(tuple.__lt__, polys, polys[1:]))
    ok_partition = distinct and [j for j, p in enumerate(polys) if not p or not p[0]] == list(part_a)
    findings: list[Finding] = [Finding("partition", ok_partition)]

    # Each image is compared first, so the maps only ever index the enumeration.
    # g's image: degree <= max_degree - 1
    ok_g = [j for j, p in enumerate(polys) if len(p) <= max_degree] == list(g_images) and _maps_match(
        polys, part_a, g_images, smp_g
    )
    findings.append(Finding("g_bijection", ok_g, "" if ok_g else "shift-down failed an exactness check"))

    # h's image: constant <= max_coeff - 1
    ok_h = [j for j, p in enumerate(polys) if not p or p[0] < max_coeff] == list(h_images) and _maps_match(
        polys, part_b, h_images, smp_h
    )
    findings.append(Finding("h_bijection", ok_h, "" if ok_h else "decrement failed an exactness check"))
    # The numeric half decodes the two polynomials it names from their indices.
    del polys

    try:
        numeric, min_distance, min_pair, defect = _smp_numeric(
            (part_a, g_images), (part_b, h_images), max_degree, max_coeff, precision_bits
        )
    except _OffGrid as exc:
        numeric = [Finding("fixed_point_grid", False, str(exc))]
        min_distance, min_pair, defect = math.nan, ("", ""), math.nan
    findings += numeric

    # a separation below the resolution alone is inconclusive; any other failed check fails the run
    if not all(f.ok for f in findings if f.name != "separation"):
        outcome = "fail"
    elif not all(f.ok for f in findings):
        outcome = "inconclusive"
    else:
        outcome = "pass"
    return SMPReport(
        max_degree=max_degree,
        max_coeff=max_coeff,
        precision_bits=precision_bits,
        total=total,
        count_a=len(part_a),
        count_b=len(part_b),
        min_distance=min_distance,
        min_pair=min_pair,
        max_isometry_defect=defect,
        findings=tuple(findings),
        outcome=outcome,
    )


def _smp_numeric(g_map, h_map, max_degree, max_coeff, precision_bits):
    """The separation and isometries findings, the min distance and its pair, and the max isometry defect.

    The powers of t, the embedding, the g/h defects and the closest pair's
    two points run on one fixed-point kernel, built once here
    (:func:`_planar_kernel`): its rounding tables and its t with the shared
    zero low bits stripped serve every stage.  The closest pair's distance
    and the sampled rotation-invariance pairs run on libmp, on exactly
    converted points.  A grid value v becomes a float by
    one exact int division, v / 2^grid, correctly rounded to nearest with
    ties to even.  A pair's distance is |D(t)| for its difference D = P - Q.
    :func:`_least_differences` finds the least |D(t)| by meet in the middle
    and keeps each D within twice :func:`_difference_slack` of it, so every
    closest pair of the sweep over all points realises a kept D.  Only the
    points of those realisations (:func:`_realising_points`) are converted
    to floats, read through ``itertools.compress`` without a copy of the
    columns, and swept.  The sweep visits and walks them in the order it
    would among all points, so it meets the same pair first.  Its distance
    must lie within the slack of the search's least, or the run raises
    InvariantViolationError naming both: so it does when the swept points
    are fewer than two, or hold no realisation of a least D.  Swept points
    that keep only some of those realisations still give a pair at the
    least distance, but perhaps not the first one.  The grid points are
    freed before the sweep; the closest pair's two points are summed again
    on their own.
    """
    prec, rnd = precision_bits, round_nearest
    kernel = _planar_kernel(max_degree, max_coeff, prec)
    grid, t = kernel.grid, kernel.t
    one = 1 << grid
    # the least difference, and each within twice the slack of it, from the powers of t as floats; this
    # runs before the embedding, so its sums are freed before the grid points are made
    powers = [complex(x / one, y / one) for x, y in _powers(kernel, max_degree)]
    slack = _difference_slack(max_degree, max_coeff, prec)
    least, differences = _least_differences(powers, max_coeff, 2 * slack)
    swept = _realising_points(differences, max_degree, max_coeff)

    re, im = _embed_polys(kernel, max_degree, max_coeff)

    def dist(z, w):
        return mpc_abs(mpc_sub(z, w, prec, rnd), prec, rnd)

    defect = _gh_defect(kernel, re, im, g_map, h_map)

    # rotation preserves sampled pairwise distances: each sampled point is
    # converted and rotated once, and consecutive points are compared
    lib_t_inv = _to_mpc((t[0], -t[1]), grid)
    step = max(1, len(re) // 257)
    sample = (_to_mpc(z, grid) for z in zip(itertools.islice(re, 0, None, step), itertools.islice(im, 0, None, step)))
    turned = ((z, mpc_mul(lib_t_inv, z, prec, rnd)) for z in sample)
    for (u, ru), (v, rv) in itertools.pairwise(turned):
        d = mpf_abs(mpf_sub(dist(ru, rv), dist(u, v), prec, rnd), prec, rnd)
        if mpf_cmp(d, defect) > 0:
            defect = d
    tol = from_man_exp(1, 24 - precision_bits)
    isometry_ok = mpf_cmp(defect, tol) <= 0
    isometries = Finding("isometries", isometry_ok, f"max defect {to_str(defect, 6)} vs tolerance {to_str(tol, 6)}")

    # the sweep, over the points that realise those differences only
    xs = array("d", (v / one for v in itertools.compress(re, swept)))
    ys = array("d", (v / one for v in itertools.compress(im, swept)))
    del re, im
    best_sq, ends = _closest_pair_sq(xs, ys)
    distance = math.sqrt(best_sq)
    if not abs(distance - least) <= slack:
        raise InvariantViolationError(
            f"the closest-pair sweep's distance {distance!r} and the least difference {least!r} "
            f"differ by more than their slack {slack:.3g}"
        )
    i, j = (next(itertools.islice(itertools.compress(itertools.count(), swept), k, None)) for k in ends)
    p, q = _smp_poly(i, max_degree, max_coeff), _smp_poly(j, max_degree, max_coeff)
    z, w = _embed_poly(p, kernel), _embed_poly(q, kernel)
    min_distance = to_float(dist(_to_mpc(z, grid), _to_mpc(w, grid)), rnd=rnd)
    separated = distance - _separation_slack(max_degree, max_coeff, prec, distance) > SEPARATION_RESOLUTION
    pair = (poly_str(p), poly_str(q))
    separation = Finding(
        "separation", separated, f"min pairwise distance {min_distance:.6g} between {pair[0]} and {pair[1]}"
    )
    return [separation, isometries], min_distance, pair, to_float(defect, rnd=rnd)


def _entries(column: list[int], indices: Sequence[int]) -> Iterator[int]:
    """column[i] for each i of ``indices``, in order.

    A range inside the column is read by one ``islice``, which neither copies
    the column nor boxes an index per entry; any other sequence is indexed
    entry by entry.
    """
    if type(indices) is range and indices.step > 0 and 0 <= indices.start and indices.stop <= len(column):
        return itertools.islice(column, indices.start, indices.stop, indices.step)
    return map(column.__getitem__, indices)


def _gh_defect(kernel: _Kernel, re: list[int], im: list[int], g_map, h_map) -> tuple:
    """max |z_j - moved z_i| over the index pairs (i, j) of g and h, as libmp's mpc_abs of mpc_sub would give it.

    g_map and h_map are each (domain, images), two index sequences paired in
    order, and both loops run on the kernel that built the columns.  g
    rotates by t^-1 = conj(t) through :func:`_mul`, by the conjugate of the
    kernel's narrowed unit, and fails closed on a product off the grid; h
    translates by -1.  The translation and each component of the difference
    round by the kernel's rounder, as mpc_sub_mpf and mpc_sub round them,
    and mpf_hypot is monotone in the exact squared modulus, so one mpc_abs
    of the first difference with the largest dx^2 + dy^2 is the largest
    defect.

    An h pair whose move is exact has defect 0, so it is skipped.  Every
    column value is a sum rounded to prec bits, as :func:`_embed_polys`
    builds it, which the rounder leaves as it is.  So where re[i] - re[j]
    is exactly 2^grid (one) and im[i] == im[j], the rounded translation of
    re[i] is re[j], and dx = dy = 0.  The imaginary parts agree on every h
    pair of the embedding, since the constant term adds to the real part
    only; one streaming pass over the columns selects the pairs where
    either equality fails, and only those run the per-pair code.  Columns
    without that structure only select more pairs.  The largest squared
    modulus starts at 0 with the difference (0, 0), the defect of a skipped
    pair or of no pair at all.
    """
    rnd, grid = kernel.round, kernel.grid
    c, d = kernel.unit
    t_inv, one = (c, -d), 1 << grid
    worst_sq, worst = 0, (0, 0)
    for i, j in zip(*g_map):
        zr, zi = _mul((re[i], im[i]), t_inv, kernel)
        dx, dy = rnd(re[j] - zr), rnd(im[j] - zi)
        sq = dx * dx + dy * dy
        if sq > worst_sq:
            worst_sq, worst = sq, (dx, dy)
    h_domain, h_images = h_map
    # the h pairs whose move is not exact: real parts not exactly one apart, or imaginary parts apart
    inexact = map(
        or_,
        map(one.__ne__, map(sub, _entries(re, h_domain), _entries(re, h_images))),
        map(ne, _entries(im, h_domain), _entries(im, h_images)),
    )
    for i, j in itertools.compress(zip(h_domain, h_images), inexact):
        dx, dy = rnd(re[j] - rnd(re[i] - one)), rnd(im[j] - im[i])
        sq = dx * dx + dy * dy
        if sq > worst_sq:
            worst_sq, worst = sq, (dx, dy)
    return mpc_abs(_to_mpc(worst, grid), kernel.prec, round_nearest)


# ---------------------------------------------------------------------------
# orbit transport: word decomposition -> sphere orbit decomposition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OrbitTransportResult:
    model: FiniteActionModel
    witness: ParadoxWitness
    report: WitnessReport
    orbit_size: int
    expected_size: int

    @property
    def passed(self) -> bool:
        return self.report.passed and self.orbit_size == self.expected_size


def orbit_transport(depth: int, certificate: FreenessCertificate) -> OrbitTransportResult:
    """Transport the word-level decomposition onto an orbit of the base vector.

    Requires a verified certificate: freeness of the action at the
    base vector is what makes w -> w*v0 injective, so the word pieces map to
    honest disjoint point sets.  Covering is checked on the interior (orbit
    points of ball(depth-1)), the one truncation concession.

    A model point is the integer triple p * 7^depth for the orbit point
    p = w v0 of a word w of ball(depth): w's matrix has denominator 7^len(w),
    so the triple is integral, and scaling is injective.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if not verify_certificate(certificate):
        raise PreconditionError("certificate does not verify")
    bx, by, bz = certificate.base_vector

    # word_at takes each point to its word; it is also the collision check.
    scale = 7**depth
    word_at: dict[Point, bytes] = {}
    for letters, ints, den in ball_matrices(depth):
        factor = scale // den
        p = (
            (ints[0] * bx + ints[1] * by + ints[2] * bz) * factor,
            (ints[3] * bx + ints[4] * by + ints[5] * bz) * factor,
            (ints[6] * bx + ints[7] * by + ints[8] * bz) * factor,
        )
        if p in word_at:
            raise InvariantViolationError(
                f"orbit collision: {ReducedWord(word_at[p])} and {ReducedWord(letters)} "
                "agree at the base vector despite the certificate"
            )
        word_at[p] = letters

    # The generator G acts on points as (7G) p / 7.  A non-integral result is
    # no orbit point, so G p lies outside the truncation.
    points = frozenset(word_at)
    maps: dict[str, dict[Point, Point]] = {"e": {p: p for p in points}}
    for letter in Letter:
        g, g_den = SCALED_GENERATORS[letter]
        action: dict[Point, Point] = {}
        for p in word_at:
            px, py, pz = p
            qx = g[0] * px + g[1] * py + g[2] * pz
            qy = g[3] * px + g[4] * py + g[5] * pz
            qz = g[6] * px + g[7] * py + g[8] * pz
            if qx % g_den or qy % g_den or qz % g_den:
                continue
            q = (qx // g_den, qy // g_den, qz // g_den)
            if q in word_at:
                action[p] = q
        maps[letter.symbol] = action
    model = FiniteActionModel(points=points, maps=maps, partial=True)
    witness, interior = _prefix_class_witness(((letters, p) for p, letters in word_at.items()), depth)
    report = verify_paradox_witness(model, points, witness, interior=interior)
    return OrbitTransportResult(
        model=model,
        witness=witness,
        report=report,
        orbit_size=len(points),
        expected_size=ball_size(depth),
    )
