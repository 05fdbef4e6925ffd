"""Finitely additive measures on finite structures, and the contradiction chain.

Everything here is exact rational arithmetic over finite carriers:

* Point-weight measures on power sets, invariant measures on finite group
  tables, and the measure a free finite action induces on its acting group:
  integrate the uniform orbit measures of a piece's translates against an
  invariant measure downstairs and an invariant measure upstairs falls out.
  The report verifies additivity, total mass, and right invariance through
  the defining integral, not through the point weights it happens to equal.

* Shift-density windows and finite ergodic averages, each with its exact
  defect bound: the objects whose limits would be invariant means, kept at
  finite n where the bounds are checkable statements instead of appeals to
  compactness.

* The contradiction chain: a paradoxical decomposition and an additive
  probability measure cannot coexist.  Each inequality in
  nu(X) >= sum nu(pieces) = sum nu(moved) >= nu(union moved) = 2 nu(X)
  is evaluated against a concrete measure, and the report either confirms
  the forced conclusion nu(X) <= 0 or pinpoints the first link that breaks.
  On truncated models the final covering link is certified set-theoretically
  on an interior rather than numerically; see :func:`paradox_contradiction`.

The hot sums are integer kernels: point masses and ergodic averages add
integer numerators over one common denominator, derived once per measure or
per call, and build a Fraction only for a result.  The Fraction routes they
replaced are the tests' oracles.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from math import lcm
from operator import or_
from random import Random
from typing import Callable, Hashable, Iterable, Iterator, Mapping, Sequence

from .errors import (
    DomainError,
    InvariantViolationError,
    ModelError,
    PreconditionError,
    ResourceLimitError,
)
from .paradox import FiniteActionModel, ParadoxWitness, _witness_pass
from .report import Finding

Point = Hashable


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        raise DomainError("floats are not exact; pass Fraction, int, or 'p/q' string")
    return Fraction(x)


#: Largest carrier whose subsets are enumerated exhaustively (2^12 = 4096 subsets).
MAX_EXHAUSTIVE_ORDER = 12

#: Most evaluations, 3^|G| disjoint subset pairs times |X| points, that
#: induced_group_measure checks additivity with; each evaluates f at one
#: point for one pair.  Measured in process on a 2-vCPU VM, cyclic groups on
#: copies of themselves took 20-31 us per evaluation at orders 1 to 8: order 8
#: on 1, 2 and 3 copies 1.28, 2.49 and 3.81 s.  Runs at the cap (order 8 on two
#: copies), from order 1 on 34,992 copies to order 8, took 1.2-3.5 s.
INDUCED_EVALUATION_CAP = 3**8 * 16


def _subsets(items: Sequence) -> Iterator[frozenset]:
    """Every subset of ``items`` in mask order; the one exhaustive subset loop."""
    n = len(items)
    if n > MAX_EXHAUSTIVE_ORDER:
        raise ResourceLimitError(
            f"exhaustive subset enumeration is exponential; this build caps the carrier at "
            f"{MAX_EXHAUSTIVE_ORDER} elements, got {n}"
        )
    for mask in range(1 << n):
        yield frozenset(items[i] for i in range(n) if mask >> i & 1)


# ---------------------------------------------------------------------------
# point-weight measures on power sets
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class PointMeasure:
    """A finitely additive measure on the full power set of a finite universe.

    Determined by nonnegative point weights; additivity is then automatic,
    but :func:`audit_point_measure` rechecks it anyway on sampled pairs, as a
    guard on the evaluation code rather than on the mathematics.  The
    weights are grouped by value once: ``groups`` pairs each distinct weight,
    as an integer numerator over the common ``denominator`` of all weights,
    with the points that carry it, so a uniform measure is one group and a
    Dirac measure one point.  Masses are then integer sums over that one
    denominator, and a Fraction is built only for the result.
    """

    universe: frozenset
    weights: Mapping[Point, Fraction]

    groups: tuple[tuple[int, frozenset], ...] = field(init=False, repr=False)
    denominator: int = field(init=False, repr=False)

    def __post_init__(self) -> None:
        fixed = dict(self.weights)
        by_value: dict[tuple[int, int], tuple[Fraction, list]] = {}
        last = object()
        for p, w in fixed.items():
            # A uniform measure gives every point one Fraction, so its key is computed once.
            if w is not last:
                last = _frac(w)
                points = by_value.setdefault((last.numerator, last.denominator), (last, []))[1]
            points.append(p)
        self.denominator = lcm(*(den for _, den in by_value))
        self.groups = tuple(
            (numerator * (self.denominator // den), frozenset(points))
            for (numerator, den), (_, points) in by_value.items()
        )
        if not all(points <= self.universe for _, points in self.groups):
            p = next(p for p in fixed if p not in self.universe)
            raise ModelError(f"weight on {p!r} outside the universe")
        for (numerator, _), (_, points) in by_value.items():
            if numerator < 0:
                raise ModelError(f"negative weight on {points[0]!r}")
        for w, points in by_value.values():
            fixed.update(dict.fromkeys(points, w))
        self.weights = fixed

    @classmethod
    def uniform(cls, universe: Iterable) -> "PointMeasure":
        pts = frozenset(universe)
        if not pts:
            raise DomainError("empty universe has no uniform probability")
        return cls(pts, dict.fromkeys(pts, Fraction(1, len(pts))))

    @classmethod
    def dirac(cls, universe: Iterable, at) -> "PointMeasure":
        pts = frozenset(universe)
        if at not in pts:
            raise ModelError(f"dirac point {at!r} outside the universe")
        return cls(pts, {at: Fraction(1)})

    def mu(self, subset: Iterable) -> Fraction:
        """Exact mass of ``subset``: each group's weight times the number of its points in the subset."""
        s = frozenset(subset)
        if not s <= self.universe:
            raise DomainError("measure evaluated outside its universe")
        return Fraction(sum(w * len(s & points) for w, points in self.groups), self.denominator)

    def total(self) -> Fraction:
        return self.mu(self.universe)

    def is_probability(self) -> bool:
        return self.total() == 1


def _indexed_mass(nu: PointMeasure, model: FiniteActionModel) -> Callable[[int], Fraction]:
    """nu on bitsets over the model's index: each group's weight times its bits in the bitset.

    The weights are ``nu``'s integer numerators over ``nu.denominator``, the
    ones :meth:`PointMeasure.mu` sums.  A weighted point the model lacks is in
    no bitset, so it adds nothing.
    """
    index = model._index
    groups = [(w, index.bits(points & index.members, "nu")) for w, points in nu.groups]
    denominator = nu.denominator

    def mass(b: int) -> Fraction:
        return Fraction(sum(w * (b & group).bit_count() for w, group in groups), denominator)

    return mass


#: Random disjoint pairs drawn by :func:`audit_point_measure`.
ADDITIVITY_SAMPLES = 200


def audit_point_measure(m: PointMeasure, *, seed: int = 0) -> Finding:
    """Additivity on random disjoint pairs: mu(A u B) = mu(A) + mu(B)."""
    rng = Random(seed)
    pts = sorted(m.universe, key=str)
    if m.mu(frozenset()) != 0:
        return Finding("additivity", False, "mu(empty) != 0")
    for _ in range(ADDITIVITY_SAMPLES):
        a, b = set(), set()
        for p in pts:
            lot = rng.randrange(3)
            if lot == 0:
                a.add(p)
            elif lot == 1:
                b.add(p)
        if m.mu(a | b) != m.mu(a) + m.mu(b):
            return Finding("additivity", False, f"failed on |A|={len(a)}, |B|={len(b)}")
    return Finding("additivity", True, f"{ADDITIVITY_SAMPLES} random disjoint pairs")


# ---------------------------------------------------------------------------
# finite groups and invariant measures
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class GroupTable:
    """A finite group as an explicit multiplication table."""

    elements: tuple
    table: Mapping[tuple, Point]
    identity: Point

    def validate(self) -> None:
        elems = set(self.elements)
        if len(elems) != len(self.elements):
            raise ModelError("duplicate group elements")
        if self.identity not in elems:
            raise ModelError("identity missing from the element list")
        for g in self.elements:
            for h in self.elements:
                if (g, h) not in self.table:
                    raise ModelError(f"product {g!r}*{h!r} missing from the table")
                if self.table[(g, h)] not in elems:
                    raise ModelError(f"product {g!r}*{h!r} leaves the element set")
        for g in self.elements:
            if self.table[(self.identity, g)] != g or self.table[(g, self.identity)] != g:
                raise ModelError(f"identity fails on {g!r}")
            if not any(self.table[(g, h)] == self.identity for h in self.elements):
                raise ModelError(f"{g!r} has no inverse")
        for g in self.elements:
            for h in self.elements:
                for k in self.elements:
                    if self.table[(self.table[(g, h)], k)] != self.table[(g, self.table[(h, k)])]:
                        raise ModelError(f"associativity fails at ({g!r}, {h!r}, {k!r})")

    def mul(self, g, h):
        try:
            return self.table[(g, h)]
        except KeyError:
            raise ModelError(f"product {g!r}*{h!r} missing from the table") from None

    def __len__(self) -> int:
        return len(self.elements)

    @classmethod
    def cyclic(cls, n: int) -> "GroupTable":
        if n < 1:
            raise ValueError("order must be positive")
        elems = tuple(range(n))
        return cls(elems, {(g, h): (g + h) % n for g in elems for h in elems}, 0)

    @classmethod
    def symmetric(cls, n: int) -> "GroupTable":
        """Permutations of range(n) as tuples, composed left-to-right outermost."""
        if not 1 <= n <= 4:
            raise ValueError("symmetric groups are built only up to n = 4 here")
        elems = tuple(itertools.permutations(range(n)))
        table = {
            (p, q): tuple(p[q[i]] for i in range(n)) for p in elems for q in elems
        }
        return cls(elems, table, tuple(range(n)))


def uniform_group_measure(G: GroupTable) -> PointMeasure:
    """mu(A) = |A| / |G| on the power set of the group."""
    G.validate()
    return PointMeasure.uniform(G.elements)


def audit_group_invariance(G: GroupTable, m: PointMeasure) -> list[Finding]:
    """Two-sided invariance mu(gA) = mu(Ag) = mu(A), exhaustive over every subset A."""
    if frozenset(G.elements) != m.universe:
        raise ModelError("measure universe is not the group")
    for A in _subsets(G.elements):
        base = m.mu(A)
        for g in G.elements:
            for side, image in (("left", (G.mul(g, a) for a in A)), ("right", (G.mul(a, g) for a in A))):
                if m.mu(frozenset(image)) != base:
                    detail = f"{side} translate by {g!r} moves the measure of a {len(A)}-set"
                    return [Finding("two_sided_invariance", False, detail)]
    return [Finding("two_sided_invariance", True, f"exhaustive over {1 << len(G.elements)} subsets")]


# ---------------------------------------------------------------------------
# the measure induced on a group by a free finite action
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class GroupAction:
    """A left action of a finite group table on a finite point set."""

    group: GroupTable
    points: frozenset
    act: Mapping[tuple, Point]

    def validate(self) -> None:
        self.group.validate()
        for g in self.group.elements:
            for x in self.points:
                if (g, x) not in self.act:
                    raise ModelError(f"action undefined at ({g!r}, {x!s})")
                if self.act[(g, x)] not in self.points:
                    raise ModelError(f"action leaves the point set at ({g!r}, {x!s})")
        for x in self.points:
            if self.act[(self.group.identity, x)] != x:
                raise ModelError(f"identity moves {x!s}")
        for g in self.group.elements:
            for h in self.group.elements:
                gh = self.group.mul(g, h)
                for x in self.points:
                    if self.act[(g, self.act[(h, x)])] != self.act[(gh, x)]:
                        raise ModelError(f"action is not compatible at ({g!r}, {h!r}, {x!s})")

    def apply(self, g, x):
        try:
            return self.act[(g, x)]
        except KeyError:
            raise ModelError(f"action undefined at ({g!r}, {x!s})") from None

    def free_violations(self) -> list[tuple]:
        e = self.group.identity
        return [
            (g, x)
            for g in self.group.elements
            if g != e
            for x in self.points
            if self.act[(g, x)] == x
        ]

    def orbits(self) -> list[frozenset]:
        seen: set = set()
        out = []
        for x in sorted(self.points, key=str):
            if x in seen:
                continue
            orb = frozenset(self.apply(g, x) for g in self.group.elements)
            seen |= orb
            out.append(orb)
        return out

    @classmethod
    def translation(cls, G: GroupTable, copies: int = 1) -> "GroupAction":
        """`copies` disjoint copies of the group acting on itself by left multiplication."""
        pts = frozenset((c, g) for c in range(copies) for g in G.elements)
        act = {
            (g, (c, h)): (c, G.mul(g, h)) for g in G.elements for c in range(copies) for h in G.elements
        }
        return cls(G, pts, act)


@dataclass(frozen=True)
class InducedMeasureResult:
    sigma: PointMeasure
    findings: tuple[Finding, ...]
    orbit_sizes: tuple[int, ...]
    details: dict

    @property
    def passed(self) -> bool:
        return all(f.ok for f in self.findings)


def induced_group_measure(action: GroupAction, mu: PointMeasure) -> InducedMeasureResult:
    """Push an invariant measure on a free action down to the acting group.

    Each orbit of a free finite action is a copy of the group and carries its
    uniform measure mu_x.  For A inside the group, f_A(x) = mu_x(A.x) and
    sigma(A) integrates f_A against mu.  The returned report verifies, via
    the f_A route and exhaustively over subsets: additivity (f over a
    disjoint union is the pointwise sum), total mass sigma(G) = 1, and right
    invariance (f_{Ag}(x) = f_A(g.x), hence sigma(Ag) = sigma(A) by
    invariance of mu).

    Preconditions are enforced: the action must be free and mu must be an
    invariant probability measure on the points.  An action whose disjoint
    subset pairs times points exceed ``INDUCED_EVALUATION_CAP`` is refused
    before any of them.
    """
    G = action.group
    pairs = 3 ** len(G.elements)
    evaluations = pairs * len(action.points)
    if evaluations > INDUCED_EVALUATION_CAP:
        raise ResourceLimitError(
            f"3^{len(G.elements)} = {pairs} disjoint subset pairs at {len(action.points)} points = {evaluations} "
            f"evaluations exceed the configured cap {INDUCED_EVALUATION_CAP}"
        )
    action.validate()
    if mu.universe != action.points:
        raise ModelError("measure universe differs from the action's point set")
    if not mu.is_probability():
        raise PreconditionError(f"mu has total mass {mu.total()}, not 1")
    violations = action.free_violations()
    if violations:
        g, x = violations[0]
        raise PreconditionError(f"action is not free: {g!r} fixes {x!s}")
    for g in G.elements:
        for x in action.points:
            if mu.mu({action.apply(g, x)}) != mu.mu({x}):
                raise PreconditionError(f"mu is not invariant: weight changes along ({g!r}, {x!s})")

    orbits = action.orbits()
    for orb in orbits:
        if len(orb) != len(G):
            raise InvariantViolationError("free finite action produced an orbit smaller than the group")

    points = sorted(action.points, key=str)
    point_mass = {x: mu.mu({x}) for x in points}

    def f(A: frozenset, x) -> Fraction:
        # mu_x is uniform on the orbit of x; freeness makes |A.x| = |A|.
        translate = {action.apply(a, x) for a in A}
        return Fraction(len(translate), len(G))

    def sigma_of(A: frozenset) -> Fraction:
        return sum((f(A, x) * point_mass[x] for x in points), start=Fraction(0))

    elems = list(G.elements)
    n = len(elems)
    subsets = list(_subsets(elems))

    findings: list[Finding] = []

    detail = ""
    for A in subsets:
        for B in _subsets([g for g in elems if g not in A]):
            if any(f(A | B, x) != f(A, x) + f(B, x) for x in points):
                detail = f"f_(A u B) != f_A + f_B for |A|={len(A)}, |B|={len(B)}"
                break
        if detail:
            break
    findings.append(Finding("sigma_additive", not detail, detail or "pointwise over all disjoint subset pairs"))

    full = frozenset(elems)
    total = sigma_of(full)
    constant_one = all(f(full, x) == 1 for x in points)
    findings.append(
        Finding(
            "sigma_total_mass",
            total == 1 and constant_one,
            f"sigma(G) = {total}; f_G is {'constantly 1' if constant_one else 'not constant 1'}",
        )
    )

    detail = ""
    for A in subsets:
        sA = sigma_of(A)
        for g in elems:
            Ag = frozenset(G.mul(a, g) for a in A)
            if any(f(Ag, x) != f(A, action.apply(g, x)) for x in points):
                detail = f"f_(Ag) != f_A o g for |A|={len(A)}, g={g!r}"
                break
            if sigma_of(Ag) != sA:
                detail = f"sigma moves under right translation by {g!r}"
                break
        if detail:
            break
    findings.append(Finding("sigma_right_invariant", not detail, detail or f"all {len(subsets)} subsets, all {n} translators"))

    sigma = PointMeasure(frozenset(elems), {g: sigma_of(frozenset({g})) for g in elems})
    details = {
        "sigma_singletons": {str(g): str(sigma.weights[g]) for g in elems},
        "orbit_count": len(orbits),
    }
    return InducedMeasureResult(sigma, tuple(findings), tuple(len(o) for o in orbits), details)


# ---------------------------------------------------------------------------
# density windows and ergodic averages
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DensityWindow:
    """A finite set of integers viewed through the window {0, ..., n-1}."""

    n: int
    points: frozenset

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("window length must be positive")
        if not all(isinstance(a, int) for a in self.points):
            raise DomainError("window sets are sets of integers")


def density_measure(w: DensityWindow) -> Fraction:
    return Fraction(sum(1 for a in w.points if 0 <= a < w.n), w.n)


def shift_defect(w: DensityWindow) -> Fraction:
    """|mu_n(A + 1) - mu_n(A)|, exactly; always within the stated 2/n bound.

    Shifting changes the count through the two window edges only, so the
    bound cannot actually be attained above 1/n; it is still asserted, as the
    contract is the bound, not the sharper truth.
    """
    shifted = DensityWindow(w.n, frozenset(a + 1 for a in w.points))
    defect = abs(density_measure(shifted) - density_measure(w))
    if defect > Fraction(2, w.n):
        raise InvariantViolationError(f"shift defect {defect} exceeds 2/{w.n}")
    return defect


@dataclass(frozen=True)
class PiecewiseConstant:
    """A piecewise constant function on [0, 1) with rational breakpoints.

    ``values[i]`` holds on [breaks[i], breaks[i+1]), the last piece running
    to 1.  Construct through :meth:`of`, :meth:`constant`, or
    :meth:`indicator`, which coerce and validate.
    """

    breaks: tuple
    values: tuple

    def __post_init__(self) -> None:
        if len(self.breaks) != len(self.values) or not self.breaks:
            raise ValueError("need one value per piece")
        if self.breaks[0] != 0:
            raise ValueError("first breakpoint must be 0")
        for lo, hi in zip(self.breaks, self.breaks[1:]):
            if not lo < hi:
                raise ValueError("breakpoints must increase strictly")
        if self.breaks[-1] >= 1:
            raise ValueError("breakpoints live in [0, 1)")

    @classmethod
    def of(cls, breaks: Sequence, values: Sequence) -> "PiecewiseConstant":
        return cls(tuple(_frac(b) for b in breaks), tuple(_frac(v) for v in values))

    @classmethod
    def constant(cls, v) -> "PiecewiseConstant":
        return cls.of([0], [v])

    @classmethod
    def indicator(cls, lo, hi) -> "PiecewiseConstant":
        lo, hi = _frac(lo), _frac(hi)
        if not 0 <= lo < hi <= 1:
            raise ValueError("indicator needs 0 <= lo < hi <= 1")
        breaks, values = [Fraction(0)], []
        if lo > 0:
            values.append(Fraction(0))
            breaks.append(lo)
        values.append(Fraction(1))
        if hi < 1:
            breaks.append(hi)
            values.append(Fraction(0))
        return cls(tuple(breaks), tuple(values))


def ergodic_average(alpha, x0, f: PiecewiseConstant, n: int) -> tuple[Fraction, Fraction]:
    """Birkhoff average of f along n steps of the rotation x -> x + alpha mod 1.

    Returns (average, invariance defect), both exact.  The defect
    |F_n(f o T) - F_n(f)| telescopes to |f(T^n x0) - f(x0)| / n, so it obeys
    2 sup|f| / n; the bound is asserted, and the pair is the finite
    approximant whose limit points would be T-invariant means.

    The kernel runs on integers: with D the lcm of the denominators of alpha,
    x0 and the breakpoints, orbit point k is (x + k a) mod D, and its sample
    is looked up among the breakpoints scaled by D.  The values are scaled to
    their own lcm V, so both averages are integer sums over V n.  The shifted
    average is summed on its own rather than telescoped, so the bound checks
    the two sums against each other instead of holding by construction.
    """
    if n < 1:
        raise ValueError("need at least one orbit point")
    alpha, x0 = _frac(alpha), _frac(x0)
    D = lcm(alpha.denominator, x0.denominator, *(b.denominator for b in f.breaks))
    V = lcm(*(v.denominator for v in f.values))
    cuts = [b.numerator * (D // b.denominator) for b in f.breaks]
    values = [v.numerator * (V // v.denominator) for v in f.values]
    a = alpha.numerator * (D // alpha.denominator)
    x = x0.numerator * (D // x0.denominator)
    samples = [values[bisect_right(cuts, (x + k * a) % D) - 1] for k in range(n + 1)]
    total, shifted = sum(samples[:n]), sum(samples[1:])
    defect = Fraction(abs(shifted - total), V * n)
    # defect > 2 sup|f| / n, multiplied through by V n.
    if abs(shifted - total) > 2 * max(map(abs, values)):
        raise InvariantViolationError(f"invariance defect {defect} exceeds 2 sup|f| / {n}")
    return Fraction(total, V * n), defect


# ---------------------------------------------------------------------------
# the contradiction chain
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChainLink:
    """One (in)equality of the contradiction chain, with how it was justified.

    mode "numeric" means the link was evaluated exactly against nu;
    "assumed" means it is taken from the invariance hypothesis on nu (the
    computed values are still shown); "truncation" means the underlying
    covering identity was certified set-theoretically on the interior, where
    the truncated model is faithful to the infinite one.
    """

    name: str
    mode: str
    ok: bool
    lhs: Fraction | None
    rhs: Fraction | None
    detail: str = ""


@dataclass(frozen=True)
class ContradictionReport:
    links: tuple[ChainLink, ...]
    outcome: str
    first_failure: str | None
    conclusion: str

    @property
    def passed(self) -> bool:
        return self.outcome == "contradiction"

    def summary(self) -> str:
        lines = []
        for link in self.links:
            state = "ok" if link.ok else "FAILS"
            vals = "" if link.lhs is None else f" [{link.lhs} vs {link.rhs}]"
            lines.append(f"  {link.name} ({link.mode}): {state}{vals}")
        return "\n".join([f"contradiction chain -> {self.outcome}"] + lines + [f"  {self.conclusion}"])


def paradox_contradiction(
    model: FiniteActionModel,
    space: frozenset,
    witness: ParadoxWitness,
    nu: PointMeasure,
    invariant: bool,
    *,
    interior: frozenset | None = None,
) -> ContradictionReport:
    """Evaluate the chain nu(X) >= S_pieces = S_moved >= nu(unions) = 2 nu(X).

    A finitely additive probability measure nu and a paradoxical witness
    cannot both hold; this walks the chain and reports either the forced
    contradiction nu(X) <= 0 or the first link that fails for this nu.

    ``invariant`` states the hypothesis that nu gives each piece the same
    mass as its moved image; when True the middle equality is justified as
    assumed (values still computed and shown), when False it is checked
    numerically and typically breaks, which is the point of the Dirac
    counterexamples.  On truncated models pass ``interior``: the final
    covering link then certifies that each side's moved union covers the
    interior exactly, instead of demanding nu(union) = nu(X), which no
    honest truncation satisfies.  The interior checked is the one derived
    from the model, the points every mover reaches; the passed value is
    only compared with it, and any difference fails the link.  Without the
    invariance hypothesis the link also fails when nu puts mass on moved
    points outside the interior: the truncation is faithful only inside it,
    so mass that leaks past the interior is reported rather than counted as
    covered.
    """
    model.validate()
    pieces = witness.pieces_a + witness.pieces_b
    if not all(p <= space for p in pieces):
        raise ModelError("witness pieces must sit inside the space")
    if not space <= nu.universe:
        raise DomainError("nu is not defined on the whole space")
    if interior is not None and not interior <= space:
        raise ModelError("interior must sit inside the space")

    run = _witness_pass(model, space, witness, interior)
    space_bits = run.space
    mass = _indexed_mass(nu, model)

    links: list[ChainLink] = []
    total = mass(space_bits)
    links.append(
        ChainLink(
            "total_mass",
            "numeric",
            total == 1,
            total,
            Fraction(1),
            "" if total == 1 else "nu is not a probability measure on the space",
        )
    )

    disjoint = reduce(or_, run.pieces).bit_count() == sum(len(p) for p in pieces)
    sum_pieces = sum(map(mass, run.pieces), start=Fraction(0))
    links.append(
        ChainLink(
            "superadditivity",
            "numeric",
            disjoint and total >= sum_pieces,
            total,
            sum_pieces,
            "" if disjoint else "pieces overlap, so additivity gives no bound",
        )
    )

    moved = run.moved[0] + run.moved[1]
    unmeasured = model._index.bits(model.points - nu.universe, "model")
    if any(m & unmeasured for m in moved):
        raise DomainError("measure evaluated outside its universe")
    sum_moved = sum(map(mass, moved), start=Fraction(0))

    if invariant:
        links.append(
            ChainLink(
                "invariance",
                "assumed",
                True,
                sum_pieces,
                sum_moved,
                "equality of piece and image masses taken from the invariance hypothesis",
            )
        )
    else:
        links.append(
            ChainLink(
                "invariance",
                "numeric",
                sum_pieces == sum_moved,
                sum_pieces,
                sum_moved,
                "" if sum_pieces == sum_moved else "nu moves mass under the witness maps",
            )
        )

    union_a, union_b = run.unions
    nu_a, nu_b = mass(union_a & space_bits), mass(union_b & space_bits)
    nu_unions = nu_a + nu_b
    links.append(
        ChainLink(
            "subadditivity",
            "numeric",
            nu_unions <= sum_moved,
            nu_unions,
            sum_moved,
        )
    )

    if interior is None:
        covers = nu_a == total and nu_b == total
        links.append(
            ChainLink(
                "covering",
                "numeric",
                covers,
                nu_unions,
                2 * total,
                "" if covers else "a moved union misses mass, so the chain never reaches 2 nu(X)",
            )
        )
    else:
        derived = run.target
        covers = not derived & ~union_a and not derived & ~union_b
        leaked = 0 if invariant else mass((union_a | union_b) & space_bits & ~derived)
        undefined_a, undefined_b = run.undefined
        if run.mismatch:
            detail = run.mismatch
        elif not covers:
            detail = "a moved union misses interior points"
        elif leaked:
            detail = f"moved mass leaks past the interior: nu gives {leaked} to moved points outside it"
        else:
            detail = (
                f"each side covers the {derived.bit_count()}-point interior exactly; "
                f"boundary excess a: {(union_a & ~derived).bit_count()}, b: {(union_b & ~derived).bit_count()} point(s), "
                f"undefined a: {undefined_a}, b: {undefined_b}; "
                "in the untruncated model the unions cover all of X"
            )
        ok = not run.mismatch and covers and not leaked
        links.append(ChainLink("covering", "truncation", ok, nu_unions, 2 * total, detail))

    bad = [link.name for link in links if not link.ok]
    if bad:
        outcome = "chain-broken"
        first = bad[0]
        conclusion = f"no contradiction for this nu: the {first} link fails"
    else:
        outcome = "contradiction"
        first = None
        conclusion = (
            "all links hold, so nu(X) >= 2 nu(X); hence nu(X) <= 0, "
            "contradicting nu(X) = 1: no such invariant measure exists"
        )
    return ContradictionReport(tuple(links), outcome, first, conclusion)


# ---------------------------------------------------------------------------
# file interface for contradiction runs
# ---------------------------------------------------------------------------


def contradiction_input_to_json(
    model: FiniteActionModel,
    space: frozenset,
    witness: ParadoxWitness,
    nu: PointMeasure,
    invariant: bool,
    interior: frozenset | None = None,
) -> dict:
    """Serialize a contradiction run; points become strings, which must stay distinct."""
    names = {p: str(p) for p in model.points}
    if len(set(names.values())) != len(names):
        raise ModelError("point names collide under str(); rename the points")

    def pts(subset) -> list[str]:
        return sorted(names[p] for p in subset)

    return {
        "schema": "contradiction-input-v1",
        "space": pts(space),
        "identity": model.identity,
        "partial": model.partial,
        "maps": {
            label: {names[p]: names[q] for p, q in sorted(m.items(), key=lambda kv: names[kv[0]])}
            for label, m in sorted(model.maps.items())
        },
        "witness": {
            "pieces_a": [pts(p) for p in witness.pieces_a],
            "movers_a": list(witness.movers_a),
            "pieces_b": [pts(p) for p in witness.pieces_b],
            "movers_b": list(witness.movers_b),
        },
        "nu": {"weights": {names[p]: str(w) for p, w in sorted(nu.weights.items(), key=lambda kv: names[kv[0]]) if w}},
        "invariant": invariant,
        "interior": None if interior is None else pts(interior),
    }


def contradiction_input_from_json(data: Mapping):
    """Inverse of :func:`contradiction_input_to_json`, with located complaints.

    The input and ``witness`` must be objects, point names, map labels and the
    identity strings, ``maps`` an object of objects, ``partial`` and
    ``invariant`` JSON booleans, and ``nu`` an object whose ``weights`` map
    point names to fractions written as strings; any other JSON shape raises
    ModelError naming the field, before a model is built from it.
    """
    if not isinstance(data, dict):
        raise ModelError("contradiction input must be an object")

    def need(key):
        if key not in data:
            raise ModelError(f"contradiction input is missing {key!r}")
        return data[key]

    def flag(key):
        value = need(key)
        if not isinstance(value, bool):
            raise ModelError(f"{key} must be true or false")
        return value

    def names(value, field):
        if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
            raise ModelError(f"{field} must be a list of strings")
        return value

    schema = need("schema")
    if schema != "contradiction-input-v1":
        raise ModelError(f"unsupported input schema {schema!r}")
    space = frozenset(names(need("space"), "space"))
    identity = need("identity")
    if not isinstance(identity, str):
        raise ModelError("identity must be a string")
    maps = need("maps")
    if not isinstance(maps, dict):
        raise ModelError("maps must be an object of objects")
    for label, mapping in maps.items():
        if not isinstance(mapping, dict):
            raise ModelError(f"maps[{label!r}] must be an object")
        if not all(isinstance(q, str) for q in mapping.values()):
            raise ModelError(f"maps[{label!r}] must map point names to point names (strings)")
    model = FiniteActionModel(
        points=space,
        maps={label: dict(mapping) for label, mapping in maps.items()},
        identity=identity,
        partial=flag("partial"),
    )
    w = need("witness")
    if not isinstance(w, dict):
        raise ModelError("witness must be an object")
    for key in ("pieces_a", "movers_a", "pieces_b", "movers_b"):
        if key not in w:
            raise ModelError(f"witness is missing {key!r}")

    def pieces(key):
        if not isinstance(w[key], list):
            raise ModelError(f"witness {key} must be a list of lists of strings")
        return tuple(frozenset(names(p, f"witness {key}[{i}]")) for i, p in enumerate(w[key]))

    witness = ParadoxWitness(
        pieces_a=pieces("pieces_a"),
        movers_a=tuple(names(w["movers_a"], "witness movers_a")),
        pieces_b=pieces("pieces_b"),
        movers_b=tuple(names(w["movers_b"], "witness movers_b")),
    )
    nu_data = need("nu")
    if not isinstance(nu_data, dict):
        raise ModelError("nu must be an object")
    if "weights" not in nu_data:
        raise ModelError("nu is missing 'weights'")
    weights = nu_data["weights"]
    if not isinstance(weights, dict) or not all(isinstance(v, str) for v in weights.values()):
        raise ModelError("nu weights must map point names to strings such as '1/3'")

    def weight(v):
        try:
            return Fraction(v)
        except (ValueError, ZeroDivisionError):
            raise ModelError(f"nu weights must be fractions such as '1/3', not {v!r}") from None

    nu = PointMeasure(space, {p: weight(v) for p, v in weights.items()})
    interior = data.get("interior")
    if interior is not None:
        names(interior, "interior")
    return (
        model,
        space,
        witness,
        nu,
        flag("invariant"),
        None if interior is None else frozenset(interior),
    )
