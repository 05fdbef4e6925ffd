"""Fixed directions of the rotation action, and absorbing-rotation certificates.

Every non-identity word in the rotation group fixes exactly one projective
direction (its axis).  Collecting the axes over a word ball gives a finite
stand-in for the countable fixed-point set that obstructs freeness on the
full sphere.  The second half of the module certifies, with interval
arithmetic, that an auxiliary rotation g pushes that finite set C completely
off itself: the iterates g(C), g^2(C), ... stay disjoint from C, which is the
finite shadow of the absorption argument that trades the sphere for the
sphere minus C.

Exact data (integer axes, rational or exact-binary angles) stays exact for
as long as possible.  Unit vectors and trigonometry appear only inside
interval computations, so every reported margin is a true lower bound for
the rotation by the exact stored angle.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product as _cartesian
from math import gcd
from typing import Iterator, Mapping

import mpmath
from mpmath import iv

from .errors import (
    DegenerateInputError,
    DomainError,
    InconclusiveError,
    InvariantViolationError,
    ResourceLimitError,
)
from .exactlin import ProjectiveDirection, _scaled_axis, ball_matrices
from .words import ReducedWord, _reduced

# Points closer than this count as coinciding: a collision in absorb_demo, a
# failed separation in paradox.smp_verify.  Honest geometry at this scale
# either coincides or is separated by far more.
SEPARATION_RESOLUTION = 1e-12

DEFAULT_PRECISION_BITS = 128

#: Most --bits the CLI accepts for `sphere absorb` and `smp verify`, the most
#: smp_verify runs at, and the top of the absorbing-rotation precision ladder.
MAX_PRECISION_BITS = 1024

#: Least --bits the CLI accepts for `sphere absorb` and `smp verify`, and the
#: least smp_verify runs at.  Below it the absorb demo can fail to resolve a
#: rotation its search certified (depth 1, M=2 from 2 bits).
MIN_PRECISION_BITS = 64

#: Most points, (iters + 1) * |C|, the CLI's absorb demo may place.  The demo's
#: cost grows with the points that share a latitude band, so at the cap the
#: fewest directions are slowest: depth 1, iters 1499 (2 directions) takes
#: 119 s, and depth 6, iters 3 (2,664 points) 1.9 s, on a 2-vCPU VM, one
#: in-process run each.
ABSORB_POINT_CAP = 3000

#: Most |C| * (iters + 1)**2, about twice the pairs within one direction's
#: layers, that the CLI's absorb demo may take on: the point cap alone lets
#: few directions run for minutes.  The largest runs it allows take 4.6 s at
#: depth 1 (iters 315), 3.8 s at depth 2 (iters 181) and 5.2 s at depth 3
#: (iters 94); from depth 4 the point cap binds first (iters 44, 12 and 3 at
#: depths 4, 5 and 6, in 4.2, 2.4 and 1.8 s).  One in-process CLI run each
#: on a 2-vCPU VM.
ABSORB_PAIR_CAP = 200_000

#: Deepest ball fixed_directions walks.  Each depth triples the time and the
#: memory: through cli.main, depth 12 takes 28 s and 666 MiB peak RSS, depth 13
#: 87 s and 1,841 MiB, one in-process run each on a 2-vCPU, 8 GB VM.
FIXED_DIRECTIONS_DEPTH_CAP = 12

#: Working precision of the bad-angle control (corrupted_rotation).
CONTROL_PRECISION_BITS = 256

#: Largest component of the integer axes tried by axis_candidates.
MAX_AXIS_COMPONENT = 3


# -- fixed directions -------------------------------------------------------


@dataclass(frozen=True)
class FixedDirectionSet:
    """All directions fixed by some non-identity word of length <= depth.

    ``witnesses`` maps each direction to the first (hence shortest) word
    found to fix it; it is informational and does not take part in equality.
    """

    depth: int
    directions: frozenset[ProjectiveDirection]
    witnesses: Mapping[ProjectiveDirection, ReducedWord] = field(
        compare=False, hash=False, repr=False, default_factory=dict
    )

    def __contains__(self, direction: ProjectiveDirection) -> bool:
        return direction in self.directions

    def __len__(self) -> int:
        return len(self.directions)

    def sorted_triples(self) -> list[tuple[int, int, int]]:
        return sorted(d.as_tuple() for d in self.directions)

    def to_json(self) -> dict:
        return {
            "depth": self.depth,
            "directions": [list(t) for t in self.sorted_triples()],
        }


def fixed_directions(depth: int) -> FixedDirectionSet:
    """Axes of every non-identity word in ball(depth), canonical and deduplicated.

    A word and its inverse share an axis, as do conjugates that happen to fall
    in the same ball, so the set grows far more slowly than the ball itself.
    Raises InvariantViolationError if any word's fixed space is not a line,
    which for special orthogonal input would mean corrupted generators.
    """
    if depth > FIXED_DIRECTIONS_DEPTH_CAP:
        raise ResourceLimitError(f"fixed_directions({depth}) exceeds the configured cap {FIXED_DIRECTIONS_DEPTH_CAP}")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    found: dict[ProjectiveDirection, ReducedWord] = {}
    for letters, ints, den in ball_matrices(depth):
        if not letters:
            continue
        try:
            direction = _scaled_axis(ints, den)
        except InvariantViolationError as exc:
            raise InvariantViolationError(f"{ReducedWord(letters)}: {exc}") from None
        if direction not in found:
            found[direction] = _reduced(letters)
    return FixedDirectionSet(depth, frozenset(found), found)


# -- interval geometry ------------------------------------------------------


@contextmanager
def interval_precision(bits: int) -> Iterator[None]:
    saved = iv.prec
    iv.prec = bits
    try:
        yield
    finally:
        iv.prec = saved


def _iv_number(x):
    """Embed an int, exact binary float, or Fraction as a (near-)point interval."""
    if isinstance(x, Fraction):
        return iv.mpf(x.numerator) / iv.mpf(x.denominator)
    return iv.mpf(x)


def _iv_unit(triple: tuple[int, int, int]):
    n2 = sum(c * c for c in triple)
    norm = iv.sqrt(iv.mpf(n2))
    return tuple(iv.mpf(c) / norm for c in triple)


def _iv_rotate(axis_unit, cos_t, sin_t, v):
    """Rodrigues rotation of an interval vector around an interval unit axis."""
    kx, ky, kz = axis_unit
    vx, vy, vz = v
    cx = ky * vz - kz * vy
    cy = kz * vx - kx * vz
    cz = kx * vy - ky * vx
    dot = kx * vx + ky * vy + kz * vz
    w = dot * (iv.mpf(1) - cos_t)
    return (
        vx * cos_t + cx * sin_t + kx * w,
        vy * cos_t + cy * sin_t + ky * w,
        vz * cos_t + cz * sin_t + kz * w,
    )


#: The exponent of every interval square, converted once: ``x ** 2`` would
#: convert the int to an interval on each call before the same squaring.
_TWO = iv.mpf(2)


def _iv_dist2(p, q):
    # ``** _TWO`` keeps each square nonnegative; ``x * x`` would not, because
    # the interval product forgets the two factors are the same number.
    return (p[0] - q[0]) ** _TWO + (p[1] - q[1]) ** _TWO + (p[2] - q[2]) ** _TWO


def _iv_height(axis_unit, v):
    """<v, unit axis>: a rotation about the axis keeps it."""
    return axis_unit[0] * v[0] + axis_unit[1] * v[1] + axis_unit[2] * v[2]


def _latitude_key(triple: tuple[int, int, int], axis: tuple[int, int, int]) -> Fraction:
    """sign(<p,L>) <p,L>^2 / (|p|^2 |L|^2): exact, and increasing in the height of unit(p) along unit(L)."""
    dot = triple[0] * axis[0] + triple[1] * axis[1] + triple[2] * axis[2]
    return Fraction(dot * abs(dot), sum(c * c for c in triple) * sum(c * c for c in axis))


def _distance_slack(points, precision_bits: int):
    """Upper bound on (true squared distance) - _iv_dist2(p, q).a for any two of ``points``.

    The points are interval enclosures of unit vectors, so each true
    coordinate difference x_k has |x_k| <= 2.  With W the widest coordinate
    interval and u = 2^(1 - precision_bits) (one directed rounding moves a
    value by less than u times its magnitude), the interval difference
    D_k has width w <= 2W + 2u(2 + 2W).  Its square's lower end is at least
    (|x_k| - w)^2 (1 - u), so it falls short of x_k^2 by at most
    2|x_k| w + u x_k^2; the two roundings of the sum lose at most u d^2
    each.  Summed, with sum |x_k| <= 2 sqrt(3) < 3.5 and d^2 <= 4, the
    shortfall is at most 7w + 12u.  Evaluated in interval arithmetic and
    returned as the point interval of the upper end.
    """
    width = iv.mpf(max(c.delta.b for p in points for c in p))
    u = iv.mpf(2) ** (1 - precision_bits)
    w = 2 * width + 2 * u * (2 + 2 * width)
    return iv.mpf((7 * w + 12 * u).b)


def _shrink_lower(value: float) -> float:
    # Conservative slack for the mpf->float round trips around the bound.
    for _ in range(3):
        value = math.nextafter(value, -math.inf)
    return max(value, 0.0)


# -- absorbing rotations ----------------------------------------------------


@dataclass(frozen=True)
class AbsorbingRotation:
    """A rotation certified to keep iterates of a finite direction set apart.

    ``angle`` is an exact value in radians: a Fraction from the search, or an
    mpf when constructed deliberately (e.g. a bad angle for the control
    experiment).  The certificate applies to the stored value itself, not to
    a nearby ideal angle.  ``margin`` is a certified lower bound on every
    distance inspected up to ``depth_checked`` powers, rounded down.
    find_absorbing_rotation only returns instances with margin > 0; the
    constructor tolerates margin 0 so corrupted rotations can be fed back
    into absorb_demo.
    """

    axis: ProjectiveDirection
    angle: Fraction | mpmath.mpf
    depth_checked: int
    margin: float
    precision_bits: int

    def __post_init__(self) -> None:
        if self.margin < 0:
            raise ValueError("margin cannot be negative")
        if self.precision_bits < 1:
            raise ValueError("precision_bits must be positive")

    def angle_decimal(self) -> str:
        digits = max(17, int(self.precision_bits * 0.302) + 1)
        with mpmath.workprec(max(self.precision_bits, 53)):
            if isinstance(self.angle, Fraction):
                x = mpmath.mpf(self.angle.numerator) / self.angle.denominator
            else:
                x = mpmath.mpf(self.angle)
            return mpmath.nstr(x, digits)

    def to_json(self) -> dict:
        return {
            "axis": list(self.axis.as_tuple()),
            "angle": self.angle_decimal(),
            "angle_exact": str(self.angle) if isinstance(self.angle, Fraction) else None,
            "depth_checked": self.depth_checked,
            "margin": self.margin,
            "precision_bits": self.precision_bits,
        }


def axis_candidates(excluded: frozenset[ProjectiveDirection] | set[ProjectiveDirection]) -> list[ProjectiveDirection]:
    """Primitive canonical integer directions not in ``excluded``, small first.

    Ordered by largest component, then component-sum, then lexicographically,
    so coordinate axes come before diagonals.
    """
    out: list[ProjectiveDirection] = []
    for bound in range(1, MAX_AXIS_COMPONENT + 1):
        batch = []
        for triple in _cartesian(range(-bound, bound + 1), repeat=3):
            if max(abs(c) for c in triple) != bound:
                continue
            if gcd(*triple) != 1:
                continue
            first = next(c for c in triple if c)
            if first < 0:
                continue
            d = ProjectiveDirection(*triple)
            if d not in excluded:
                batch.append(d)
        batch.sort(key=lambda d: (sum(abs(c) for c in d.as_tuple()), d.as_tuple()))
        out.extend(batch)
    return out


ANGLE_CANDIDATES = tuple(Fraction(1, k) for k in range(1, 9))


def certify_margin(
    axis: ProjectiveDirection,
    angle,
    directions,
    powers: int,
    precision_bits: int,
) -> float | None:
    """Certified lower bound on |g^i(unit(p)) - unit(q)| over all pairs and 1 <= i <= powers.

    Returns None when some distance interval fails to stay above zero,
    which covers both genuinely bad angles and insufficient precision; the
    two are indistinguishable from inside interval arithmetic.

    g keeps every latitude, so g^i(unit(p)) only needs comparing with the
    q of nearby latitude: walking outward from p in latitude order, the
    walk stops at the first q whose certified height gap already keeps it,
    and every q beyond, above the smallest distance found so far.
    """
    if powers < 1:
        raise ValueError("need at least one power to check")
    if not directions:
        raise DegenerateInputError("no directions to separate")
    axis_triple = axis.as_tuple()
    triples = sorted((d.as_tuple() for d in directions), key=lambda t: (_latitude_key(t, axis_triple), t))
    n = len(triples)
    with interval_precision(precision_bits):
        axis_unit = _iv_unit(axis_triple)
        points = [_iv_unit(t) for t in triples]
        heights = [_iv_height(axis_unit, p) for p in points]
        theta = _iv_number(angle)
        min_low = None
        for i in range(1, powers + 1):
            ti = theta * i
            cos_t, sin_t = iv.cos(ti), iv.sin(ti)
            # Each point first meets its own base direction, a pair no gap can
            # rule out; a failure there returns before the rest of the layer.
            layer = []
            for p in points:
                gp = _iv_rotate(axis_unit, cos_t, sin_t, p)
                low = _iv_dist2(gp, p).a
                if not low > 0:
                    return None
                if min_low is None or low < min_low:
                    min_low = low
                layer.append(gp)
            slack = _distance_slack(points + layer, precision_bits)
            for a, gp in enumerate(layer):
                for b, step in ((a + 1, 1), (a - 1, -1)):
                    while 0 <= b < n:
                        if ((heights[b] - heights[a]) ** _TWO - slack).a >= min_low:
                            break
                        low = _iv_dist2(gp, points[b]).a
                        if not low > 0:
                            return None
                        if low < min_low:
                            min_low = low
                        b += step
        bound = math.sqrt(float(mpmath.mpf(min_low.a)))
    return _shrink_lower(bound)


def find_absorbing_rotation(
    C: FixedDirectionSet,
    M: int,
    precision_bits: int = DEFAULT_PRECISION_BITS,
    *,
    max_axes: int = 6,
) -> AbsorbingRotation:
    """Search small integer axes and simple rational angles for a certified rotation.

    Axes already fixed by some ball word are skipped during selection.  The
    angle heuristic (1, 1/2, 1/3, ... radians) avoids rational multiples of
    pi, but only the interval certificate carries the truth.  Certification
    happens at the given precision only; if nothing certifies, raises
    InconclusiveError and the caller may retry with more bits.
    """
    if M < 1:
        raise ValueError("need at least one power to check")
    if not C.directions:
        raise DegenerateInputError("empty direction set has nothing to absorb")
    for axis_dir in axis_candidates(C.directions)[:max_axes]:
        for angle in ANGLE_CANDIDATES:
            margin = certify_margin(axis_dir, angle, C.directions, M, precision_bits)
            if margin is not None and margin > 0:
                return AbsorbingRotation(axis_dir, angle, M, margin, precision_bits)
    raise InconclusiveError(
        f"no candidate rotation certified at {precision_bits} bits; raise the precision"
    )


def find_absorbing_rotation_adaptive(
    C: FixedDirectionSet,
    M: int,
    *,
    start_bits: int = DEFAULT_PRECISION_BITS,
) -> AbsorbingRotation:
    """Double the interval precision until certification succeeds or :data:`MAX_PRECISION_BITS` is hit."""
    if start_bits > MAX_PRECISION_BITS:
        raise ValueError(f"start_bits {start_bits} exceeds MAX_PRECISION_BITS {MAX_PRECISION_BITS}")
    bits = start_bits
    while True:
        try:
            return find_absorbing_rotation(C, M, bits)
        except InconclusiveError:
            if bits >= MAX_PRECISION_BITS:
                raise
            bits = min(2 * bits, MAX_PRECISION_BITS)


# -- truncated Hilbert-hotel demo -------------------------------------------


@dataclass(frozen=True)
class AbsorbReport:
    """Outcome of the finite absorption check D_M = C u g(C) u ... u g^M(C).

    ``pairs_checked`` counts the interval distances the latitude sweep
    computed, out of n_points*(n_points-1)/2 pairs.
    """

    depth: int
    powers: int
    precision_bits: int
    n_points: int
    certified_depth_ok: bool
    min_separation: float
    collision: tuple | None
    unresolved: tuple | None
    outcome: str
    pairs_checked: int

    @property
    def passed(self) -> bool:
        return self.outcome == "pass"

    def summary(self) -> str:
        head = (
            f"absorption demo: {self.n_points} points "
            f"({self.powers + 1} layers over {self.n_points // (self.powers + 1)} directions), "
            f"{self.precision_bits} bits"
        )
        if self.outcome == "pass":
            return f"{head}: all pairwise distances >= {self.min_separation:.6g} -> pass"
        if self.outcome == "fail":
            return f"{head}: collision {self.collision} -> fail"
        return f"{head}: unresolved pair {self.unresolved} -> inconclusive"


def absorb_demo(C: FixedDirectionSet, g: AbsorbingRotation, M: int) -> AbsorbReport:
    """Check the truncated absorption picture with fresh interval arithmetic.

    Builds the layers g^i(unit(P)) for 0 <= i <= M and every P in C, and
    certifies that all (M+1)*|C| points are pairwise distinct.  That both
    makes the layers honest copies of C and puts g(D_{M-1}) inside D_M minus
    the base layer; the identity g(g^i P) = g^{i+1} P needs no numerics.

    The rotation's own certificate is not trusted here: everything is
    recomputed, so a deliberately corrupted angle is diagnosed rather than
    rejected up front.  Outcome is "fail" only when two points are certified
    closer than SEPARATION_RESOLUTION, "inconclusive" when an interval
    straddles zero without resolving.

    g keeps every latitude, so each point is compared only with the points
    of nearby latitude.  Pairs are taken in (ia, ib) order, points indexed
    layer by layer: the collision reported is the first, the unresolved
    pair the last before it, and on a fail min_separation covers only the
    pairs before the collision.
    """
    if M < 1:
        raise ValueError("need at least one rotated layer")
    if not C.directions:
        raise DegenerateInputError("empty direction set has nothing to absorb")
    triples = sorted(d.as_tuple() for d in C.directions)
    labels = [(i, t) for i in range(M + 1) for t in triples]
    axis_triple = g.axis.as_tuple()
    by_latitude = sorted(range(len(triples)), key=lambda k: _latitude_key(triples[k], axis_triple))
    rank = {k: r for r, k in enumerate(by_latitude)}
    resolution_sq = SEPARATION_RESOLUTION**2

    collision = None
    unresolved = None
    min_low = None
    pairs_checked = 0
    with interval_precision(g.precision_bits):
        axis_unit = _iv_unit(axis_triple)
        theta = _iv_number(g.angle)
        base = [_iv_unit(t) for t in triples]
        layers = [base]
        for i in range(1, M + 1):
            ti = theta * i
            cos_t, sin_t = iv.cos(ti), iv.sin(ti)
            layers.append([_iv_rotate(axis_unit, cos_t, sin_t, p) for p in base])
        points = [p for layer in layers for p in layer]
        heights = [_iv_height(axis_unit, p) for p in base]
        slack = _distance_slack(points, g.precision_bits)
        n = len(triples)

        def row(ia, min_low, end):
            """The pairs (ia, ib), ia < ib < end, that a latitude walk from point ia cannot rule out.

            Point ia lies on direction ia % n.  The walk goes outward from
            it in latitude order, each way up to the first direction whose
            certified height gap keeps its points, and every point beyond,
            above ``min_low`` (the smallest positive lower bound so far).
            Returns the new smallest lower bound, the number of interval
            distances computed, and the ib whose interval reaches zero, each
            with its squared-distance interval.
            """
            k = ia % n
            checked = 0
            touching = {}
            for r, step in ((rank[k], 1), (rank[k] - 1, -1)):
                while 0 <= r < n:
                    kb = by_latitude[r]
                    if min_low is not None and ((heights[kb] - heights[k]) ** _TWO - slack).a >= min_low:
                        break
                    # the points of direction kb past ia: layers j with j*n + kb > ia
                    for ib in range(kb + n * ((ia - kb) // n + 1), end, n):
                        d2 = _iv_dist2(points[ia], points[ib])
                        checked += 1
                        low = d2.a
                        if not low > 0:
                            touching[ib] = d2
                        elif min_low is None or low < min_low:
                            min_low = low
                    r += step
            return min_low, checked, touching

        for ia in range(len(points)):
            row_low, checked, touching = row(ia, min_low, len(points))
            pairs_checked += checked
            hits = [ib for ib, d2 in touching.items() if d2.b < resolution_sq]
            if hits:
                collision = (labels[ia], labels[min(hits)])
                # Walk the row again, counting only the pairs before the collision.
                row_low, checked, touching = row(ia, min_low, min(hits))
                pairs_checked += checked
            min_low = row_low
            if touching:
                unresolved = (labels[ia], labels[max(touching)])
            if collision is not None:
                break
        if min_low is not None:
            separation = _shrink_lower(math.sqrt(float(mpmath.mpf(min_low.a))))
        else:
            separation = 0.0

    if collision is not None:
        outcome = "fail"
    elif unresolved is not None:
        outcome = "inconclusive"
    else:
        outcome = "pass"
    return AbsorbReport(
        depth=C.depth,
        powers=M,
        precision_bits=g.precision_bits,
        n_points=len(labels),
        certified_depth_ok=g.depth_checked >= M,
        min_separation=separation,
        collision=collision,
        unresolved=unresolved,
        outcome=outcome,
        pairs_checked=pairs_checked,
    )


# -- bad-angle control ------------------------------------------------------


def corrupted_rotation(p, q) -> AbsorbingRotation:
    """A rotation built to collide: the half turn about p + q, which carries unit(p) onto unit(q).

    The half turn about the bisector swaps the two unit vectors whenever the
    integer representatives have equal length and are not parallel.  Feed the
    result to absorb_demo and the first two layers must collide; the demo
    catching it is the control.  The angle is pi at CONTROL_PRECISION_BITS.
    """
    tp, tq = tuple(int(c) for c in p), tuple(int(c) for c in q)
    bisector = tuple(a + b for a, b in zip(tp, tq))
    if not any(bisector):
        raise DegenerateInputError("antipodal pair: every axis in their normal plane works, pick one explicitly")
    cross = (
        tp[1] * tq[2] - tp[2] * tq[1],
        tp[2] * tq[0] - tp[0] * tq[2],
        tp[0] * tq[1] - tp[1] * tq[0],
    )
    if not any(cross):
        raise DegenerateInputError("parallel pair: both points lie on the bisector axis")
    if sum(a * a for a in tp) != sum(a * a for a in tq):
        raise DomainError("integer representatives must have equal length")
    with mpmath.workprec(CONTROL_PRECISION_BITS):
        theta = +mpmath.pi
    return AbsorbingRotation(
        axis=ProjectiveDirection.canonical(*bisector),
        angle=theta,
        depth_checked=0,
        margin=0.0,
        precision_bits=CONTROL_PRECISION_BITS,
    )
