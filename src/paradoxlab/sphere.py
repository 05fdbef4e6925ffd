"""Fixed directions of the rotation action, and absorbing-rotation certificates.

Every non-identity word in the rotation group fixes exactly one projective
direction (its axis).  Collecting the axes over a word ball gives a finite
stand-in for the countable fixed-point set that obstructs freeness on the
full sphere.  The second half of the module certifies, with interval
arithmetic, that an auxiliary rotation g pushes that finite set C completely
off itself: the iterates g(C), g^2(C), ... stay disjoint from C, which is the
finite shadow of the absorption argument that trades the sphere for the
sphere minus C.

Exact data (integer axes, rational angles) stays exact for as long as
possible.  Unit vectors and trigonometry appear only inside interval
computations, so every reported margin is a true lower bound for the
rotation by the exact stored angle.  An interval is a raw libmpi
endpoint pair (lo, hi) at a precision passed explicitly; the kernel makes
the libmpi calls mpmath's ``iv`` context would make, so its endpoints are
the ones ``iv`` gives, and the ``iv`` forms are now the tests' reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from itertools import product as _cartesian
from math import gcd
from typing import Mapping

from mpmath.libmp import (
    from_float,
    from_int,
    fzero,
    mpf_div,
    mpf_gt,
    mpf_le,
    mpf_lt,
    mpf_pi,
    mpf_sub,
    mpi_add,
    mpi_cos_sin,
    mpi_div,
    mpi_mul,
    mpi_pow_int,
    mpi_sqrt,
    mpi_sub,
    round_ceiling,
    round_floor,
    round_nearest,
    round_up,
    to_float,
    to_str,
)
from mpmath.libmp.libmpi import mpi_square

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
    Axes are deduplicated on their integer triple, and each distinct one is
    made a validated :class:`ProjectiveDirection` once, with the first word
    that fixes it as its witness.  Raises InvariantViolationError if any
    word's fixed space is not a line, which for special orthogonal input
    would mean corrupted generators.
    """
    if depth > FIXED_DIRECTIONS_DEPTH_CAP:
        raise ResourceLimitError(f"fixed_directions({depth}) exceeds the configured cap {FIXED_DIRECTIONS_DEPTH_CAP}")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    found: dict[tuple[int, int, int], ReducedWord] = {}
    for letters, ints, den in ball_matrices(depth):
        if not letters:
            continue
        try:
            triple = _scaled_axis(ints, den)
        except InvariantViolationError as exc:
            raise InvariantViolationError(f"{ReducedWord(letters)}: {exc}") from None
        if triple not in found:
            found[triple] = _reduced(letters)
    witnesses = {ProjectiveDirection(*triple): word for triple, word in found.items()}
    return FixedDirectionSet(depth, frozenset(witnesses), witnesses)


# -- interval geometry ------------------------------------------------------
#
# An interval is a raw libmpi endpoint pair (lo, hi) of libmp mpf tuples, and
# every function takes its precision explicitly.  Each makes the libmpi calls,
# in the operand order, that mpmath's ``iv`` context makes for the same
# expression at that precision, so every endpoint is the one ``iv`` gives;
# tests/oracles.py keeps the ``iv`` forms as the reference.


def _int(n: int, prec: int):
    """The interval ``iv`` converts an int to: n rounded down and up to ``prec`` bits."""
    return from_int(n, prec, round_floor), from_int(n, prec, round_ceiling)


def _number(x, prec: int):
    """Embed an exact angle as a (near-)point interval: numerator over denominator, each rounded outward."""
    x = Fraction(x)
    return mpi_div(_int(x.numerator, prec), _int(x.denominator, prec), prec)


def _unit(triple: tuple[int, int, int], prec: int):
    norm = mpi_sqrt(_int(sum(c * c for c in triple), prec), prec)
    return tuple(mpi_div(_int(c, prec), norm, prec) for c in triple)


def _axial(axis_unit, v, prec: int):
    """k x v and <k, v> for an interval unit axis k: the terms of a rotation of v about k that no angle changes.

    <k, v> is v's height, which a rotation about the axis keeps.
    """
    kx, ky, kz = axis_unit
    vx, vy, vz = v
    cross = (
        mpi_sub(mpi_mul(ky, vz, prec), mpi_mul(kz, vy, prec), prec),
        mpi_sub(mpi_mul(kz, vx, prec), mpi_mul(kx, vz, prec), prec),
        mpi_sub(mpi_mul(kx, vy, prec), mpi_mul(ky, vx, prec), prec),
    )
    dot = mpi_add(mpi_add(mpi_mul(kx, vx, prec), mpi_mul(ky, vy, prec), prec), mpi_mul(kz, vz, prec), prec)
    return cross, dot


def _rotate(axis_unit, cos_t, sin_t, one_minus_cos, v, axial, prec: int):
    """Rodrigues rotation of an interval vector around an interval unit axis.

    ``axial`` is :func:`_axial` of v, so each layer reuses it; ``one_minus_cos`` is 1 - cos_t.
    """
    kx, ky, kz = axis_unit
    vx, vy, vz = v
    (cx, cy, cz), dot = axial
    w = mpi_mul(dot, one_minus_cos, prec)
    return (
        mpi_add(mpi_add(mpi_mul(vx, cos_t, prec), mpi_mul(cx, sin_t, prec), prec), mpi_mul(kx, w, prec), prec),
        mpi_add(mpi_add(mpi_mul(vy, cos_t, prec), mpi_mul(cy, sin_t, prec), prec), mpi_mul(ky, w, prec), prec),
        mpi_add(mpi_add(mpi_mul(vz, cos_t, prec), mpi_mul(cz, sin_t, prec), prec), mpi_mul(kz, w, prec), prec),
    )


def _dist2(p, q, prec: int):
    # mpi_square keeps each square nonnegative; mpi_mul(x, x) would not,
    # because the interval product forgets the two factors are the same number.
    return mpi_add(
        mpi_add(mpi_square(mpi_sub(p[0], q[0], prec), prec), mpi_square(mpi_sub(p[1], q[1], prec), prec), prec),
        mpi_square(mpi_sub(p[2], q[2], prec), prec),
        prec,
    )


def _gap_low(h1, h2, slack, prec: int):
    """Lower end of (h1 - h2)^2 - slack: no pair at these heights is closer, squared, than this."""
    return mpi_sub(mpi_square(mpi_sub(h1, h2, prec), prec), slack, prec)[0]


def _cos_sin_layer(theta, i: int, prec: int):
    """cos, sin and 1 - cos of the interval i * theta."""
    cos_t, sin_t = mpi_cos_sin(mpi_mul(theta, _int(i, prec), prec), prec)
    return cos_t, sin_t, mpi_sub(_int(1, prec), cos_t, prec)


def _latitude_key(triple: tuple[int, int, int], axis: tuple[int, int, int]) -> Fraction:
    """sign(<p,L>) <p,L>^2 / (|p|^2 |L|^2): exact, and increasing in the height of unit(p) along unit(L)."""
    dot = triple[0] * axis[0] + triple[1] * axis[1] + triple[2] * axis[2]
    return Fraction(dot * abs(dot), sum(c * c for c in triple) * sum(c * c for c in axis))


def _distance_slack(points, prec: int):
    """Upper bound on (true squared distance) - _dist2(p, q, prec)[0] for any two of ``points``.

    The points are interval enclosures of unit vectors, so each true
    coordinate difference x_k has |x_k| <= 2.  With W the widest coordinate
    interval and u = 2^(1 - prec) (one directed rounding moves a value by
    less than u times its magnitude), the interval difference D_k has width
    w <= 2W + 2u(2 + 2W).  Its square's lower end is at least
    (|x_k| - w)^2 (1 - u), so it falls short of x_k^2 by at most
    2|x_k| w + u x_k^2; the two roundings of the sum lose at most u d^2
    each.  Summed, with sum |x_k| <= 2 sqrt(3) < 3.5 and d^2 <= 4, the
    shortfall is at most 7w + 12u.  Evaluated in interval arithmetic and
    returned as the point interval of the upper end.
    """
    widest = fzero
    for p in points:
        for lo, hi in p:
            delta = mpf_sub(hi, lo, prec, round_up)
            if mpf_gt(delta, widest):
                widest = delta
    width = (widest, widest)
    two = _int(2, prec)
    u = mpi_pow_int(two, 1 - prec, prec)
    two_width = mpi_mul(two, width, prec)
    w = mpi_add(two_width, mpi_mul(mpi_mul(two, u, prec), mpi_add(two, two_width, prec), prec), prec)
    bound = mpi_add(mpi_mul(_int(7, prec), w, prec), mpi_mul(_int(12, prec), u, prec), prec)[1]
    return bound, bound


def _shrink_lower(value: float) -> float:
    # Conservative slack for the mpf->float round trips around the bound.
    for _ in range(3):
        value = math.nextafter(value, -math.inf)
    return max(value, 0.0)


# -- absorbing rotations ----------------------------------------------------


@dataclass(frozen=True)
class AbsorbingRotation:
    """A rotation certified to keep iterates of a finite direction set apart.

    ``angle`` is an exact value in radians: a Fraction from the search, or a
    dyadic Fraction when constructed deliberately (the control's pi, see
    corrupted_rotation).  The certificate applies to the stored value
    itself, not to a nearby ideal angle.  ``margin`` is a certified lower
    bound on every distance inspected up to ``depth_checked`` powers,
    rounded down.  find_absorbing_rotation only returns instances with
    margin > 0; the constructor tolerates margin 0 so corrupted rotations
    can be fed back into absorb_demo.
    """

    axis: ProjectiveDirection
    angle: Fraction
    depth_checked: int
    margin: float
    precision_bits: int

    def __post_init__(self) -> None:
        if self.margin < 0:
            raise ValueError("margin cannot be negative")
        if self.precision_bits < 1:
            raise ValueError("precision_bits must be positive")

    def angle_decimal(self) -> str:
        """The angle in decimal, divided out at max(precision_bits, 53) bits, to nearest."""
        digits = max(17, int(self.precision_bits * 0.302) + 1)
        prec = max(self.precision_bits, 53)
        numerator = from_int(self.angle.numerator, prec, round_nearest)
        return to_str(mpf_div(numerator, from_int(self.angle.denominator), prec, round_nearest), digits)

    def to_json(self) -> dict:
        return {
            "axis": list(self.axis.as_tuple()),
            "angle": self.angle_decimal(),
            "angle_exact": str(self.angle),
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
    prec = precision_bits
    axis_unit = _unit(axis_triple, prec)
    points = [_unit(t, prec) for t in triples]
    axials = [_axial(axis_unit, p, prec) for p in points]
    heights = [dot for _, dot in axials]
    theta = _number(angle, prec)
    min_low = None
    for i in range(1, powers + 1):
        cos_t, sin_t, one_minus_cos = _cos_sin_layer(theta, i, prec)
        # Each point first meets its own base direction, a pair no gap can
        # rule out; a failure there returns before the rest of the layer.
        layer = []
        for p, axial in zip(points, axials):
            gp = _rotate(axis_unit, cos_t, sin_t, one_minus_cos, p, axial, prec)
            low = _dist2(gp, p, prec)[0]
            if not mpf_lt(fzero, low):
                return None
            if min_low is None or mpf_lt(low, min_low):
                min_low = low
            layer.append(gp)
        slack = _distance_slack(points + layer, prec)
        for a, gp in enumerate(layer):
            for b, step in ((a + 1, 1), (a - 1, -1)):
                while 0 <= b < n:
                    if mpf_le(min_low, _gap_low(heights[b], heights[a], slack, prec)):
                        break
                    low = _dist2(gp, points[b], prec)[0]
                    if not mpf_lt(fzero, low):
                        return None
                    if mpf_lt(low, min_low):
                        min_low = low
                    b += step
    return _shrink_lower(math.sqrt(to_float(min_low, rnd=round_nearest)))


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

    powers: int
    precision_bits: int
    n_points: int
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

    collision = None
    unresolved = None
    min_low = None
    pairs_checked = 0
    prec = g.precision_bits
    # A collision's upper end lies below the float converted at prec bits,
    # rounded down: the comparison iv makes.
    resolution_sq = from_float(SEPARATION_RESOLUTION**2, prec, round_floor)
    axis_unit = _unit(axis_triple, prec)
    theta = _number(g.angle, prec)
    base = [_unit(t, prec) for t in triples]
    axials = [_axial(axis_unit, p, prec) for p in base]
    layers = [base]
    for i in range(1, M + 1):
        cos_t, sin_t, one_minus_cos = _cos_sin_layer(theta, i, prec)
        layers.append(
            [_rotate(axis_unit, cos_t, sin_t, one_minus_cos, p, axial, prec) for p, axial in zip(base, axials)]
        )
    points = [p for layer in layers for p in layer]
    heights = [dot for _, dot in axials]
    slack = _distance_slack(points, prec)
    n = len(triples)

    @cache
    def gap_low(kb, k):
        # slack is fixed for the call, so each pair of directions needs its gap once
        return _gap_low(heights[kb], heights[k], slack, prec)

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
                if min_low is not None and mpf_le(min_low, gap_low(kb, k)):
                    break
                # the points of direction kb past ia: layers j with j*n + kb > ia
                for ib in range(kb + n * ((ia - kb) // n + 1), end, n):
                    d2 = _dist2(points[ia], points[ib], prec)
                    checked += 1
                    low = d2[0]
                    if not mpf_lt(fzero, low):
                        touching[ib] = d2
                    elif min_low is None or mpf_lt(low, min_low):
                        min_low = low
                r += step
        return min_low, checked, touching

    for ia in range(len(points)):
        row_low, checked, touching = row(ia, min_low, len(points))
        pairs_checked += checked
        hits = [ib for ib, d2 in touching.items() if mpf_lt(d2[1], resolution_sq)]
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
    separation = 0.0 if min_low is None else _shrink_lower(math.sqrt(to_float(min_low, rnd=round_nearest)))

    if collision is not None:
        outcome = "fail"
    elif unresolved is not None:
        outcome = "inconclusive"
    else:
        outcome = "pass"
    return AbsorbReport(
        powers=M,
        precision_bits=g.precision_bits,
        n_points=len(labels),
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
    catching it is the control.  The angle is pi rounded to nearest at
    CONTROL_PRECISION_BITS, held exactly as a dyadic Fraction.
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
    _, man, exp, _ = mpf_pi(CONTROL_PRECISION_BITS, round_nearest)
    return AbsorbingRotation(
        axis=ProjectiveDirection.canonical(*bisector),
        angle=Fraction(man, 1 << -exp),
        depth_checked=0,
        margin=0.0,
        precision_bits=CONTROL_PRECISION_BITS,
    )
