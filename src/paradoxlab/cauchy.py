"""Additive maps on a finite-rank rational coordinate space, and why they fail to be linear.

The classical construction picks a basis of the reals over the rationals and
defines f by choosing its basis values freely; additivity then holds by
construction while proportionality to one slope fails.  The full construction
needs choice, but its checkable content is finite-rank: here an element *is*
its coordinate vector over k named basis reals ("1", "sqrt2", ...), every
computation is exact rational arithmetic, and the Q-linear independence of
the named reals is a modeling assumption stated in every report rather than
a claim any code pretends to verify.

Nothing in this model can exhibit the wild analytic behavior of a genuinely
nonlinear additive function (graphs dense in the plane, nonmeasurable
preimages); measurable additive maps are in fact linear, which is exactly
why the construction has to reach outside anything finitely describable.
What survives at finite rank is the algebra: additivity and rational
homogeneity hold exactly, and :func:`nonproportionality_witness` exhibits
two basis directions whose images no single slope can explain.

Evaluation is an integer kernel: the basis images are scaled once per model
to integers over their lcm, each coordinate's numerator and denominator are
accumulated in ints, and one Fraction is built for the result.  The plain
Fraction sum it replaced is the tests' oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from random import Random
from typing import Sequence

from .errors import DomainError
from .measures import _frac
from .report import Finding

#: Largest rank `cauchy demo` accepts; at the cap it takes 2.2-2.8 s on a 2-vCPU
#: VM (three in-process runs), and the time grows linearly with the rank.
MAX_RANK = 500

INDEPENDENCE_ASSUMPTION = (
    "the named basis reals are Q-linearly independent (modeling assumption, not verified)"
)


@dataclass(frozen=True)
class HamelModel:
    """k named basis reals together with the chosen rational image of each.

    The images are also kept scaled to integers over their lcm:
    ``scaled_images[i] / image_denominator`` is ``basis_images[i]``.
    """

    basis_labels: tuple[str, ...]
    basis_images: tuple[Fraction, ...]

    scaled_images: tuple[int, ...] = field(init=False, repr=False, compare=False)
    image_denominator: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.basis_labels:
            raise ValueError("rank must be at least 1")
        if len(self.basis_labels) != len(self.basis_images):
            raise ValueError("one image per basis label")
        if len(set(self.basis_labels)) != len(self.basis_labels):
            raise ValueError("basis labels must be distinct")
        den = lcm(*(y.denominator for y in self.basis_images))
        object.__setattr__(self, "image_denominator", den)
        scaled = tuple(y.numerator * (den // y.denominator) for y in self.basis_images)
        object.__setattr__(self, "scaled_images", scaled)

    @classmethod
    def of(cls, labels: Sequence[str], images: Sequence) -> "HamelModel":
        return cls(tuple(labels), tuple(_frac(x) for x in images))

    @property
    def rank(self) -> int:
        return len(self.basis_labels)

    def to_json(self) -> dict:
        return {
            "basis": list(self.basis_labels),
            "images": [str(x) for x in self.basis_images],
        }


@dataclass(frozen=True)
class AdditiveMap:
    """f(sum of lambda_i v_i) = sum of lambda_i f(v_i): additive by definition.

    The point of :func:`verify_cauchy` is therefore not to test mathematics
    but to guard the evaluation code; a mutated eval is the intended failure
    mode.
    """

    model: HamelModel

    def eval(self, coords: Sequence) -> Fraction:
        """The sum of lambda_i f(v_i), accumulated over one common denominator in ints.

        ``den`` is a multiple of every coordinate denominator seen so far, grown
        only when the next one does not divide it; the model's integer images
        supply the rest, so one Fraction is built, for the result.
        """
        if len(coords) != self.model.rank:
            raise DomainError(
                f"coordinate vector has length {len(coords)}, the model has rank {self.model.rank}"
            )
        num, den = 0, 1
        for c, y in zip(coords, self.model.scaled_images):
            if not isinstance(c, (int, Fraction)):
                c = _frac(c)
            q = c.denominator
            if den % q:
                num *= q
                den *= q
            num += c.numerator * y * (den // q)
        return Fraction(num, den * self.model.image_denominator)


@dataclass(frozen=True)
class CauchyReport:
    trials: int
    findings: tuple[Finding, ...]
    assumptions: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return all(f.ok for f in self.findings)

    def summary(self) -> str:
        state = "pass" if self.passed else "fail"
        return f"additivity and Q-homogeneity over {self.trials} random rational trials: {state}"


def _random_rational(rng: Random) -> Fraction:
    return Fraction(rng.randrange(-60, 61), rng.randrange(1, 13))


def _random_coords(rng: Random, rank: int) -> tuple[Fraction, ...]:
    return tuple(_random_rational(rng) for _ in range(rank))


def verify_cauchy(f: AdditiveMap, trials: int, *, seed: int = 0) -> CauchyReport:
    """Exact additivity f(x+y) = f(x) + f(y) and homogeneity f(qx) = q f(x) on random rationals."""
    if trials < 1:
        raise ValueError("need at least one trial")
    rng = Random(seed)
    rank = f.model.rank

    zero_ok = f.eval((Fraction(0),) * rank) == 0

    add_detail = ""
    for _ in range(trials):
        x = _random_coords(rng, rank)
        y = _random_coords(rng, rank)
        both = tuple(a + b for a, b in zip(x, y))
        if f.eval(both) != f.eval(x) + f.eval(y):
            add_detail = f"f(x+y) != f(x) + f(y) at x={x}, y={y}"
            break

    hom_detail = ""
    scalars = [Fraction(-3, 7), Fraction(0), Fraction(1)]
    for _ in range(trials):
        x = _random_coords(rng, rank)
        q = scalars.pop() if scalars else _random_rational(rng)
        if f.eval(tuple(q * a for a in x)) != q * f.eval(x):
            hom_detail = f"f(qx) != q f(x) at q={q}, x={x}"
            break

    findings = (
        Finding("zero", zero_ok, "" if zero_ok else "f(0) != 0"),
        Finding("additivity", not add_detail, add_detail),
        Finding("homogeneity", not hom_detail, hom_detail),
    )
    return CauchyReport(trials, findings, (INDEPENDENCE_ASSUMPTION,))


def nonproportionality_witness(
    f: AdditiveMap,
) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]] | None:
    """Two basis directions no single slope c can explain, or None.

    f(x) = c*x for one real c would force c * x_i = y_i for every basis real
    x_i.  Cross-multiplying two of these, y_i * x_j - y_j * x_i = 0, is a
    rational combination of independent reals, so it holds only when both
    images vanish.  The first pair where it fails is returned as coordinate
    vectors.  No pair fails exactly when the map is zero (c = 0 works) or the
    rank is 1 (c = y_1 / x_1 works); then the result is None.
    """
    rank = f.model.rank
    images = f.model.basis_images
    for i in range(rank):
        for j in range(i + 1, rank):
            if images[i] == 0 and images[j] == 0:
                continue
            e_i = tuple(Fraction(1 if k == i else 0) for k in range(rank))
            e_j = tuple(Fraction(1 if k == j else 0) for k in range(rank))
            return e_i, e_j
    return None
