"""Command-line front door: each subcommand runs one verification and emits one JSON report.

The report goes to standard output, a one-line human summary to standard
error, and the exit code encodes the verdict: 0 pass, 1 fail, 2
inconclusive, 64 usage or input error.  Reports are deterministic for a
given invocation and seed; ``--timing`` adds wall-clock milliseconds at the
cost of byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from fractions import Fraction
from random import Random

from . import cauchy, freeness, measures, paradox, sphere, words
from .errors import InconclusiveError, ModelError, ResourceLimitError, VerificationError
from .exactlin import DEFAULT_GENERATORS, scaled_integer_form
from .report import Finding, report

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 64


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 by default, which collides with "inconclusive"
    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _int_in(minimum: int, maximum: int | None = None):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"value must be >= {minimum}")
        if maximum is not None and value > maximum:
            raise argparse.ArgumentTypeError(f"value must be <= {maximum}")
        return value

    return parse


_positive_int = _int_in(1)
_precision_bits = _int_in(sphere.MIN_PRECISION_BITS, sphere.MAX_PRECISION_BITS)


def _int_triple(text: str) -> tuple[int, int, int]:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("expected three comma-separated integers, like 0,1,0")
    try:
        return tuple(int(p) for p in parts)  # type: ignore[return-value]
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer triple") from None


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (outcome, details, summary)
# ---------------------------------------------------------------------------


def _run_words_verify(args):
    report = words.verify_f2_paradox(args.depth)
    findings = [
        Finding("partition", not report.partition_violations, "; ".join(report.partition_violations)),
        Finding("split_a", report.split_a.passed, "; ".join(report.split_a.violations)),
        Finding("split_b", report.split_b.passed, "; ".join(report.split_b.violations)),
    ]
    size = sum(report.class_counts.values())
    details = {
        "findings": findings,
        "class_counts": report.class_counts,
        "ball_size": size,
    }
    outcome = "pass" if report.passed else "fail"
    summary = f"ball({args.depth}): {size} words, partition and both covering splits checked"
    return outcome, details, summary


def _run_freeness_exhaustive(args):
    verdict = freeness.exhaustive_check(args.depth)
    ok = verdict.certified
    details = {
        "findings": [Finding("no_identity_word", ok, "" if ok else f"witness {verdict.witness}")],
        "verdict": verdict.outcome,
        "words_checked": verdict.words_checked,
        "witness": None if verdict.witness is None else str(verdict.witness),
    }
    summary = f"ball({args.depth}): {verdict.words_checked} non-identity words, verdict {verdict.outcome}"
    return ("pass" if ok else "fail"), details, summary


def _run_freeness_certify(args):
    base = freeness.CANDIDATE_BASE_VECTORS[0] if args.base is None else args.base
    result = freeness.build_certificate(base)
    if isinstance(result, freeness.CertificateFailure):
        details = {
            "findings": [Finding("certificate_built", False, result.detail)],
            "failure": {
                "kind": "vector",
                "base_vector": list(result.base_vector),
                "path": str(result.word),
                "detail": result.detail,
            },
        }
        return "fail", details, f"no certificate from base {result.base_vector}: {result.detail}"
    verified = freeness.verify_certificate(result)
    details = {
        "findings": [Finding("certificate_verified", verified)],
        "certificate": freeness.certificate_to_json(result),
        "state_count": len(result.states),
    }
    summary = (
        f"vector certificate with {len(result.states)} states: "
        f"{'verified' if verified else 'REJECTED by the independent checker'}"
    )
    return ("pass" if verified else "fail"), details, summary


def _run_sphere_fixed_points(args):
    found = sphere.fixed_directions(args.depth)
    # The axes come from ball_matrices' products of SCALED_GENERATORS, so the
    # recheck shares none of that code: it scales the rational generators
    # itself and applies them to the direction letter by letter, right to left.
    scaled = [scaled_integer_form(DEFAULT_GENERATORS[letter]) for letter in words.Letter]
    recheck_bad = []
    for direction, witness in found.witnesses.items():
        v = direction.as_tuple()
        image, den = v, 1
        for letter in reversed(witness):
            m, d = scaled[letter]
            x, y, z = image
            image = (m[0] * x + m[1] * y + m[2] * z, m[3] * x + m[4] * y + m[5] * z, m[6] * x + m[7] * y + m[8] * z)
            den *= d
        if image != tuple(den * c for c in v):
            recheck_bad.append(str(direction))
    findings = [
        Finding("witnesses_fix_directions", not recheck_bad, ", ".join(recheck_bad)),
    ]
    details = {
        "findings": findings,
        "fixed_directions": found.to_json(),
        "witnesses": {str(d): str(w) for d, w in found.witnesses.items()},
        "count": len(found),
    }
    summary = f"{len(found)} fixed direction(s) for ball({args.depth})"
    return ("pass" if not recheck_bad else "fail"), details, summary


def _run_sphere_absorb(args):
    layers = args.iters + 1
    # ball(k) lies inside ball(k + 1), so the direction count never shrinks
    # with the depth: walking the depths upward refuses a run at the first
    # depth past a cap, before the deeper (and far larger) balls are walked.
    for k in range(1, args.depth + 1):
        C = sphere.fixed_directions(k)
        points = layers * len(C)
        if points > sphere.ABSORB_POINT_CAP:
            raise ResourceLimitError(
                f"{layers} layers over the {len(C)} directions of ball({k}) make {points} points, "
                f"more than the cap {sphere.ABSORB_POINT_CAP}"
            )
        pairs = len(C) * layers**2
        if pairs > sphere.ABSORB_PAIR_CAP:
            raise ResourceLimitError(
                f"the {len(C)} directions of ball({k}) times {layers} layers squared make {pairs}, "
                f"more than the cap {sphere.ABSORB_PAIR_CAP}"
            )
    g = sphere.find_absorbing_rotation_adaptive(C, args.iters, start_bits=args.bits)
    demo = sphere.absorb_demo(C, g, args.iters)
    findings = [
        Finding("rotation_certified", g.margin > 0, f"margin {g.margin:.6g}"),
        Finding(
            "layers_distinct",
            demo.outcome == "pass",
            demo.summary() if demo.outcome != "pass" else "",
        ),
    ]
    details = {
        "findings": findings,
        "rotation": g.to_json(),
        "demo": {
            "n_points": demo.n_points,
            "min_separation": demo.min_separation,
            "outcome": demo.outcome,
            "collision": demo.collision,
        },
    }
    # an uncertified rotation fails the run whatever the demo found
    if findings[0].ok:
        return demo.outcome, details, demo.summary()
    return "fail", details, f"rotation not certified (margin {g.margin:.6g}); {demo.summary()}"


def _run_smp_verify(args):
    report = paradox.smp_verify(args.deg, args.coef, args.bits)
    details = {
        "findings": list(report.findings),
        "counts": {"total": report.total, "A": report.count_a, "B": report.count_b},
        "min_distance": report.min_distance,
        "min_pair": list(report.min_pair),
        "max_isometry_defect": report.max_isometry_defect,
    }
    summary = (
        f"{report.total} points (A:{report.count_a} B:{report.count_b}), "
        f"min distance {report.min_distance:.3g}: {report.outcome}"
    )
    return report.outcome, details, summary


def _demo_finite_group(seed: int):
    findings = []
    details = {}
    for name, G in (("cyclic6", measures.GroupTable.cyclic(6)), ("symmetric3", measures.GroupTable.symmetric(3))):
        mu = measures.uniform_group_measure(G)
        for f in measures.audit_group_invariance(G, mu):
            findings.append(Finding(f"{name}_{f.name}", f.ok, f.detail))
        audit = measures.audit_point_measure(mu, seed=seed)
        findings.append(Finding(f"{name}_{audit.name}", audit.ok, audit.detail))
        details[name] = {"order": len(G), "uniform_weight": Fraction(1, len(G))}
    return findings, details


def _demo_density(seed: int):
    evens = measures.DensityWindow(10, frozenset(range(0, 10, 2)))
    block = measures.DensityWindow(10, frozenset(range(10)))
    findings = [
        Finding("evens_density", measures.density_measure(evens) == Fraction(1, 2)),
        Finding("block_defect", measures.shift_defect(block) == Fraction(1, 10)),
    ]
    rng = Random(seed)
    worst = Fraction(0)
    for _ in range(200):
        n = rng.randrange(1, 40)
        pts = frozenset(rng.randrange(-5, n + 5) for _ in range(rng.randrange(0, 2 * n + 1)))
        w = measures.DensityWindow(n, pts)
        worst = max(worst, measures.shift_defect(w) * n)
    findings.append(Finding("defect_bound", worst <= 2, f"max n*defect = {worst}"))
    details = {
        "evens": str(measures.density_measure(evens)),
        "block_defect": str(measures.shift_defect(block)),
    }
    return findings, details


def _demo_induced_measure(seed: int):
    G2 = measures.GroupTable.cyclic(2)
    swap = measures.GroupAction.translation(G2)
    res2 = measures.induced_group_measure(swap, measures.PointMeasure.uniform(swap.points))
    findings = [Finding(f"swap_{f.name}", f.ok, f.detail) for f in res2.findings]

    rng = Random(seed)
    G3 = measures.GroupTable.cyclic(3)
    action = measures.GroupAction.translation(G3, copies=3)
    raw = [Fraction(rng.randrange(1, 20)) for _ in range(3)]
    total = sum(raw) * 3
    weights = {(c, g): raw[c] / total for c in range(3) for g in range(3)}
    res3 = measures.induced_group_measure(action, measures.PointMeasure(action.points, weights))
    findings += [Finding(f"three_orbit_{f.name}", f.ok, f.detail) for f in res3.findings]
    details = {
        "swap_sigma": res2.details["sigma_singletons"],
        "three_orbit_sigma": res3.details["sigma_singletons"],
        "orbit_sizes": list(res3.orbit_sizes),
    }
    return findings, details


def _demo_ergodic(seed: int):
    value, defect = measures.ergodic_average(Fraction(1, 3), 0, measures.PiecewiseConstant.indicator(0, Fraction(1, 3)), 3)
    findings = [Finding("third_orbit", (value, defect) == (Fraction(1, 3), Fraction(0)))]
    one = measures.ergodic_average(Fraction(2, 7), Fraction(1, 5), measures.PiecewiseConstant.constant(1), 9)
    findings.append(Finding("constant_function", one == (Fraction(1), Fraction(0))))

    rng = Random(seed)
    bounded = True
    for _ in range(200):
        alpha = Fraction(rng.randrange(-30, 31), rng.randrange(1, 12))
        x0 = Fraction(rng.randrange(0, 12), 12)
        cuts = sorted({Fraction(rng.randrange(0, 24), 24) for _ in range(rng.randrange(1, 4))} | {Fraction(0)})
        f = measures.PiecewiseConstant.of(cuts, [Fraction(rng.randrange(-5, 6)) for _ in cuts])
        n = rng.randrange(1, 50)
        _, run_defect = measures.ergodic_average(alpha, x0, f, n)
        bounded = bounded and run_defect * n <= 2 * max(abs(v) for v in f.values)
    findings.append(Finding("defect_bound", bounded, "200 random runs"))
    details = {"third_orbit": [str(value), str(defect)]}
    return findings, details


_MEASURE_DEMOS = {
    "finite-group": _demo_finite_group,
    "density": _demo_density,
    "induced-measure": _demo_induced_measure,
    "ergodic": _demo_ergodic,
}


def _run_measures_demo(args):
    findings, details = _MEASURE_DEMOS[args.which](args.seed)
    details["findings"] = findings
    ok = all(f.ok for f in findings)
    summary = f"measures demo {args.which}: {'all checks pass' if ok else 'checks FAILED'}"
    return ("pass" if ok else "fail"), details, summary


def _run_paradox_contradiction(args):
    try:
        with open(args.input, encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise _UsageError(f"cannot read {args.input}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise _UsageError(f"{args.input}:{exc.lineno}:{exc.colno}: {exc.msg}") from None
    try:
        model, space, witness, nu, invariant, interior = measures.contradiction_input_from_json(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise _UsageError(f"{args.input}: {exc}") from None
    try:
        report = measures.paradox_contradiction(model, space, witness, nu, invariant, interior=interior)
    except ModelError as exc:
        # the input parsed but describes a broken model or witness
        raise _UsageError(f"{args.input}: {exc}") from None
    findings = [
        Finding(link.name, link.ok, link.detail or f"{link.lhs} vs {link.rhs} ({link.mode})")
        for link in report.links
    ]
    details = {
        "findings": findings,
        "links": list(report.links),
        "outcome": report.outcome,
        "first_failure": report.first_failure,
        "conclusion": report.conclusion,
    }
    return ("pass" if report.passed else "fail"), details, report.summary().splitlines()[0]


_BASIS_NAMES = ("1", "sqrt2", "sqrt3", "pi", "e", "sqrt5", "ln2", "sqrt7")


def _run_cauchy_demo(args):
    rank = args.rank
    labels = [_BASIS_NAMES[i] if i < len(_BASIS_NAMES) else f"r{i}" for i in range(rank)]
    images = [Fraction(i) for i in range(rank)] if rank > 1 else [Fraction(5)]
    f = cauchy.AdditiveMap(cauchy.HamelModel.of(labels, images))
    report = cauchy.verify_cauchy(f, trials=500, seed=args.seed)
    witness = cauchy.nonproportionality_witness(f)
    findings = list(report.findings)
    if rank > 1:
        findings.append(
            Finding("nonproportional", witness is not None, "" if witness else "expected a witness at rank >= 2")
        )
    else:
        findings.append(Finding("proportional_at_rank_1", witness is None))
    details = {
        "findings": findings,
        "model": f.model.to_json(),
        "witness": witness,
        "assumptions": list(report.assumptions),
    }
    ok = all(fi.ok for fi in findings)
    return ("pass" if ok else "fail"), details, report.summary()


# ---------------------------------------------------------------------------
# parser assembly
# ---------------------------------------------------------------------------


_REQUIRED_POSITIVE = {"type": _positive_int, "required": True}
_DEPTH = ("--depth", _REQUIRED_POSITIVE)
_BITS = ("--bits", {"type": _precision_bits, "default": sphere.DEFAULT_PRECISION_BITS})

#: One row per subcommand: (group, group help, action, handler, argument
#: specs), each spec a flag and its add_argument keywords.  Groups appear in
#: the order of their first row, and each takes its help from that row.
COMMANDS = (
    ("words", "reduced-word decomposition checks", "verify", _run_words_verify, [_DEPTH]),
    ("freeness", "freeness of the rotation pair", "exhaustive", _run_freeness_exhaustive, [_DEPTH]),
    (
        "freeness",
        "freeness of the rotation pair",
        "certify",
        _run_freeness_certify,
        [("--base", {"type": _int_triple, "default": None, "help": "base vector, like 0,1,0"})],
    ),
    ("sphere", "fixed directions and absorbing rotations", "fixed-points", _run_sphere_fixed_points, [_DEPTH]),
    (
        "sphere",
        "fixed directions and absorbing rotations",
        "absorb",
        _run_sphere_absorb,
        [_DEPTH, ("--iters", _REQUIRED_POSITIVE), _BITS],
    ),
    (
        "smp",
        "planar two-piece paradox",
        "verify",
        _run_smp_verify,
        [("--deg", _REQUIRED_POSITIVE), ("--coef", _REQUIRED_POSITIVE), _BITS],
    ),
    (
        "measures",
        "finitely additive measure demos",
        "demo",
        _run_measures_demo,
        [("--which", {"choices": sorted(_MEASURE_DEMOS), "required": True})],
    ),
    (
        "paradox",
        "contradiction chain on a finite witness",
        "contradiction",
        _run_paradox_contradiction,
        [("--input", {"required": True, "help": "JSON file with model, witness, and measure"})],
    ),
    (
        "cauchy",
        "additive non-linear maps",
        "demo",
        _run_cauchy_demo,
        [("--rank", {"type": _int_in(1, cauchy.MAX_RANK), "required": True})],
    ),
)


def build_parser() -> _Parser:
    parser = _Parser(prog="paradoxlab", description=__doc__.splitlines()[0])
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="seed for randomized audits (default 0)")
    common.add_argument("--timing", action="store_true", help="fill timing_ms in the report")

    top = parser.add_subparsers(dest="group", required=True, parser_class=_Parser)
    groups = {}
    for group, group_help, action, handler, specs in COMMANDS:
        if group not in groups:
            group_parser = top.add_parser(group, help=group_help)
            groups[group] = group_parser.add_subparsers(dest="action", required=True, parser_class=_Parser)
        p = groups[group].add_parser(action, parents=[common])
        for flag, options in specs:
            p.add_argument(flag, **options)
        p.set_defaults(handler=handler, command=f"{group} {action}")
    return parser


@functools.cache
def _parser() -> _Parser:
    """The parser of :func:`main`, built on its first call; parse_args leaves it as it was.

    The handlers look up their modules' functions when they run, so a
    patched module function is still the one called.
    """
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        outcome, details, summary = args.handler(args)
    except (_UsageError, ResourceLimitError) as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InconclusiveError as exc:
        outcome, details, summary = "inconclusive", {"findings": [], "error": str(exc)}, str(exc)
    except VerificationError as exc:
        finding = Finding(type(exc).__name__, False, str(exc))
        outcome, details, summary = "fail", {"findings": [finding], "error": str(exc)}, str(exc)
    elapsed_ms = int((time.perf_counter() - started) * 1000)

    skip = {"handler", "command", "group", "action", "timing"}
    parameters = {k: v for k, v in vars(args).items() if k not in skip}
    sys.stdout.buffer.write(report(args.command, parameters, outcome, details, elapsed_ms if args.timing else None))
    print(f"{args.command}: {outcome} ({summary})", file=sys.stderr)
    return {"pass": EXIT_PASS, "fail": EXIT_FAIL, "inconclusive": EXIT_INCONCLUSIVE}[outcome]
