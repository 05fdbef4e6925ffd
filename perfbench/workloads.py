"""The benchmark's three workloads, their sizes and the known answers they are graded against.

Each workload is a function ``(run, inputs, sizes) -> None`` that makes its
library calls through :meth:`Run.verdict`.  ``prepare`` builds the inputs
from the seed before the first timed call, so that input generation counts
as set-up.  Every expected value is computed here, from closed forms, from
the benchmark's own mod-7 automaton on the paper's integer generators, or
from direction counts recorded below; the library's own oracles
(``words.ball_size`` and the like) are not used to grade it.

Only public names of the library are touched.  The ``paradoxlab`` modules
are imported inside the functions, so that the parent process, which never
runs the library, does not import it.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import sys
import time
from contextlib import redirect_stderr
from dataclasses import dataclass, field
from pathlib import Path
from random import Random
from statistics import median

ROOT = Path(__file__).resolve().parent.parent


def now() -> float:
    """CLOCK_MONOTONIC is system-wide, so the parent's readings compare with the child's."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


#: One line per workload on why it is in the benchmark; BENCHMARK.json repeats them.
WHY = {
    "exact-ball": "exact integer and Fraction work on 118,097 words: the word, freeness, fixed-direction, orbit and chain layers",
    "certified-intervals": "mpmath interval geometry and the planar embedding, where the word layers do almost nothing",
    "cli-scoreboard": "the 12 scoreboard commands through cli.main, repeated: many short calls, argparse, report bytes, warm caches",
}

SIZES = {
    "full": {
        "exact-ball": {"depth": 10, "orbit_depth": 7, "dirac_points": 6},
        "certified-intervals": {"depth": 4, "powers": 3, "smp_deg": 7, "smp_coef": 3},
        "cli-scoreboard": {
            "passes": 4,
            "words_depth": 6,
            "exhaustive_depth": 8,
            "sphere_depth": 2,
            "absorb_iters": 5,
            "smp_deg": 6,
            "smp_coef": 3,
            "toy_len": 6,
        },
    },
    # Small enough for the smoke test to run every workload in a few seconds.
    "tiny": {
        "exact-ball": {"depth": 3, "orbit_depth": 2, "dirac_points": 3},
        "certified-intervals": {"depth": 2, "powers": 1, "smp_deg": 2, "smp_coef": 1},
        "cli-scoreboard": {
            "passes": 2,
            "words_depth": 3,
            "exhaustive_depth": 3,
            "sphere_depth": 1,
            "absorb_iters": 1,
            "smp_deg": 2,
            "smp_coef": 1,
            "toy_len": 3,
        },
    },
}

#: |fixed_directions(depth)|, recorded from the seed code; the library has no closed form.
RECORDED_DIRECTIONS = {1: 2, 2: 6, 3: 22, 4: 66, 7: 2106}

#: Per-layer metrics with their units.  Time metrics are span self times
#: summed over one traced child; counts come from inputs or returned objects.
PER_LAYER = {
    "words.ball_s": "s",
    "words.ball_words": "count",
    "words.verify_s": "s",
    "words.verify_words_per_s": "1/s",
    "freeness.exhaustive_s": "s",
    "freeness.exhaustive_words": "count",
    "freeness.certificate_s": "s",
    "freeness.certificate_states": "count",
    "sphere.fixed_directions_s": "s",
    "sphere.kernel_solves": "count",
    "sphere.directions": "count",
    "paradox.orbit_transport_s": "s",
    "paradox.orbit_points": "count",
    "paradox.f2_ball_model_s": "s",
    "measures.contradiction_s": "s",
    "measures.chains": "count",
    "measures.spurious_contradictions": "count",
    "sphere.absorb_search_s": "s",
    "sphere.absorb_candidates": "count",
    "sphere.absorb_bits": "bits",
    "sphere.search_interval_distances": "count",
    "sphere.absorb_demo_s": "s",
    "sphere.demo_pairs": "count",
    "sphere.demo_pairs_per_s": "1/s",
    "sphere.control_s": "s",
    "paradox.smp_verify_s": "s",
    "paradox.smp_points": "count",
    "paradox.smp_points_per_s": "1/s",
    "cli.words-verify_s": "s",
    "cli.freeness-exhaustive_s": "s",
    "cli.freeness-certify_s": "s",
    "cli.sphere-fixed-points_s": "s",
    "cli.sphere-absorb_s": "s",
    "cli.smp-verify_s": "s",
    "cli.measures-demo-finite-group_s": "s",
    "cli.measures-demo-density_s": "s",
    "cli.measures-demo-induced-measure_s": "s",
    "cli.measures-demo-ergodic_s": "s",
    "cli.cauchy-demo_s": "s",
    "cli.paradox-contradiction_s": "s",
    "cli.report_bytes": "B",
    "bench.self_s": "s",
    "trace.spans": "count",
    "trace.overhead_s": "s",
}

#: Rate metric -> (count metric, span whose self time it is divided by).
RATES = {
    "words.verify_words_per_s": ("words.ball_words", "words.verify"),
    "sphere.demo_pairs_per_s": ("sphere.demo_pairs", "sphere.absorb_demo"),
    "paradox.smp_points_per_s": ("paradox.smp_points", "paradox.smp_verify"),
}


# -- the ledger of one child ------------------------------------------------


@dataclass
class Run:
    """Verdicts, spans and work counts of one child process.

    A verdict is one library call graded against its known answer.  It
    fails when the call raises or the answer is wrong.  A wrong answer on an
    input in the documented defect set is counted as failed but is not
    ``unexpected``; any other failure is, and makes the run incorrect.
    """

    run_id: str
    trace: bool
    attempted: int = 0
    failed: int = 0
    unexpected: list = field(default_factory=list)
    known_defects: list = field(default_factory=list)
    verdicts: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)
    _open: list = field(default_factory=list)

    def begin(self, name: str) -> None:
        if self.trace:
            parent = self._open[-1] if self._open else None
            self.spans.append({"name": name, "start": now(), "end": None, "parent": parent, "run": self.run_id})
            self._open.append(len(self.spans) - 1)

    def end(self) -> None:
        if self.trace:
            self.spans[self._open.pop()]["end"] = now()

    def verdict(self, layer: str, call, check, *, known_defect: bool = False):
        """Time ``call()`` as one verdict; ``check(result)`` returns None or what is wrong."""
        self.attempted += 1
        self.begin(layer)
        started = now()
        try:
            result = call()
        except Exception as exc:  # a raising call is a failed verdict, not a crash of the run
            result, problem = None, f"raised {type(exc).__name__}: {exc}"
        else:
            problem = None
        self.verdicts.append((started, now()))
        self.end()
        if problem is None:
            try:
                problem = check(result)
            except Exception as exc:  # a malformed result is a wrong answer
                problem = f"unreadable result: {type(exc).__name__}: {exc}"
        if problem is not None:
            self.failed += 1
            (self.known_defects if known_defect else self.unexpected).append(f"{layer}: {problem}")
        return result


def _expect(got, want, what: str):
    return None if got == want else f"{what} is {got!r}, expected {want!r}"


# -- oracles ----------------------------------------------------------------


def census(n: int) -> int:
    """Reduced words of length <= n in F2: 1 + 4 * (3^n - 1) / 2."""
    return 1 + 2 * (3**n - 1)


LETTERS = "abAB"  # enumeration order of the library; x and LETTERS[i ^ 2] are inverse


def word_at(index: int) -> str:
    """The reduced word at ``index`` of the length-lexicographic ball order."""
    n = 0
    while index >= census(n):
        n += 1
    if n == 0:
        return ""
    rank = index - census(n - 1)
    digits = []
    for _ in range(n - 1):
        rank, d = divmod(rank, 3)
        digits.append(d)
    out = [rank]  # rank < 4 is the first letter
    for d in reversed(digits):
        allowed = [i for i in range(4) if i != out[-1] ^ 2]
        out.append(allowed[d])
    return "".join(LETTERS[i] for i in out)


# The paper's generators times 7; a^-1 and b^-1 are the transposes.
_GEN7 = {
    "a": ((6, 2, 3), (2, 3, -6), (-3, 6, 2)),
    "b": ((2, -6, 3), (6, 3, 2), (-3, 2, 6)),
}
_GEN7["A"] = tuple(zip(*_GEN7["a"]))
_GEN7["B"] = tuple(zip(*_GEN7["b"]))


def residue_automaton(base: tuple[int, int, int]) -> tuple[bool, int]:
    """(free at base, number of states) of the mod-7 prepend automaton.

    A state is (first letter, 7^|w| w(base) mod 7).  The pair is certified
    free when no reachable state has residue zero.
    """

    def act(letter: str, v):
        return tuple(sum(m * x for m, x in zip(row, v)) % 7 for row in _GEN7[letter])

    frontier = [(x, act(x, base)) for x in LETTERS]
    seen = set(frontier)
    while frontier:
        nxt = []
        for first, residue in frontier:
            if not any(residue):
                return False, len(seen)
            for x in LETTERS:
                if x == LETTERS[LETTERS.index(first) ^ 2]:
                    continue
                state = (x, act(x, residue))
                if state not in seen:
                    seen.add(state)
                    nxt.append(state)
        frontier = nxt
    return True, len(seen)


# -- exact-ball -------------------------------------------------------------


def prepare_exact_ball(seed: int, sizes: dict) -> dict:
    from paradoxlab import freeness

    rng = Random(seed)
    base = rng.choice(freeness.CANDIDATE_BASE_VECTORS)
    d, k = sizes["orbit_depth"], sizes["dirac_points"]
    # One Dirac point per equal slice of the length-lex ball: the points
    # cover the whole space and hit every region, including the known
    # defect region, at its population rate, so the failure count does not
    # swing with the seed.
    total = census(d)
    points = [word_at(rng.randrange(i * total // k, (i + 1) * total // k)) for i in range(k)]
    return {"base": base, "dirac": points, "automaton": residue_automaton(base)}


def spurious_by_defect(word: str, depth: int) -> bool:
    """The seed defect: with invariant=False in truncation mode, a Dirac point
    on a full-length word starting with a or b yields ``contradiction``."""
    return len(word) == depth and word[0] in "ab"


def _directions_check(run: Run, depth: int):
    def check(C):
        run.counts["sphere.directions"] = len(C)
        return _expect(len(C), RECORDED_DIRECTIONS[depth], "direction count")

    return check


def exact_ball(run: Run, inputs: dict, sizes: dict) -> None:
    from paradoxlab import freeness, measures, paradox, sphere, words

    D, d = sizes["depth"], sizes["orbit_depth"]
    n = census(D)

    def check_ball(b):
        run.counts["words.ball_words"] = len(b)
        return _expect((len(b), len(b[0]), len(b[-1])), (n, 0, D), "(size, first length, last length)")

    run.verdict("words.ball", lambda: words.ball(D), check_ball)

    def check_verify(r):
        counts = {c.value: v for c, v in r.class_counts.items()}
        want = {"e": 1, **{x: (n - 1) // 4 for x in LETTERS}}
        return _expect((r.passed, counts, r.split_a.checked, r.split_b.checked), (True, want, n, n), "verdict")

    run.verdict("words.verify", lambda: words.verify_f2_paradox(D), check_verify)

    def check_exhaustive(v):
        run.counts["freeness.exhaustive_words"] = v.words_checked
        return _expect((v.outcome, v.witness, v.words_checked), ("certified", None, n - 1), "verdict")

    run.verdict("freeness.exhaustive", lambda: freeness.exhaustive_check(D), check_exhaustive)

    free, states = inputs["automaton"]

    def check_cert(c):
        got = (isinstance(c, freeness.FreenessCertificate), len(getattr(c, "states", ())))
        run.counts["freeness.certificate_states"] = got[1]
        return _expect(got, (free, states if free else 0), "(certified, states)")

    cert = run.verdict("freeness.certificate", lambda: freeness.build_certificate(inputs["base"]), check_cert)
    run.verdict("freeness.certificate", lambda: freeness.verify_certificate(cert), lambda ok: _expect(ok, True, "verify_certificate"))

    run.verdict("sphere.fixed_directions", lambda: sphere.fixed_directions(d), _directions_check(run, d))
    run.counts["sphere.kernel_solves"] = census(d) - 1

    def check_orbit(o):
        run.counts["paradox.orbit_points"] = o.orbit_size
        return _expect((o.passed, o.orbit_size), (True, census(d)), "(passed, orbit size)")

    run.verdict("paradox.orbit_transport", lambda: paradox.orbit_transport(d, cert), check_orbit)

    def check_model(m):
        return _expect((len(m[1]), len(m[3])), (census(d), census(d - 1)), "(space, interior) sizes")

    model = run.verdict("paradox.f2_ball_model", lambda: paradox.f2_ball_model(d), check_model)

    def chain(measure, invariant):
        model_, space, witness, interior = model
        return measures.paradox_contradiction(model_, space, witness, measure(space), invariant, interior=interior)

    run.verdict(
        "measures.contradiction",
        lambda: chain(measures.PointMeasure.uniform, True),
        lambda r: _expect(r.outcome, "contradiction", "uniform invariant chain"),
    )
    spurious = 0
    for text in inputs["dirac"]:
        point = words.ReducedWord.from_string(text)
        report = run.verdict(
            "measures.contradiction",
            lambda: chain(lambda space: measures.PointMeasure.dirac(space, point), False),
            lambda r: None if r.outcome != "contradiction" else f"Dirac chain at {text!r} claims a contradiction",
            known_defect=spurious_by_defect(text, d),
        )
        spurious += getattr(report, "outcome", None) == "contradiction"
    run.counts["measures.chains"] = 1 + len(inputs["dirac"])
    run.counts["measures.spurious_contradictions"] = spurious


# -- certified-intervals ----------------------------------------------------


def prepare_certified_intervals(seed: int, sizes: dict) -> dict:
    return {"pick": Random(seed).random()}


def _candidates_tried(g, C) -> int:
    """Candidates the adaptive search tried before returning g, from g itself."""
    import inspect

    from paradoxlab import sphere

    max_axes = inspect.signature(sphere.find_absorbing_rotation).parameters["max_axes"].default
    axes = sphere.axis_candidates(C.directions)[:max_axes]
    per_round = len(axes) * len(sphere.ANGLE_CANDIDATES)
    failed_rounds = (g.precision_bits // sphere.DEFAULT_PRECISION_BITS).bit_length() - 1
    return failed_rounds * per_round + axes.index(g.axis) * len(sphere.ANGLE_CANDIDATES) + sphere.ANGLE_CANDIDATES.index(g.angle) + 1


def certified_intervals(run: Run, inputs: dict, sizes: dict) -> None:
    from paradoxlab import paradox, sphere

    depth, M = sizes["depth"], sizes["powers"]
    deg, coef = sizes["smp_deg"], sizes["smp_coef"]
    n_dirs = RECORDED_DIRECTIONS[depth]

    C = run.verdict("sphere.fixed_directions", lambda: sphere.fixed_directions(depth), _directions_check(run, depth))
    run.counts["sphere.kernel_solves"] = census(depth) - 1

    def check_search(g):
        run.counts["sphere.absorb_candidates"] = _candidates_tried(g, C)
        run.counts["sphere.absorb_bits"] = g.precision_bits
        return _expect((g.margin > 0, g.depth_checked >= M), (True, True), "(margin > 0, powers certified)")

    g = run.verdict("sphere.absorb_search", lambda: sphere.find_absorbing_rotation_adaptive(C, M), check_search)
    run.counts["sphere.search_interval_distances"] = M * n_dirs**2

    def check_demo(r):
        run.counts["sphere.demo_pairs"] = r.n_points * (r.n_points - 1) // 2
        return _expect((r.outcome, r.n_points), ("pass", (M + 1) * n_dirs), "(outcome, points)")

    run.verdict("sphere.absorb_demo", lambda: sphere.absorb_demo(C, g, M), check_demo)

    # Bad-angle control: a rotation carrying one direction of C onto another
    # of equal integer length must be caught as a collision.
    triples = C.sorted_triples()
    eligible = [
        (p, q)
        for i, p in enumerate(triples)
        for q in triples[i + 1 :]
        if sum(x * x for x in p) == sum(x * x for x in q)
    ]
    p, q = eligible[int(inputs["pick"] * len(eligible))]
    run.extra["control_pair"] = [p, q]
    run.extra["control_eligible"] = len(eligible)
    run.verdict(
        "sphere.control",
        lambda: sphere.absorb_demo(C, sphere.corrupted_rotation(p, q), M),
        lambda r: _expect(r.outcome, "fail", "corrupted-rotation outcome"),
    )

    def check_smp(r):
        run.counts["paradox.smp_points"] = r.total
        return _expect((r.outcome, r.total, r.count_a), ("pass", (coef + 1) ** (deg + 1), (coef + 1) ** deg), "(outcome, total, A)")

    run.verdict("paradox.smp_verify", lambda: paradox.smp_verify(deg, coef), check_smp)


# -- cli-scoreboard ---------------------------------------------------------


def toy_path(max_len: int) -> str:
    """Where the contradiction input lives, relative to the checkout.

    The path appears in the report's parameters, so it is fixed per size:
    report hashes then compare across runs and checkouts.
    """
    return f"perfbench/results/work/shift-toy-{max_len}.json"


def scoreboard_commands(sizes: dict, seed: int) -> list[list[str]]:
    """The scoreboard of scripts/run_all_checks.py, at the given sizes."""
    s = sizes
    commands = [
        ["words", "verify", "--depth", str(s["words_depth"])],
        ["freeness", "exhaustive", "--depth", str(s["exhaustive_depth"])],
        ["freeness", "certify"],
        ["sphere", "fixed-points", "--depth", str(s["sphere_depth"])],
        ["sphere", "absorb", "--depth", str(s["sphere_depth"]), "--iters", str(s["absorb_iters"])],
        ["smp", "verify", "--deg", str(s["smp_deg"]), "--coef", str(s["smp_coef"])],
        ["measures", "demo", "--which", "finite-group"],
        ["measures", "demo", "--which", "density"],
        ["measures", "demo", "--which", "induced-measure"],
        ["measures", "demo", "--which", "ergodic"],
        ["cauchy", "demo", "--rank", "2"],
        ["paradox", "contradiction", "--input", toy_path(s["toy_len"])],
    ]
    return [argv + ["--seed", str(seed)] for argv in commands]


def command_label(argv: list[str]) -> str:
    label = f"cli.{argv[0]}-{argv[1]}"
    if "--which" in argv:
        label += "-" + argv[argv.index("--which") + 1]
    return label


def prepare_cli_scoreboard(seed: int, sizes: dict) -> dict:
    from paradoxlab import measures, paradox

    model, space, witness, interior = paradox.two_to_one_shift_model(sizes["toy_len"])
    data = measures.contradiction_input_to_json(model, space, witness, measures.PointMeasure.uniform(space), False, interior)
    toy = ROOT / toy_path(sizes["toy_len"])
    toy.parent.mkdir(parents=True, exist_ok=True)
    scratch = toy.with_suffix(f".{os.getpid()}.tmp")
    scratch.write_text(json.dumps(data, indent=2, sort_keys=True), encoding="utf-8")
    scratch.replace(toy)  # atomic, so a concurrent run never reads half a file
    return {"commands": [(argv, scoreboard_answers(argv)) for argv in scoreboard_commands(sizes, seed)]}


def scoreboard_answers(argv: list[str]) -> dict:
    """Details fields (dotted paths) a passing report must carry, computed from the command line."""
    arg = {argv[i]: argv[i + 1] for i in range(2, len(argv) - 1, 2)}
    name = command_label(argv)
    if name == "cli.words-verify":
        return {"ball_size": census(int(arg["--depth"]))}
    if name == "cli.freeness-exhaustive":
        return {"words_checked": census(int(arg["--depth"])) - 1, "verdict": "certified"}
    if name == "cli.freeness-certify":
        # The CLI takes the first candidate that certifies; (0, 1, 0) comes first.
        return {"state_count": residue_automaton((0, 1, 0))[1]}
    if name == "cli.sphere-fixed-points":
        return {"count": RECORDED_DIRECTIONS[int(arg["--depth"])]}
    if name == "cli.sphere-absorb":
        return {"demo.n_points": (int(arg["--iters"]) + 1) * RECORDED_DIRECTIONS[int(arg["--depth"])]}
    if name == "cli.smp-verify":
        deg, coef = int(arg["--deg"]), int(arg["--coef"])
        return {"counts": {"total": (coef + 1) ** (deg + 1), "A": (coef + 1) ** deg, "B": coef * (coef + 1) ** deg}}
    if name == "cli.paradox-contradiction":
        # Uniform weights on the shift toy are exactly balanced, so every link holds.
        return {"outcome": "contradiction"}
    return {}


class _BinaryStdout:
    """Stand-in for sys.stdout: cli.main writes its report to ``.buffer``."""

    def __init__(self) -> None:
        self.buffer = io.BytesIO()


def run_cli(argv: list[str]) -> tuple[int, bytes]:
    from paradoxlab import cli

    out = _BinaryStdout()
    saved = sys.stdout
    sys.stdout = out
    try:
        with redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    finally:
        sys.stdout = saved
    return code, out.buffer.getvalue()


def cli_scoreboard(run: Run, inputs: dict, sizes: dict) -> None:
    reference: dict[str, str] = {}
    report_bytes = []
    for _ in range(sizes["passes"]):
        run.begin("cli.pass")
        pass_bytes = 0
        for argv, answers in inputs["commands"]:
            name = command_label(argv)

            def check(result, name=name, answers=answers):
                code, body = result
                digest = hashlib.sha256(body).hexdigest()
                if reference.setdefault(name, digest) != digest:
                    return f"report bytes differ from the first pass ({digest[:12]} vs {reference[name][:12]})"
                report = json.loads(body)
                if (code, report["outcome"]) != (0, "pass"):
                    return f"exit {code}, outcome {report['outcome']!r}"
                for path, want in answers.items():
                    got = report["details"]
                    for key in path.split("."):
                        got = got[key]
                    if got != want:
                        return f"details.{path} is {got!r}, expected {want!r}"
                return None

            result = run.verdict(name, lambda argv=argv: run_cli(argv), check)
            if result is not None:
                pass_bytes += len(result[1])
        report_bytes.append(pass_bytes)
        run.end()
    run.counts["cli.report_bytes"] = median(report_bytes)
    run.extra["report_sha256"] = reference


WORKLOADS = {
    "exact-ball": (prepare_exact_ball, exact_ball),
    "certified-intervals": (prepare_certified_intervals, certified_intervals),
    "cli-scoreboard": (prepare_cli_scoreboard, cli_scoreboard),
}


def layer_metrics(spans: list[dict], counts: dict) -> dict:
    """Per-layer metrics of one traced child: self time per span name, counts and rates.

    Span times are in reference seconds (``ref_s``, set by child.py).
    """
    self_s: dict[str, float] = {}
    for i, span in enumerate(spans):
        inner = sum(c["ref_s"] for c in spans if c["parent"] == i)
        self_s[span["name"]] = self_s.get(span["name"], 0.0) + span["ref_s"] - inner
    out = {name: 0 for name in PER_LAYER}
    for name, value in self_s.items():
        if name + "_s" in out:
            out[name + "_s"] = value
    out["bench.self_s"] = sum(v for name, v in self_s.items() if name + "_s" not in PER_LAYER)
    out["trace.spans"] = len(spans)
    out.update({k: v for k, v in counts.items() if k in out})
    for rate, (count, span) in RATES.items():
        if self_s.get(span):
            out[rate] = counts.get(count, 0) / self_s[span]
    return out
