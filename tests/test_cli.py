"""The command-line interface: report shape, exit codes, and determinism."""

import argparse
import dataclasses
import hashlib
import json
import os
import re
import subprocess
import sys
from fractions import Fraction

import jsonschema
import pytest

from paradoxlab import cauchy, cli, exactlin, freeness, measures, paradox, sphere
from paradoxlab.errors import InconclusiveError, InvariantViolationError
from paradoxlab.words import Letter, ReducedWord

from conftest import REPO_ROOT, run_cli


def _shift_input(tmp_path, max_len=4):
    model, space, witness, interior = paradox.two_to_one_shift_model(max_len)
    nu = measures.PointMeasure.uniform(space)
    data = measures.contradiction_input_to_json(model, space, witness, nu, False, interior)
    path = tmp_path / "shift.json"
    path.write_text(json.dumps(data, indent=2, sort_keys=True))
    return path


# -- report contract ---------------------------------------------------------

PASSING = [
    ("words", "verify", "--depth", "3"),
    ("freeness", "exhaustive", "--depth", "3"),
    ("freeness", "certify"),
    ("sphere", "fixed-points", "--depth", "2"),
    ("sphere", "absorb", "--depth", "2", "--iters", "3"),
    pytest.param(("sphere", "absorb", "--depth", "1", "--iters", "2", "--bits", "64"), id="sphere absorb at the bits floor"),
    ("smp", "verify", "--deg", "3", "--coef", "2"),
    ("measures", "demo", "--which", "density"),
    ("measures", "demo", "--which", "finite-group"),
    ("measures", "demo", "--which", "induced-measure"),
    ("measures", "demo", "--which", "ergodic"),
    ("cauchy", "demo", "--rank", "2"),
]


@pytest.mark.parametrize("argv", PASSING, ids=lambda a: " ".join(a[:2]))
def test_passing_commands_emit_valid_reports(argv, report_schema):
    result = run_cli(*argv)
    assert result.code == 0
    report = result.report
    jsonschema.validate(report, report_schema)
    assert report["outcome"] == "pass"
    assert report["schema"] == "report-v1"
    assert report["timing_ms"] is None
    assert report["command"] == " ".join(argv[:2])
    # one summary line on stderr, ending with the outcome tag
    assert result.stderr.count("\n") == 1
    assert result.stderr.startswith(f"{' '.join(argv[:2])}: pass")


def test_failing_command_exits_one(report_schema):
    result = run_cli("freeness", "certify", "--base", "7,7,7")
    assert result.code == 1
    report = result.report
    jsonschema.validate(report, report_schema)
    assert report["outcome"] == "fail"
    assert any(not f["ok"] for f in report["details"]["findings"])


def _finding(report, name):
    [finding] = [f for f in report["details"]["findings"] if f["name"] == name]
    return finding


def test_exhaustive_freeness_reports_its_witness_word(monkeypatch, report_schema):
    # b acts as a, so a.b^-1 is the first word that multiplies out to the identity.
    a, _, a_inv, _ = exactlin.SCALED_GENERATORS
    monkeypatch.setattr(exactlin, "SCALED_GENERATORS", (a, a, a_inv, a_inv))
    result = run_cli("freeness", "exhaustive", "--depth", "3")
    assert result.code == 1
    jsonschema.validate(result.report, report_schema)
    finding = _finding(result.report, "no_identity_word")
    assert finding["ok"] is False and finding["detail"] == "witness aB"
    assert result.report["details"]["witness"] == "aB"


def test_certify_reports_the_path_to_a_zero_residue(report_schema):
    # 7b(-1, -1, 1) = (7, -7, 7), zero mod 7 after the one letter b.
    result = run_cli("freeness", "certify", "--base=-1,-1,1")
    assert result.code == 1
    jsonschema.validate(result.report, report_schema)
    assert _finding(result.report, "certificate_built")["ok"] is False
    assert result.report["details"]["failure"]["path"] == "b"


def test_paradox_contradiction_end_to_end(tmp_path, report_schema):
    path = _shift_input(tmp_path)
    result = run_cli("paradox", "contradiction", "--input", str(path))
    assert result.code == 0
    report = result.report
    jsonschema.validate(report, report_schema)
    names = [link["name"] for link in report["details"]["links"]]
    assert names == ["total_mass", "superadditivity", "invariance", "subadditivity", "covering"]


def test_paradox_contradiction_rejects_an_empty_interior(tmp_path, report_schema):
    # The identity alone moves nothing, so the derived interior is the whole
    # space and the pieces {x} and {y} cannot cover it.
    data = {
        "schema": "contradiction-input-v1",
        "space": ["x", "y"],
        "identity": "e",
        "partial": False,
        "maps": {"e": {"x": "x", "y": "y"}},
        "witness": {"pieces_a": [["x"]], "movers_a": ["e"], "pieces_b": [["y"]], "movers_b": ["e"]},
        "nu": {"weights": {"x": "1/2", "y": "1/2"}},
        "invariant": True,
        "interior": [],
    }
    path = tmp_path / "empty-interior.json"
    path.write_text(json.dumps(data))
    result = run_cli("paradox", "contradiction", "--input", str(path))
    assert result.code == 1
    report = result.report
    jsonschema.validate(report, report_schema)
    assert (report["outcome"], report["details"]["first_failure"]) == ("fail", "covering")
    assert "2 point(s) of that range not given ('x', 'y')" in report["details"]["links"][-1]["detail"]


def test_inconclusive_exit_code(monkeypatch, report_schema):
    def give_up(*args, **kwargs):
        raise InconclusiveError("precision cap reached without certification")

    monkeypatch.setattr(cli.sphere, "find_absorbing_rotation_adaptive", give_up)
    result = run_cli("sphere", "absorb", "--depth", "2", "--iters", "3")
    assert result.code == 2
    report = result.report
    jsonschema.validate(report, report_schema)
    assert report["outcome"] == "inconclusive"


def test_a_broken_invariant_gives_a_fail_report(monkeypatch, report_schema):
    # ints - den*I is the identity for the word a: rank 3, so nothing is fixed.
    def broken(depth):
        yield (), (1, 0, 0, 0, 1, 0, 0, 0, 1), 1
        yield (Letter.A,), (2, 0, 0, 0, 2, 0, 0, 0, 2), 1

    monkeypatch.setattr(sphere, "ball_matrices", broken)
    result = run_cli("sphere", "fixed-points", "--depth", "1")
    assert result.code == 1
    report = result.report
    jsonschema.validate(report, report_schema)
    assert report["outcome"] == "fail"
    [finding] = report["details"]["findings"]
    assert finding["ok"] is False
    assert finding["detail"].startswith("a: fixed space is 0-dimensional")


def _fixed_points_findings(depth):
    result = run_cli("sphere", "fixed-points", "--depth", str(depth))
    [finding] = result.report["details"]["findings"]
    return result.code, finding


def test_fixed_points_recheck_catches_swapped_scaled_generators(monkeypatch):
    # The ball's products now use b where the word says a, so some axes are
    # fixed by a different word than their witness.
    a, b, a_inv, b_inv = exactlin.SCALED_GENERATORS
    monkeypatch.setattr(exactlin, "SCALED_GENERATORS", (b, a, b_inv, a_inv))
    code, finding = _fixed_points_findings(2)
    assert code == 1
    assert finding["name"] == "witnesses_fix_directions" and finding["ok"] is False
    assert finding["detail"] == "[0:1:2], [2:1:0], [2:5:2], [4:1:4]"


def test_fixed_points_recheck_catches_a_reversed_matrix_product(monkeypatch):
    # Reversed products give each word the matrix of its reverse.
    matmul = exactlin._matmul_ints
    monkeypatch.setattr(exactlin, "_matmul_ints", lambda a, b: matmul(b, a))
    code, finding = _fixed_points_findings(3)
    assert code == 1
    assert finding["ok"] is False


def test_a_broken_demo_bound_gives_a_fail_report(monkeypatch, report_schema):
    # ergodic_average raises on a defect above its bound, and the report names the raise.
    def broken(*args):
        raise InvariantViolationError("invariance defect 1 exceeds 2 sup|f| / 3")

    monkeypatch.setattr(measures, "ergodic_average", broken)
    result = run_cli("measures", "demo", "--which", "ergodic")
    assert result.code == 1
    report = result.report
    jsonschema.validate(report, report_schema)
    assert report["outcome"] == "fail"
    assert report["details"]["findings"] == [
        {"name": "InvariantViolationError", "ok": False, "detail": "invariance defect 1 exceeds 2 sup|f| / 3"}
    ]


def _smp_verify_invariant_failure(report_schema, *args):
    result = run_cli("smp", "verify", *args)
    assert result.code == 1
    report = result.report
    jsonschema.validate(report, report_schema)
    assert report["outcome"] == "fail"
    [finding] = report["details"]["findings"]
    assert finding["name"] == "InvariantViolationError" and finding["ok"] is False
    return finding["detail"]


@pytest.mark.parametrize("sign", [1, -1])
def test_smp_verify_fails_closed_when_the_mask_keeps_the_boxes_of_one_sign(monkeypatch, report_schema, sign):
    # A mask of box(D) alone (sign 1) holds the i ends of D's realisations but not their j ends in box(-D),
    # and a mask of box(-D) alone (sign -1) the j ends but not the i ends.  At coef 1 each nonzero
    # coefficient of D fixes that digit of P_i to one value and of P_j to the other, so at deg 12 no pair
    # realising the least D lies within either box, and the sweep meets a pair far from the least
    # difference.  Taking every digit p to coef - p maps box(D) onto box(-D) by a point reflection, so both
    # signs sweep the same distance.
    def one_sign(differences, max_degree, max_coeff):
        polys = paradox.enumerate_polys(max_degree, max_coeff)
        padded = [p + (0,) * (max_degree + 1 - len(p)) for p in polys]
        boxes = [[sign * c for c in d] for d in differences]
        return bytes(
            any(all(max(0, c) <= a <= max_coeff + min(0, c) for a, c in zip(p, d)) for d in boxes) for p in padded
        )

    monkeypatch.setattr(paradox, "_realising_points", one_sign)
    detail = _smp_verify_invariant_failure(report_schema, "--deg", "12", "--coef", "1")
    assert re.fullmatch(
        r"the closest-pair sweep's distance 0\.567\d* and the least difference 0\.0006681\d* "
        r"differ by more than their slack \S+",
        detail,
    )


@pytest.mark.parametrize("kept", [0, 1])
def test_smp_verify_fails_closed_with_fewer_than_two_swept_points(monkeypatch, report_schema, kept):
    # the sweep of fewer than two points returns inf and no pair (-1, -1), which is never decoded
    realising = paradox._realising_points

    def fewer(differences, max_degree, max_coeff):
        swept = realising(differences, max_degree, max_coeff)
        first = swept.index(1)
        return bytes(first) + b"\x01" * kept + bytes(len(swept) - first - kept)

    monkeypatch.setattr(paradox, "_realising_points", fewer)
    detail = _smp_verify_invariant_failure(report_schema, "--deg", "3", "--coef", "2")
    assert re.fullmatch(
        r"the closest-pair sweep's distance inf and the least difference 0\.07728\d* "
        r"differ by more than their slack \S+",
        detail,
    )


def _defect_bound(result):
    [finding] = [f for f in result.report["details"]["findings"] if f["name"] == "defect_bound"]
    return finding["ok"]


def test_density_defect_bound_fails_on_a_defect_above_it(monkeypatch):
    # A shift defect of 3/n returned without a raise is above the 2/n bound.
    monkeypatch.setattr(measures, "shift_defect", lambda w: Fraction(3, w.n))
    result = run_cli("measures", "demo", "--which", "density")
    assert result.code == 1
    assert _defect_bound(result) is False


def test_ergodic_defect_bound_fails_on_a_defect_above_it(monkeypatch):
    # An invariance defect of (2 sup|f| + 1) / n returned without a raise is above the 2 sup|f| / n bound.
    real = measures.ergodic_average

    def unbounded(alpha, x0, f, n):
        value, _ = real(alpha, x0, f, n)
        return value, (2 * max(abs(v) for v in f.values) + 1) / n

    monkeypatch.setattr(measures, "ergodic_average", unbounded)
    result = run_cli("measures", "demo", "--which", "ergodic")
    assert result.code == 1
    assert _defect_bound(result) is False


# A one-line fault per finding, each making that finding of a passing command false and no other.
FALSIFIERS = [
    pytest.param(
        ("measures", "demo", "--which", "density"),
        # a window counted over (0, n] in place of [0, n): the evens in 1..10 are 4 of 10
        lambda mp: mp.setattr(measures, "density_measure", lambda w: Fraction(sum(0 < a <= w.n for a in w.points), w.n)),
        "evens_density",
        id="evens_density",
    ),
    pytest.param(
        ("measures", "demo", "--which", "density"),
        # a shift that moves no point has no defect, not the block's 1/10
        lambda mp: mp.setattr(measures, "shift_defect", lambda w: Fraction(0)),
        "block_defect",
        id="block_defect",
    ),
    pytest.param(
        ("measures", "demo", "--which", "ergodic"),
        # one step too many: the orbit 0, 1/3, 2/3, 0 meets [0, 1/3) twice in four
        lambda mp, real=measures.ergodic_average: mp.setattr(
            measures, "ergodic_average", lambda alpha, x0, f, n: real(alpha, x0, f, n + 1)
        ),
        "third_orbit",
        id="third_orbit",
    ),
    pytest.param(
        ("measures", "demo", "--which", "ergodic"),
        # a constant function built at twice its value averages 2, not 1
        lambda mp: mp.setattr(measures.PiecewiseConstant, "constant", classmethod(lambda cls, v: cls.of([0], [2 * v]))),
        "constant_function",
        id="constant_function",
    ),
    pytest.param(
        ("freeness", "certify"),
        # a certificate without its transitions is not closed, and the independent checker rejects it
        lambda mp, real=freeness.build_any_certificate: mp.setattr(
            freeness, "build_any_certificate", lambda: dataclasses.replace(real(), transitions={})
        ),
        "certificate_verified",
        id="certificate_verified",
    ),
    pytest.param(
        ("sphere", "absorb", "--depth", "2", "--iters", "3"),
        # the same rotation with no certified margin; the demo alone still passes
        lambda mp, real=sphere.find_absorbing_rotation_adaptive: mp.setattr(
            sphere, "find_absorbing_rotation_adaptive", lambda *a, **k: dataclasses.replace(real(*a, **k), margin=0.0)
        ),
        "rotation_certified",
        id="rotation_certified",
    ),
    pytest.param(
        ("cauchy", "demo", "--rank", "2"),
        # a search that finds no witness at rank 2
        lambda mp: mp.setattr(cauchy, "nonproportionality_witness", lambda f: None),
        "nonproportional",
        id="nonproportional",
    ),
    pytest.param(
        ("measures", "demo", "--which", "finite-group"),
        # element 0 weighs twice the rest: a probability on the cyclic group that translation moves
        lambda mp: mp.setattr(
            measures,
            "uniform_group_measure",
            lambda G: measures.PointMeasure(
                frozenset(G.elements), {e: Fraction(2 if e == 0 else 1, len(G) + 1) for e in G.elements}
            ),
        ),
        "cyclic6_two_sided_invariance",
        id="cyclic6_two_sided_invariance",
    ),
]


@pytest.mark.parametrize("argv,fault,name", FALSIFIERS)
def test_a_one_line_fault_makes_the_finding_false(monkeypatch, report_schema, argv, fault, name):
    assert run_cli(*argv).code == 0
    fault(monkeypatch)
    result = run_cli(*argv)
    assert result.code == 1
    jsonschema.validate(result.report, report_schema)
    assert result.report["outcome"] == "fail"
    assert [f["name"] for f in result.report["details"]["findings"] if not f["ok"]] == [name]


def test_an_orbit_map_that_is_not_injective_makes_the_sigma_findings_false(monkeypatch, report_schema):
    # sigma_additive and sigma_right_invariant have no FALSIFIERS row: no fault makes either false
    # alone.  The preconditions validate the group and read freeness from the action's table, so
    # both findings rest on apply's orbit maps g -> g.x being injective.  f over a disjoint union is
    # the pointwise sum exactly then, which is also what f_G = 1 of sigma_total_mass says, and right
    # invariance follows from it.  An apply that fixes (2, 1), a point of the three-orbit action
    # only, breaks that fact at one point and fails the three findings that rest on it.
    argv = ("measures", "demo", "--which", "induced-measure")
    assert run_cli(*argv).code == 0
    real = measures.GroupAction.apply
    monkeypatch.setattr(measures.GroupAction, "apply", lambda self, g, x: x if x == (2, 1) else real(self, g, x))
    result = run_cli(*argv)
    assert result.code == 1
    jsonschema.validate(result.report, report_schema)
    assert [f["name"] for f in result.report["details"]["findings"] if not f["ok"]] == [
        "three_orbit_sigma_additive",
        "three_orbit_sigma_total_mass",
        "three_orbit_sigma_right_invariant",
    ]


# -- usage errors ------------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        (),
        ("words",),
        ("words", "verify"),
        ("words", "verify", "--depth", "0"),
        ("words", "verify", "--depth", "x"),
        ("nonsense",),
        ("measures", "demo", "--which", "nope"),
        ("freeness", "certify", "--base", "1,2"),
        ("smp", "verify", "--deg", "2", "--coef", "1", "--bits", "32"),
        ("sphere", "absorb", "--depth", "1", "--iters", "2", "--bits", "2"),
        pytest.param(("smp", "verify", "--deg", "20", "--coef", "3"), id="smp verify past the point cap"),
        pytest.param(("smp", "verify", "--deg", "1000000000", "--coef", "3"), id="smp verify far past the point cap"),
        pytest.param(("smp", "verify", "--deg", "1", "--coef", "1", "--bits", "1025"), id="smp verify past the bits cap"),
        pytest.param(
            ("sphere", "absorb", "--depth", "1", "--iters", "2", "--bits", "1025"), id="sphere absorb past the bits cap"
        ),
        pytest.param(("cauchy", "demo", "--rank", str(cauchy.MAX_RANK + 1)), id="cauchy demo past the rank cap"),
        # Depth 1 has two fixed directions, so iters + 1 layers make 2 * (iters + 1) points.
        pytest.param(
            ("sphere", "absorb", "--depth", "1", "--iters", str(sphere.ABSORB_POINT_CAP // 2)),
            id="sphere absorb past the point cap",
        ),
        pytest.param(("sphere", "absorb", "--depth", "6", "--iters", "4"), id="sphere absorb at depth 6 past the point cap"),
        # 2,000 points, under the point cap, but 2 * 1000^2 is past the pair cap.
        pytest.param(("sphere", "absorb", "--depth", "1", "--iters", "999"), id="sphere absorb past the pair cap"),
        pytest.param(
            ("smp", "verify", "--deg", "8", "--coef", "3", "--bits", "1024"), id="smp verify past the point cap at 1024 bits"
        ),
        pytest.param(("sphere", "fixed-points", "--depth", "13"), id="sphere fixed-points past the depth cap"),
    ],
)
def test_usage_errors_exit_64(argv):
    result = run_cli(*argv)
    assert result.code == 64
    assert result.stdout == b""


# -- parser shape -------------------------------------------------------------

# The argparse tree as data, recorded before the parser was built from a
# command table: each argument as (flags, dest, default, required, choices,
# help).  Structure, not rendered --help text, which varies across Pythons.
HELP = (["-h", "--help"], "help", argparse.SUPPRESS, False, None, "show this help message and exit")
COMMON = [
    HELP,
    (["--seed"], "seed", 0, False, None, "seed for randomized audits (default 0)"),
    (["--timing"], "timing", False, False, None, "fill timing_ms in the report"),
]
DEPTH = (["--depth"], "depth", None, True, None, None)
BITS = (["--bits"], "bits", 128, False, None, None)
GROUPS = [
    ("words", "reduced-word decomposition checks"),
    ("freeness", "freeness of the rotation pair"),
    ("sphere", "fixed directions and absorbing rotations"),
    ("smp", "planar two-piece paradox"),
    ("measures", "finitely additive measure demos"),
    ("paradox", "contradiction chain on a finite witness"),
    ("cauchy", "additive non-linear maps"),
]
SUBCOMMANDS = [
    ("words", "verify", "_run_words_verify", [DEPTH]),
    ("freeness", "exhaustive", "_run_freeness_exhaustive", [DEPTH]),
    ("freeness", "certify", "_run_freeness_certify", [(["--base"], "base", None, False, None, "base vector, like 0,1,0")]),
    ("sphere", "fixed-points", "_run_sphere_fixed_points", [DEPTH]),
    ("sphere", "absorb", "_run_sphere_absorb", [DEPTH, (["--iters"], "iters", None, True, None, None), BITS]),
    (
        "smp",
        "verify",
        "_run_smp_verify",
        [(["--deg"], "deg", None, True, None, None), (["--coef"], "coef", None, True, None, None), BITS],
    ),
    (
        "measures",
        "demo",
        "_run_measures_demo",
        [(["--which"], "which", None, True, ["density", "ergodic", "finite-group", "induced-measure"], None)],
    ),
    (
        "paradox",
        "contradiction",
        "_run_paradox_contradiction",
        [(["--input"], "input", None, True, None, "JSON file with model, witness, and measure")],
    ),
    ("cauchy", "demo", "_run_cauchy_demo", [(["--rank"], "rank", None, True, None, None)]),
]


def _arguments(parser):
    return [
        (a.option_strings, a.dest, a.default, a.required, a.choices, a.help)
        for a in parser._actions
        if not isinstance(a, argparse._SubParsersAction)
    ]


def _subparsers(parser):
    [action] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    helps = [(a.dest, a.help) for a in action._choices_actions]
    return action.dest, action.required, helps, action.choices


def test_parser_shape_is_pinned():
    parser = cli.build_parser()
    assert parser.prog == "paradoxlab"
    assert parser.description == "Command-line front door: each subcommand runs one verification and emits one JSON report."
    assert (_arguments(parser), parser._defaults) == ([HELP], {})
    dest, required, helps, groups = _subparsers(parser)
    assert (dest, required, helps) == ("group", True, GROUPS)
    assert list(groups) == [group for group, _ in GROUPS]
    found = []
    for group, group_parser in groups.items():
        assert (_arguments(group_parser), group_parser._defaults) == ([HELP], {})
        dest, required, helps, actions = _subparsers(group_parser)
        assert (dest, required, helps) == ("action", True, [])
        for action, sub in actions.items():
            assert _arguments(sub)[:3] == COMMON
            assert sub._defaults.keys() == {"handler", "command"}
            assert sub._defaults["command"] == f"{group} {action}"
            found.append((group, action, sub._defaults["handler"].__name__, _arguments(sub)[3:]))
    assert found == SUBCOMMANDS


def test_sphere_absorb_refuses_before_the_deep_balls(monkeypatch):
    # With two layers, ball(7)'s 2,106 directions make 4,212 points, past the
    # point cap, so ball(14) (9,565,937 words) is never walked.
    depths = []
    fixed_directions = sphere.fixed_directions

    def recording(depth):
        depths.append(depth)
        return fixed_directions(depth)

    monkeypatch.setattr(sphere, "fixed_directions", recording)
    result = run_cli("sphere", "absorb", "--depth", "14", "--iters", "1")
    assert (result.code, result.stdout) == (64, b"")
    assert depths == list(range(1, 8))
    assert "the 2106 directions of ball(7)" in result.stderr


def test_sphere_fixed_points_refuses_before_walking_the_ball(monkeypatch):
    walked = []
    monkeypatch.setattr(sphere, "ball_matrices", lambda depth: walked.append(depth) or iter(()))
    result = run_cli("sphere", "fixed-points", "--depth", str(sphere.FIXED_DIRECTIONS_DEPTH_CAP + 1))
    assert (result.code, result.stdout) == (64, b"")
    assert walked == []
    assert "exceeds the configured cap 12" in result.stderr


def test_unreadable_input_exits_64(tmp_path):
    result = run_cli("paradox", "contradiction", "--input", str(tmp_path / "absent.json"))
    assert result.code == 64
    assert "absent.json" in result.stderr

    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    result = run_cli("paradox", "contradiction", "--input", str(garbled))
    assert result.code == 64

    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps({"schema": "other-v9"}))
    result = run_cli("paradox", "contradiction", "--input", str(wrong))
    assert result.code == 64
    assert "other-v9" in result.stderr

    # Inputs that parse but describe a broken model are usage errors too.
    data = json.loads(_shift_input(tmp_path).read_text())
    s0 = data["maps"]["s0"]
    first, second = sorted(s0)[:2]
    s0[second] = s0[first]
    collapsed = tmp_path / "collapsed.json"
    collapsed.write_text(json.dumps(data))
    result = run_cli("paradox", "contradiction", "--input", str(collapsed))
    assert (result.code, result.stdout) == (64, b"")
    assert "collapsed.json" in result.stderr and "not injective" in result.stderr

    data = json.loads(_shift_input(tmp_path).read_text())
    data["witness"]["movers_a"] = ["nope"]
    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps(data))
    result = run_cli("paradox", "contradiction", "--input", str(unknown))
    assert (result.code, result.stdout) == (64, b"")
    assert "unknown.json" in result.stderr and "'nope'" in result.stderr

    # JSON shapes the model cannot be built from name the field at fault.
    def list_map_value(d):
        d["maps"]["s0"][sorted(d["maps"]["s0"])[0]] = ["x"]

    def list_mover(d):
        d["witness"]["movers_a"][0] = ["s0"]

    def list_identity(d):
        d["identity"] = ["e"]

    def list_map(d):
        d["maps"]["s0"] = ["x", "y"]

    # bool("false") is True, so only JSON booleans may say false.
    def string_invariant(d):
        d["invariant"] = "false"

    def string_partial(d):
        d["partial"] = "false"

    def list_weights(d):
        d["nu"]["weights"] = sorted(d["nu"]["weights"])

    # JSON numbers would reach Fraction() unchecked: a float as its binary value, true as 1.
    def float_weight(d):
        d["nu"]["weights"][sorted(d["nu"]["weights"])[0]] = 1 / 31

    def true_weight(d):
        d["nu"]["weights"][sorted(d["nu"]["weights"])[0]] = True

    # A corruption that returns a value replaces the whole input with it.  A
    # list or string holding the keys passes an `in` test but not indexing.
    def array_input(d):
        return list(d)

    def string_witness(d):
        d["witness"] = " ".join(d["witness"])

    def zero_denominator_weight(d):
        d["nu"]["weights"][sorted(d["nu"]["weights"])[0]] = "1/0"

    for i, (corrupt, field) in enumerate(
        (
            (list_map_value, "maps['s0']"),
            (list_mover, "movers_a"),
            (list_identity, "identity"),
            (list_map, "maps['s0']"),
            (string_invariant, "invariant"),
            (string_partial, "partial"),
            (list_weights, "nu weights"),
            (float_weight, "nu weights"),
            (true_weight, "nu weights"),
            (array_input, "contradiction input"),
            (string_witness, "witness"),
            (zero_denominator_weight, "nu weights"),
        )
    ):
        data = json.loads(_shift_input(tmp_path).read_text())
        data = corrupt(data) or data
        path = tmp_path / f"shape{i}.json"
        path.write_text(json.dumps(data))
        result = run_cli("paradox", "contradiction", "--input", str(path))
        assert (result.code, result.stdout) == (64, b""), corrupt.__name__
        assert path.name in result.stderr and field in result.stderr, corrupt.__name__


def test_an_empty_string_point_is_named_in_usage_errors(tmp_path):
    # The shift toy's root is the empty string: it reads as '', not as nothing.
    data = json.loads(_shift_input(tmp_path).read_text())
    data["space"] = ["0", "1"]
    path = tmp_path / "outside.json"
    path.write_text(json.dumps(data))
    result = run_cli("paradox", "contradiction", "--input", str(path))
    assert (result.code, result.stdout) == (64, b"")
    assert "weight on '' outside the universe" in result.stderr


# -- determinism and timing --------------------------------------------------


def test_reports_are_byte_identical():
    first = run_cli("words", "verify", "--depth", "3")
    second = run_cli("words", "verify", "--depth", "3")
    assert first.stdout == second.stdout


# sha256 of the stdout of `smp verify ... --seed 1`.  The first three were
# recorded before the numeric half of smp_verify moved to raw libmp tuples
# with shared prefixes; the next two (the benchmark size, and magnitudes up
# to 400) before it moved from libmp to the fixed-point integer kernel; the
# deg 8 pin (the target size) before the symbolic half moved to the
# closed-form index maps and the closest-pair sweep was reworked; the 1024-bit
# pin, the first whose grid 2048 > 1022 takes the float conversion's exact
# int division, before polynomials became plain coefficient tuples; the deg 12
# coef 1 pin (0/1 coefficients, so many equal coordinates for the sweep's ties)
# and the deg 2 coef 15 pin (wide coefficients) before the numeric half moved to
# float arrays, an index-order sweep and decoded min-pair polynomials.
SMP_VERIFY_DIGESTS = [
    (("--deg", "3", "--coef", "2"), "2451ed29de6179309580ee19a03ac0f7ed630f2bc8695c862808ce0f4211fd97"),
    (("--deg", "6", "--coef", "3"), "0763d6911bd90d46f1a3d63ae4096bb6a99140d1c6aec7f695a921d927a9e145"),
    (("--deg", "6", "--coef", "3", "--bits", "64"), "6a0f6e23b36a77354b96faf3e0ed03ade6d33b70fb08ff655644d2a6a6f845a0"),
    (("--deg", "7", "--coef", "3"), "32347b54a3352b276eee8e7af78448c7c9751e01f5f12ff10659b4834ab14b60"),
    (("--deg", "1", "--coef", "200"), "77592d2a8ca120735e5f6c0b20916000a3406aaa97072ab5700d15182b53c1df"),
    (("--deg", "8", "--coef", "3"), "53fd63a2a9b21c7e3c96c41817dc07966440a39f7b907fe6a4c5c378dc6d5c15"),
    (("--deg", "4", "--coef", "3", "--bits", "1024"), "63e0f4b9c396f548bc2b151a104a850e4f16571bbfd3e0948a79550b64fa307f"),
    (("--deg", "12", "--coef", "1"), "28f030cb76a6ee6d330241522c4d2b1110e7e1cb7aae201aeb192e92f7ae83ae"),
    (("--deg", "2", "--coef", "15"), "a9816a120e034ac41f5564ced4a9d182f339ff5b20bc2d973eaa32b6a5676189"),
]


@pytest.mark.parametrize("args,digest", SMP_VERIFY_DIGESTS, ids=[" ".join(a) for a, _ in SMP_VERIFY_DIGESTS])
def test_smp_verify_report_bytes_are_pinned(args, digest):
    result = run_cli("smp", "verify", *args, "--seed", "1")
    assert result.code == 0
    assert hashlib.sha256(result.stdout).hexdigest() == digest


# sha256 of the stdout of `sphere absorb ... --seed 1`, recorded before the
# search and demo compared only pairs of nearby latitude
SPHERE_ABSORB_DIGESTS = [
    (("--depth", "1", "--iters", "2"), "87dabf9cac77dc99ad2168496260692c6b5f9624b392429f3c5305c0e1267488"),
    (("--depth", "1", "--iters", "3"), "d50a0ce6f78628d263a5088f8c27c6393b414fc5ad3822e5fd6b794ee3c738bc"),
    (("--depth", "1", "--iters", "5"), "d8e8e0609ae6ca53750fc95498b5a610f2919e8c8c0c1a6e8548383260d8ba81"),
    (("--depth", "2", "--iters", "2"), "2d92596a7f9a84399314c42ca09730c84b10e9ed6911c6be54d4e47c7939f991"),
    (("--depth", "2", "--iters", "3"), "b2e812094f99ce9d24ec6194e5cf7e5c5d861850890c96bec090b9ed5a92b8c7"),
    (("--depth", "2", "--iters", "5"), "67cbe047d43855dfad6e4b5c63c2f0b46cb270e2b1236b362add2d1904685478"),
    (("--depth", "4", "--iters", "2"), "3f29825a2def8ecda21c01b1733a3665fe452438c0ef991845eaadc2ae5a3354"),
    (("--depth", "4", "--iters", "3"), "b9b837625fa27094c0a74803fcefd37075a7c4af574580ae3eb15d2158fd7bf4"),
    (("--depth", "4", "--iters", "5"), "0a87099d96036a0a662a8975654199f8e2f3c0e17f523ff897b2d2d7b2aeada0"),
]


@pytest.mark.parametrize("args,digest", SPHERE_ABSORB_DIGESTS, ids=[" ".join(a) for a, _ in SPHERE_ABSORB_DIGESTS])
def test_sphere_absorb_report_bytes_are_pinned(args, digest):
    result = run_cli("sphere", "absorb", *args, "--seed", "1")
    assert result.code == 0
    assert hashlib.sha256(result.stdout).hexdigest() == digest


# sha256 of the stdout of each command with `--seed 1`, recorded at commit
# e3571bf, before the word, fixed-direction and chain layers moved from
# ReducedWord objects, kernel bases and Fraction sums to letter tuples,
# cross-product axes and per-denominator sums over the support.  The
# fixed-points report carries each direction's witness word.
EXACT_LAYER_DIGESTS = [
    (("words", "verify", "--depth", "8"), "f93b272fcd104460d26b838e869c60728a003e63d6819c851e5a873f77779646"),
    (("freeness", "exhaustive", "--depth", "8"), "874c791f3462481fc823f3448742df47091dac4a7762bc613b72b4c6e864cb24"),
    (("sphere", "fixed-points", "--depth", "5"), "3a58074a2183c81fa7cd154c23544c3e6cb82c8315db288cd9233bbbb62ea468"),
    # The rest of the scoreboard, recorded at commit 0c1f0a3, before the
    # Boolean-algebra tables were deleted from measures.py.
    (("measures", "demo", "--which", "finite-group"), "a72e450ac8a3af5ffd1c5533b7bf3a282652b731fde2b7a1206992f5e970ed5f"),
    (("measures", "demo", "--which", "density"), "122b3999b48669f9ec3ff4afb6c691f453fec6a19f011a796418c7a9386e2635"),
    (("measures", "demo", "--which", "induced-measure"), "c27c00521ec2bf02243b573cc776c66b69954eb8360524f389e4f250856d90ff"),
    (("measures", "demo", "--which", "ergodic"), "4e5fdf4f8854d0970cf32fdba0fda5487b807a883880ad0a522e5e609a0acf96"),
    (("freeness", "certify"), "c58ee093de7493fa2e085b5fd2663d152ee2fbbd44bdf093507c290a32397ab2"),
    (("cauchy", "demo", "--rank", "2"), "bff599d0dfde9164ac5cd3186a91aad3d595a69319f4af37ebbc6b9bc58e757e"),
    # Recorded at commit 914f61b, before exhaustive_check stopped multiplying
    # out ball(depth) and tested the matrices of ball(ceil(depth/2)) instead.
    (("freeness", "exhaustive", "--depth", "9"), "1874183a9905aa10aef4789195fbf0eeb91f740fa67775868276deaa68f704ad"),
    (("freeness", "exhaustive", "--depth", "11"), "84787f8f506f3917f17fc7513f647ed386690cae8faa8995d1f0f3b72174ead7"),
    (("freeness", "exhaustive", "--depth", "12"), "d58707ca440d7f595cdbde403ab3d9e34b68901f872f72ae68fed434239f5c69"),
    # Recorded at commit ed0b44c, before the ball and the covering check moved
    # from the per-word walk to level lists.
    (("words", "verify", "--depth", "10"), "7b46f014f6ffc65e3198fc940049e2fbcc28957e1b4492ec2cbdd7708643b1e4"),
    (("words", "verify", "--depth", "11"), "6c7773c164b026a664ec896dcfd3915ff33178e375020a8e8813e9504ee1ea5f"),
    # The base cases of the verifier's induction, recorded at commit 0baadb7,
    # before it checked reducedness in place of the covering identities.
    (("words", "verify", "--depth", "1"), "b568cdebe95b7f27a1f3e669ebb5a15a46f5a975578b97de5996f5a6aa639988"),
    (("words", "verify", "--depth", "2"), "f318bbce39087ff94048ca049948e9ced872fbf231661ff328504cbc32aa8a1f"),
]


@pytest.mark.parametrize("argv,digest", EXACT_LAYER_DIGESTS, ids=[" ".join(a) for a, _ in EXACT_LAYER_DIGESTS])
def test_exact_layer_report_bytes_are_pinned(argv, digest):
    result = run_cli(*argv, "--seed", "1")
    assert result.code == 0
    assert hashlib.sha256(result.stdout).hexdigest() == digest


# sha256 of the stdout of the Fraction-bound demos at more seeds and ranks,
# recorded at commit 38e0fa2, before ergodic_average, AdditiveMap.eval and
# PointMeasure.mu moved to integer numerators over one common denominator.
# The --seed 1 reports of the two measures demos are pinned above.
DEMO_DIGESTS = [
    (("measures", "demo", "--which", "ergodic", "--seed", "7"), "d97f4b8d37576c6533d1ec7e64f72f4bb00576318ec87a6d2ef4311b195c3766"),
    (("measures", "demo", "--which", "finite-group", "--seed", "7"), "65694604d937de609a37ce71caf216ce0dae8219c5129b3ffcd4f07a92d4cc68"),
    (("cauchy", "demo", "--rank", "2", "--seed", "7"), "c2cdd44c1f7956c7f2eccd2ffd9b9323256e0c523ead2caba1ffe637c380fef4"),
    (("cauchy", "demo", "--rank", "50"), "2710357ffb7f857ac35a70c272d23c2ba11feccff9f8a3694f3dbda8d3f8db87"),
]


@pytest.mark.parametrize("argv,digest", DEMO_DIGESTS, ids=[" ".join(a) for a, _ in DEMO_DIGESTS])
def test_demo_report_bytes_are_pinned(argv, digest):
    result = run_cli(*argv)
    assert result.code == 0
    assert hashlib.sha256(result.stdout).hexdigest() == digest


# Recorded with the other exact-layer pins.
SHIFT_CONTRADICTION_DIGEST = "8d7c9e2bafbc752507dcba94f881814426182c71cee0a8efbfdb91512bc6b685"


def test_paradox_contradiction_report_bytes_are_pinned(tmp_path, monkeypatch):
    # The input path is a report parameter, so run from its directory.
    path = _shift_input(tmp_path)
    monkeypatch.chdir(tmp_path)
    result = run_cli("paradox", "contradiction", "--input", path.name, "--seed", "1")
    assert result.code == 0
    assert hashlib.sha256(result.stdout).hexdigest() == SHIFT_CONTRADICTION_DIGEST



# sha256 of repr(report) for the contradiction chain on f2_ball_model(5), with
# the shipped interior: the uniform measure and a Dirac measure at each word
# below, each with invariant True and False.  Recorded at commit dc8556c,
# before the chain moved from point sets to bitsets over an interned index.
CHAIN_REPORT_DIGESTS = [
    (None, True, "a7bbfb67b9e3d4ca6832312e4dbc010b63ba91574aec42ba18225211a6a6941f"),
    (None, False, "744264a071aba7b8218ff34444082d4dff713897343ad8ba4e7e17302c47d37b"),
    ("", True, "27e5b4ba2034faf69559cee8a248236c2d39201bba2bd4039e00c37ff625147f"),
    ("", False, "0957d0c8fb12388c34440f5a1ddf999702756c49298fcb481f24594fc73fd2d2"),
    ("a", True, "e648f0940b0c75b4ad6d83e58191ab3a4197ad0fc0ebd87f3e9a1302bd0498fe"),
    ("a", False, "9ca336baa84e95a2d3a1f6c07514dd800eb06536cde4f3975f5c7fa0e065ca42"),
    ("A", True, "e648f0940b0c75b4ad6d83e58191ab3a4197ad0fc0ebd87f3e9a1302bd0498fe"),
    ("A", False, "9ca336baa84e95a2d3a1f6c07514dd800eb06536cde4f3975f5c7fa0e065ca42"),
    ("abAB", True, "e648f0940b0c75b4ad6d83e58191ab3a4197ad0fc0ebd87f3e9a1302bd0498fe"),
    ("abAB", False, "9ca336baa84e95a2d3a1f6c07514dd800eb06536cde4f3975f5c7fa0e065ca42"),
    ("aBaBa", True, "4dcbd71ef5bcc1b5433a08616840cad1d262f1010f40fcc3139104bfc6eb831b"),
    ("aBaBa", False, "e9e6dedb0904ee6264d5ee230a3eea10818951a41592f7d02e742a2ae7d7fca6"),
    ("BABAB", True, "1e66f81f68e3260a0112073fe8daaab9ec36eb2fe1d857d2ff4213de197b58c3"),
    ("BABAB", False, "285118055004187524b1f80782f5f687de7790e8482f4a64ee5d017d63ddd30f"),
]


def test_chain_reports_on_the_depth_5_ball_are_pinned():
    model, space, witness, interior = paradox.f2_ball_model(5)
    for at, invariant, digest in CHAIN_REPORT_DIGESTS:
        if at is None:
            nu = measures.PointMeasure.uniform(space)
        else:
            nu = measures.PointMeasure.dirac(space, ReducedWord.from_string(at))
        report = measures.paradox_contradiction(model, space, witness, nu, invariant, interior=interior)
        assert hashlib.sha256(repr(report).encode()).hexdigest() == digest, (at, invariant)

def test_sphere_absorb_at_depth_6_passes(report_schema):
    result = run_cli("sphere", "absorb", "--depth", "6", "--iters", "3")
    assert result.code == 0
    report = result.report
    jsonschema.validate(report, report_schema)
    assert report["outcome"] == "pass"
    assert report["details"]["demo"]["n_points"] == 4 * 666


def test_seeded_demo_is_deterministic():
    first = run_cli("measures", "demo", "--which", "induced-measure", "--seed", "9")
    second = run_cli("measures", "demo", "--which", "induced-measure", "--seed", "9")
    assert first.stdout == second.stdout


# -- the same bytes under every hash seed ----------------------------------------
#
# A word's letters are bytes, whose hash is salted per process where a tuple
# of ints hashes the same everywhere, so a set of words iterates in another
# order under each PYTHONHASHSEED.  No report may depend on that order.

#: The pinned sha256 of each run's report, from the pins above.
HASH_SEED_DIGESTS = {
    **dict(EXACT_LAYER_DIGESTS),
    **{("sphere", "absorb", *args): digest for args, digest in SPHERE_ABSORB_DIGESTS},
    ("paradox", "contradiction", "--input", "shift.json"): SHIFT_CONTRADICTION_DIGEST,
}


def _run_under_hash_seed(args, hash_seed, cwd):
    pythonpath = os.pathsep.join(filter(None, [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": pythonpath, "PYTHONHASHSEED": str(hash_seed)}
    proc = subprocess.run([sys.executable, *args], capture_output=True, cwd=cwd, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


HASH_SEED_ARGVS = [
    ("words", "verify", "--depth", "8"),
    ("freeness", "exhaustive", "--depth", "8"),
    ("freeness", "certify"),
    ("sphere", "fixed-points", "--depth", "5"),
    ("sphere", "absorb", "--depth", "2", "--iters", "5"),
    ("paradox", "contradiction", "--input", "shift.json"),
]


@pytest.mark.parametrize("argv", HASH_SEED_ARGVS, ids=[" ".join(a[:2]) for a in HASH_SEED_ARGVS])
def test_reports_are_the_same_under_every_hash_seed(tmp_path, argv):
    _shift_input(tmp_path)  # shift.json, read by the contradiction run
    args = ("-m", "paradoxlab", *argv, "--seed", "1")
    outputs = {_run_under_hash_seed(args, hash_seed, tmp_path) for hash_seed in (1, 2)}
    assert len(outputs) == 1
    assert hashlib.sha256(outputs.pop()).hexdigest() == HASH_SEED_DIGESTS[argv]


def test_the_chain_on_the_depth_5_ball_is_the_same_under_every_hash_seed(tmp_path):
    # f2_ball_model's point set is a frozenset of words, which numbers the
    # chain's bitsets; the report must not show that numbering.
    script = (
        "from paradoxlab import measures, paradox\n"
        "model, space, witness, interior = paradox.f2_ball_model(5)\n"
        "nu = measures.PointMeasure.uniform(space)\n"
        "print(repr(measures.paradox_contradiction(model, space, witness, nu, False, interior=interior)), end='')\n"
    )
    outputs = {_run_under_hash_seed(("-c", script), hash_seed, tmp_path) for hash_seed in (1, 2)}
    assert len(outputs) == 1
    uniform_not_invariant = next(d for at, invariant, d in CHAIN_REPORT_DIGESTS if at is None and not invariant)
    assert hashlib.sha256(outputs.pop()).hexdigest() == uniform_not_invariant


def test_timing_flag_fills_timing_ms(report_schema):
    result = run_cli("words", "verify", "--depth", "2", "--timing")
    report = result.report
    jsonschema.validate(report, report_schema)
    assert isinstance(report["timing_ms"], int)
    assert report["timing_ms"] >= 0


def test_parameters_recorded():
    report = run_cli("smp", "verify", "--deg", "3", "--coef", "2").report
    assert report["parameters"] == {"bits": 128, "coef": 2, "deg": 3, "seed": 0}


# -- the installed entry points ----------------------------------------------


def test_console_script_runs():
    proc = subprocess.run(
        ["paradoxlab", "words", "verify", "--depth", "2"],
        capture_output=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["outcome"] == "pass"


def test_module_invocation_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "paradoxlab", "words", "verify", "--depth", "2"],
        capture_output=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["outcome"] == "pass"
