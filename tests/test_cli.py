import argparse
import contextlib
import inspect
import io
import json
import os
import random
import re
import subprocess
import sys
import time

import pytest

import bigrade
from bigrade import cli, homology
from bigrade.cli import main
from bigrade.errors import ParseError
from test_acceptance import EIGHT_GEN


# one success run of each subcommand; "{sample}" stands for the EIGHT_GEN file
COMMANDS = [
    ("analyze", "{sample}"),
    ("decompose", "{sample}"),
    ("filtration", "{sample}"),
    ("seqcm", "{sample}"),
    ("lc", "{sample}", "--i", "1"),
    ("gencm", "{sample}"),
    ("growth", "{sample}", "--i", "1", "--radii", "1,2"),
    ("hypersurface", "--factors", "(1,1) (0,2)", "--ring", "2", "2"),
    ("crosscheck", "--monomial", "x1*y1", "--ring", "2", "2"),
    ("suite", "--count", "3", "--seed", "7"),
    ("render", "{sample}"),
]
AXIS_COMMANDS = ("analyze", "filtration", "seqcm", "lc", "gencm", "growth")


@pytest.fixture
def sample_file(tmp_path):
    p = tmp_path / "sample.ideal"
    p.write_text(EIGHT_GEN)
    return str(p)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_analyze(sample_file, capsys):
    code, out = run_cli(capsys, "analyze", sample_file)
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert (doc["grade"], doc["mgrade"], doc["cd"], doc["dim"]) == (1, 1, 2, 3)
    assert doc["maximal_depth"] is True
    assert doc["witness_prime"] == ["x1", "y1", "y3", "y4"]


def test_analyze_axis_all(sample_file, capsys):
    code, out = run_cli(capsys, "analyze", sample_file, "--axis", "all")
    assert code == 0
    doc = json.loads(out)
    assert doc["axis"] == "all"
    assert doc["grade"] <= doc["cd"]


def test_decompose(sample_file, capsys):
    code, out = run_cli(capsys, "decompose", sample_file)
    doc = json.loads(out)
    assert code == 0
    assert doc["associated_primes"] == [
        ["x1", "y1", "y2"],
        ["x1", "y1", "y3", "y4"],
        ["x2", "y3", "y4"],
    ]


def test_filtration_and_seqcm(sample_file, capsys):
    code, out = run_cli(capsys, "filtration", sample_file)
    doc = json.loads(out)
    assert code == 0 and doc["cd_values"] == [1, 2]

    code, out = run_cli(capsys, "seqcm", sample_file)
    doc = json.loads(out)
    assert code == 0 and doc["verdict"] is False


def test_lc_and_growth(sample_file, capsys):
    code, out = run_cli(capsys, "lc", sample_file, "--i", "1")
    doc = json.loads(out)
    assert code == 0 and doc["finitely_generated"] is False

    code, out = run_cli(capsys, "growth", sample_file, "--i", "1", "--radii", "1,2,3,4")
    doc = json.loads(out)
    assert code == 0 and doc["cumulative_dims"] == [3, 7, 13, 21]


def test_gencm(sample_file, capsys):
    code, out = run_cli(capsys, "gencm", sample_file)
    doc = json.loads(out)
    assert code == 0 and doc["verdict"] is False


def test_hypersurface_inline(capsys):
    code, out = run_cli(
        capsys, "hypersurface", "--factors", "(1,1)", "--ring", "2", "2"
    )
    doc = json.loads(out)
    assert code == 0
    assert doc["maximal_depth"] is False
    assert (doc["grade"], doc["mgrade"]) == (1, 2)


def test_inconsistent_hypersurface_verdict_exits_internal(capsys, monkeypatch):
    from bigrade.hypersurface import HypersurfaceVerdict

    monkeypatch.setattr(
        cli, "classify", lambda profile, ring: HypersurfaceVerdict(True, "none", 1, 1, "case5")
    )
    code, out = run_cli(capsys, "hypersurface", "--factors", "(1,1)", "--ring", "2", "2")
    assert code == 4
    assert json.loads(out)["error"] == "internal: inconsistent verdict fields"


def test_crosscheck(capsys):
    code, out = run_cli(
        capsys, "crosscheck", "--monomial", "x1*y1", "--ring", "2", "2"
    )
    doc = json.loads(out)
    assert code == 0 and doc["agrees"] is True


def test_render_canonical(tmp_path, capsys):
    p = tmp_path / "i.ideal"
    p.write_text("ring 1 2\ngens: y2*y1, x1, x1*y1\n")
    code, out = run_cli(capsys, "render", str(p))
    doc = json.loads(out)
    assert code == 0
    assert doc["canonical"] == "ring 1 2\ngens: y1*y2, x1\n"


def test_exit_code_parse_error(tmp_path, capsys):
    p = tmp_path / "bad.ideal"
    p.write_text("ring 1 1\nwat\n")
    code, out = run_cli(capsys, "analyze", str(p))
    assert code == 2
    assert "parse" in json.loads(out)["error"]

    code, out = run_cli(capsys, "analyze", str(tmp_path / "missing.ideal"))
    assert code == 2


@pytest.mark.parametrize(
    "text",
    [
        "ringx 1 1\ngens: x1\n",
        "ring 1 1\ngens: x1\nring 2 2\n",
        "ring 2 2\nring 1 1\ngens: x1\n",
        "ring 1 1\ngens: x1\ngens: y1\n",
    ],
)
def test_malformed_ring_lines_exit_2(tmp_path, capsys, text):
    p = tmp_path / "bad.ideal"
    p.write_text(text)
    code, out = run_cli(capsys, "render", str(p))
    assert code == 2
    assert json.loads(out)["error"].startswith("parse: ")


def test_exit_code_precondition(tmp_path, capsys):
    p = tmp_path / "unit.ideal"
    p.write_text("ring 1 1\ngens: 1\n")
    code, out = run_cli(capsys, "analyze", str(p))
    assert code == 3
    assert "precondition" in json.loads(out)["error"]


@pytest.mark.parametrize(
    "argv, code, error",
    [
        (
            ("hypersurface", "--factors", "(1,1)"),
            3,
            "precondition: the hypersurface classification needs m >= 1 and n >= 1",
        ),
        (("crosscheck", "--monomial", "1"), 3, "precondition: the constant monomial is not a hypersurface"),
        (("crosscheck", "--monomial", "x1"), 2, "parse: x1 out of range (m=0)"),
    ],
    ids=["hypersurface", "crosscheck-constant", "crosscheck-range"],
)
def test_the_point_ring_is_a_ring_whose_options_meet_their_own_rules(capsys, argv, code, error):
    # --ring 0 0 is K itself, a valid ring: a profile or monomial on it is
    # refused by the classification's and the monomial's own rules
    got, out = run_cli(capsys, *argv, "--ring", "0", "0")
    assert (got, json.loads(out)["error"]) == (code, error)


@pytest.mark.parametrize("command", ["growth", "gencm"])
def test_unit_ideal_is_a_precondition_error(tmp_path, capsys, command):
    p = tmp_path / "unit.ideal"
    p.write_text("ring 1 1\ngens: 1\n")
    argv = (command, str(p)) + (("--i", "1") if command == "growth" else ())
    code, out = run_cli(capsys, *argv)
    assert code == 3
    assert json.loads(out)["error"].startswith("precondition: ")


# the zero ideal is S itself: Ass {(0)}, one step 0 < S along Q with cd 2, and CM
ZERO_IDEAL_ANSWERS = {
    ("decompose",): {
        "associated_primes": [[]],
        "irreducible_components": [{"gens": [], "radical": []}],
        "primary_components": [{"gens": [], "radical": []}],
    },
    ("filtration", "--axis", "Q"): {
        "axis": "Q",
        "cd_values": [2],
        "steps": [{"ass_quotient": [[]], "cd": 2, "ideal": ["1"]}],
    },
    ("seqcm", "--axis", "Q"): {
        "axis": "Q",
        "per_step": [{"cd": 2, "grade": 2, "is_cm": True}],
        "verdict": True,
    },
}


@pytest.mark.parametrize("argv", sorted(ZERO_IDEAL_ANSWERS))
def test_zero_ideal_answers(tmp_path, capsys, argv):
    p = tmp_path / "zero.ideal"
    p.write_text("ring 2 2\ngens:\n")
    code, out = run_cli(capsys, argv[0], str(p), *argv[1:])
    assert code == 0
    assert json.loads(out) == {"schema": 1, "command": argv[0], **ZERO_IDEAL_ANSWERS[argv]}


def test_zero_ideal_on_an_empty_axis_is_a_precondition_error(tmp_path, capsys):
    # answered, not refused: along no variable S = K[x1, x2] is its own H^0,
    # finitely generated and of infinite length, and one step 0 < S with
    # grade = cd = 0
    p = tmp_path / "zero.ideal"
    p.write_text("ring 2 0\ngens:\n")
    code, out = run_cli(capsys, "seqcm", str(p))
    doc = json.loads(out)
    assert code == 0
    assert (doc["per_step"], doc["verdict"]) == ([{"cd": 0, "grade": 0, "is_cm": True}], True)
    code, out = run_cli(capsys, "lc", str(p), "--i", "0")
    doc = json.loads(out)
    assert code == 0
    assert (doc["finitely_generated"], doc["total_dim"]) == (True, "infinite")


def test_determinism(sample_file, capsys):
    _, out1 = run_cli(capsys, "analyze", sample_file)
    _, out2 = run_cli(capsys, "analyze", sample_file)
    assert out1 == out2


def test_suite_command(capsys):
    code, out = run_cli(capsys, "suite", "--count", "10", "--seed", "5")
    doc = json.loads(out)
    assert code == 0 and doc["ok"] is True


def test_infinite_encoding(tmp_path, capsys):
    p = tmp_path / "y.ideal"
    p.write_text("ring 1 1\ngens: y1\n")
    code, out = run_cli(capsys, "lc", str(p), "--i", "0")
    doc = json.loads(out)
    assert code == 0
    assert doc["finitely_generated"] is True
    assert doc["total_dim"] == "infinite"


@pytest.mark.parametrize(
    "argv",
    [
        ("hypersurface", "--factors", "(1,1)", "--ring", "2", "2", "--char", "4"),
        ("hypersurface", "--factors", "(1,1)", "--ring", "0", "-1"),
        ("hypersurface", "--ring", "2", "2"),
        ("crosscheck", "--monomial", "x1*y1", "--ring", "2", "2", "--char", "4"),
        ("suite", "--count", "2", "--char", "4"),
        ("growth", "{sample}", "--i", "1", "--radii", "1,x"),
        ("growth", "{sample}", "--i", "1", "--radii", ""),
        ("growth", "{sample}", "--i", "1", "--radii=-3,0,3"),
        ("analyze", "{sample}", "--char", str(2 ** 89 - 1)),
        ("suite", "--count", "-1"),
        ("hypersurface", "--factors", "x\u00b2 (1,1)", "--ring", "1", "1"),
        # bidegree fields are decimal digits: int() alone would read "(1_0,2)" as (10, 2)
        ("hypersurface", "--factors", "(1_0,2)", "--ring", "2", "2"),
        ("hypersurface", "--factors", "(+1,2)", "--ring", "2", "2"),
        ("hypersurface", "--factors", "(-1,2)", "--ring", "2", "2"),
        # radii are decimal digits too: int() alone would read "1_0" as 10 and take "+1"
        ("growth", "{sample}", "--i", "1", "--radii", "1_0,2"),
        ("growth", "{sample}", "--i", "1", "--radii", "+1,2"),
        # so are integer options: int() alone would compute "--char 1_9" in
        # characteristic 19 and take "+3"
        ("analyze", "{sample}", "--char", "1_9"),
        ("analyze", "{sample}", "--char", "+3"),
        ("lc", "{sample}", "--i", "0_1"),
        ("growth", "{sample}", "--i", "+1"),
        ("suite", "--count", "0_3"),
        ("suite", "--count", "1", "--seed", "1_0"),
        ("hypersurface", "--factors", "(1,1)", "--ring", "1_0", "2"),
        ("crosscheck", "--monomial", "x1*y1", "--ring", "2", "+2"),
    ],
)
def test_bad_option_values_are_parse_errors(sample_file, capsys, argv):
    code, out = run_cli(capsys, *(a.format(sample=sample_file) for a in argv))
    assert code == 2
    assert json.loads(out)["error"].startswith("parse: ")


@pytest.mark.parametrize("stdout", ["broken-pipe", "closed", "dev-full"])
def test_closed_stdout_ends_without_a_traceback(sample_file, stdout):
    # a reader gone before the report is written, as in `bigrade suite | head -1`,
    # exits 141 and says nothing; fd 1 closed (`>&-`) or a full device exits 1
    # with one line on stderr
    if stdout == "dev-full" and not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full")
    src = os.path.dirname(os.path.dirname(bigrade.__file__))
    argv = [sys.executable, "-m", "bigrade.cli", "render", sample_file]
    with contextlib.ExitStack() as stack:
        if stdout == "broken-pipe":
            read_end, out = os.pipe()
            os.close(read_end)
            stack.callback(os.close, out)
        elif stdout == "closed":
            argv, out = ["sh", "-c", 'exec "$0" "$@" >&-', *argv], None
        else:
            out = stack.enter_context(open("/dev/full", "wb"))
        proc = subprocess.run(
            argv, stdout=out, stderr=subprocess.PIPE, env={**os.environ, "PYTHONPATH": src}, timeout=120
        )
    if stdout == "broken-pipe":
        assert (proc.returncode, proc.stderr) == (141, b"")  # 128 + SIGPIPE
    else:
        assert proc.returncode == 1, proc.stderr
        assert re.fullmatch(rb"bigrade: cannot write the report: .+\n", proc.stderr), proc.stderr


def test_internal_check_failure_is_reported_with_its_input(sample_file, capsys, monkeypatch):
    from bigrade.errors import InternalCheckFailed
    from bigrade.io_formats import parse_ideal_text

    def broken(*args):
        raise InternalCheckFailed("invariant chain violated")

    monkeypatch.setattr(cli, "analyze", broken)
    code, out = run_cli(capsys, "analyze", sample_file)
    assert code == 4
    error = json.loads(out)["error"]
    head, canonical = error.split("\n", 1)
    assert head == "internal: invariant chain violated; input ideal:"
    assert parse_ideal_text(canonical) == parse_ideal_text(EIGHT_GEN)


def test_a_faulted_fiber_is_named_apart_from_the_input_ideal(tmp_path, capsys, monkeypatch):
    # Ass of the fiber over x1^0, K[y1, y2]/(y1^2), faulted to the maximal
    # ideal: its height 2 exceeds its Taylor length 1.  The message names
    # that fiber as the module, and the CLI adds the input ideal once.
    from bigrade.io_formats import parse_ideal_text

    text = "ring 1 2\ngens: x1*y1, y1^2\n"
    ring, I = parse_ideal_text(text)
    ass = homology.associated_primes
    monkeypatch.setattr(
        homology, "associated_primes", lambda J: {J.ring.all_vars()} if J.ring != ring else ass(J)
    )
    p = tmp_path / "f.ideal"
    p.write_text(text)
    code, out = run_cli(capsys, "analyze", str(p))
    assert code == 4
    error = json.loads(out)["error"]
    assert error == (
        "internal: Ass height 2 exceeds the Taylor length 1; module S/I, I =\nring 0 2\ngens: y1^2\n"
        f"; input ideal:\n{homology.render_ideal(I)}"
    )
    assert error.count("input ideal:") == 1


@pytest.mark.parametrize("sign", [1, -1])
def test_depth_outside_grade_and_dim_exits_internal(sample_file, capsys, monkeypatch, sign):
    # fiber depths stay right; the depth of S/I leaves [grade, dim]
    from bigrade import invariants
    from bigrade.io_formats import parse_ideal_text

    ring, _ = parse_ideal_text(EIGHT_GEN)
    depth = invariants.depth_module

    def wrong(N, Z):
        return depth(N, Z) + (sign * (ring.nvars + 1) if N.ring == ring else 0)

    monkeypatch.setattr(invariants, "depth_module", wrong)
    code, out = run_cli(capsys, "analyze", sample_file)
    assert code == 4
    assert json.loads(out)["error"].startswith("internal: depth out of range: grade=1 ")


# S/I along an empty axis, for I = (x1^2) in ring 1 0 or (y1^2) in ring 0 1:
# H^0 is S/I, of length 2, and every invariant is 0
EMPTY_AXIS_ANALYZE = {
    "cd": 0, "char": 0, "cm_ordinary": True, "cm_wrt_axis": True, "dim": 0,
    "grade": 0, "maximal_depth": True, "mgrade": 0,
}
EMPTY_AXIS_ANSWERS = {
    ("analyze",): {**EMPTY_AXIS_ANALYZE, "axis": "Q", "witness_prime": ["x1"]},
    ("lc", "--i", "0"): {
        "axis": "Q", "finitely_generated": True, "i": 0, "total_dim": 2,
        "per_fiber": [{
            "finite_length": True, "infinite_family": False, "pattern": [0], "total_dim": 1,
            "witness_degree": None,
        }],
    },
    ("seqcm",): {"axis": "Q", "per_step": [{"cd": 0, "grade": 0, "is_cm": True}], "verdict": True},
    ("gencm",): {"axis": "Q", "verdict": True},
    ("analyze", "--axis", "P"): {**EMPTY_AXIS_ANALYZE, "axis": "P", "witness_prime": ["y1"]},
}


@pytest.mark.parametrize(
    "ring, argv",
    [
        ("1 0", ("analyze",)),
        ("1 0", ("lc", "--i", "0")),
        ("1 0", ("seqcm",)),
        ("1 0", ("gencm",)),
        ("0 1", ("analyze", "--axis", "P")),
    ],
)
def test_empty_axis_is_a_precondition_error(tmp_path, capsys, ring, argv):
    # an empty axis is answered through the fibers over the point ring K[],
    # as any other axis is, not refused
    p = tmp_path / "e.ideal"
    p.write_text(f"ring {ring}\ngens: {'x1' if ring == '1 0' else 'y1'}^2\n")
    code, out = run_cli(capsys, argv[0], str(p), *argv[1:])
    assert code == 0
    assert json.loads(out) == {"schema": 1, "command": argv[0], **EMPTY_AXIS_ANSWERS[argv]}


@pytest.mark.parametrize("i, axis, top", [("-1", "Q", 4), ("99", "Q", 4), ("3", "P", 2)])
def test_growth_index_outside_the_axis_is_a_precondition_error(sample_file, capsys, i, axis, top):
    # a negative index must not read a column of a Cech table from its end
    code, out = run_cli(capsys, "growth", sample_file, "--i", i, "--axis", axis)
    assert code == 3
    assert json.loads(out)["error"] == f"precondition: index {i} outside [0, {top}]"


# the point ring K = K[] itself, S/(0), on which every axis is empty
POINT_RING_ANSWERS = {
    "analyze": {**EMPTY_AXIS_ANALYZE, "witness_prime": []},
    "filtration": {"cd_values": [0], "steps": [{"ass_quotient": [[]], "cd": 0, "ideal": ["1"]}]},
    "seqcm": {"per_step": [{"cd": 0, "grade": 0, "is_cm": True}], "verdict": True},
    "lc": {
        "finitely_generated": True, "i": 0, "total_dim": 1,
        "per_fiber": [{
            "finite_length": True, "infinite_family": False, "pattern": [], "total_dim": 1,
            "witness_degree": None,
        }],
    },
    "gencm": {"verdict": True},
    "growth": {"cumulative_dims": [1, 1, 1, 1], "i": 0, "radii": [1, 2, 3, 4]},
}


def test_growth_and_filtration_answer_on_an_empty_axis(tmp_path, capsys):
    p = tmp_path / "e.ideal"
    p.write_text("ring 1 0\ngens: x1^2\n")
    code, out = run_cli(capsys, "growth", str(p), "--i", "0")
    assert code == 0 and json.loads(out)["cumulative_dims"] == [2, 2, 2, 2]
    code, out = run_cli(capsys, "filtration", str(p))
    doc = json.loads(out)
    assert code == 0 and doc["cd_values"] == [0]
    assert doc["steps"] == [{"ass_quotient": [["x1"]], "cd": 0, "ideal": ["1"]}]
    # every --axis subcommand answers on K, along each axis name
    p.write_text("ring 0 0\ngens:\n")
    assert sorted(POINT_RING_ANSWERS) == sorted(AXIS_COMMANDS)
    for command in AXIS_COMMANDS:
        for axis in ("P", "Q", "all"):
            index = ("--i", "0") if command in ("lc", "growth") else ()
            code, out = run_cli(capsys, command, str(p), "--axis", axis, *index)
            assert code == 0, (command, axis)
            assert json.loads(out) == {"schema": 1, "command": command, "axis": axis, **POINT_RING_ANSWERS[command]}


@pytest.mark.parametrize(
    "argv, message",
    [
        (("analyze", "{dir}"), "Is a directory"),
        (("analyze", "{latin1}"), "can't decode byte 0xff"),
        (("hypersurface", "{dir}", "--ring", "1", "1"), "Is a directory"),
        # a byte order mark cut off after one or two bytes is not UTF-8,
        # not an empty file
        (("render", "{bom1}"), "can't decode byte 0xef in position 0"),
        (("hypersurface", "{bom2}", "--ring", "1", "1"), "can't decode bytes in position 0-1"),
    ],
)
def test_unreadable_inputs_are_parse_errors(tmp_path, capsys, argv, message):
    files = {"latin1": b"ring 1 1\n# caf\xff\ngens: x1*y1\n", "bom1": b"\xef", "bom2": b"\xef\xbb"}
    paths = {name: tmp_path / name for name in files}
    for name, data in files.items():
        paths[name].write_bytes(data)
    code, out = run_cli(capsys, *(a.format(dir=tmp_path, **paths) for a in argv))
    assert code == 2
    error = json.loads(out)["error"]
    assert error.startswith("parse: ") and message in error


def test_every_subcommand_shares_one_parser(sample_file, capsys, record):
    # the argparse tree is a module constant, not a memo: emptying every memo
    # between two runs of each subcommand keeps it and builds no parser
    built = record(argparse.ArgumentParser, "__init__")
    parser = cli.PARSER
    commands = [[a.format(sample=sample_file) for a in argv] for argv in COMMANDS]
    first = [run_cli(capsys, *argv) for argv in commands]
    bigrade.clear_caches()
    second = [run_cli(capsys, *argv) for argv in commands]
    assert cli.PARSER is parser
    assert second == first
    assert all(code == 0 for code, _ in first)
    assert built == []


GOLDEN = os.path.join(os.path.dirname(__file__), "cli_golden.json")

# every subcommand, each other --axis value of the six that take one, and an exit-3 report
GOLDEN_ARGV = (
    COMMANDS
    + [argv + ("--axis", axis) for argv in COMMANDS if argv[0] in AXIS_COMMANDS for axis in ("P", "all")]
    + [("lc", "{sample}", "--i", "99")]
)


def golden_records(sample):
    """Exit code and exact stdout of each GOLDEN_ARGV run on the sample file.

    cli_golden.json is this list, written with json.dump(..., indent=1); rewrite
    it only for an output change that is meant.
    """
    records = []
    for argv in GOLDEN_ARGV:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main([a.format(sample=sample) for a in argv])
        records.append({"argv": list(argv), "code": code, "stdout": out.getvalue()})
    return records


def test_every_subcommand_prints_its_golden_bytes(sample_file):
    with open(GOLDEN, encoding="utf-8") as fh:
        expected = json.load(fh)
    assert golden_records(sample_file) == expected


# quotes, backslashes, control characters, DEL, non-ASCII, an astral
# character, a line separator and a lone surrogate, beside plain letters
CHARS = 'aZ0 "\\/\n\t\x00\x1f\x7f\u00e9\u00df\u2202\U0001f600\u2028\ud800'


def _draw(rng, depth=0):
    """A seeded JSON value: a string, an int, a bool or None, or, down to
    depth 3, a list, a tuple or a dict of such values, empty now and then."""
    kind = rng.randrange(8 if depth < 3 else 4)
    if kind == 0:
        return rng.choice([True, False, None])
    if kind == 1:
        return rng.choice([rng.randint(-3, 3), rng.randint(-(10**30), 10**30)])
    if kind in (2, 3):
        return "".join(rng.choice(CHARS) for _ in range(rng.randrange(6)))
    items = [_draw(rng, depth + 1) for _ in range(rng.randrange(4))]
    if kind == 4:
        return items
    if kind == 5:
        return tuple(items)
    return {"".join(rng.choice(CHARS) for _ in range(rng.randrange(4))): v for v in items}


def test_the_writer_gives_the_bytes_of_json_dumps():
    rng = random.Random(35)
    values = [_draw(rng) for _ in range(1500)]
    values += [{}, [], (), {"b": [], "a": {}}, [[[]]], {"": ""}, -(2**100), 1.5, float("inf"), [-0.0]]
    for value in values:
        assert cli._indented(value) == json.dumps(value, sort_keys=True, indent=2)
    with pytest.raises(TypeError):
        cli._indented({"a": [object()]})


@pytest.mark.parametrize(
    "argv",
    [
        ("lc", "{sample}"),
        ("analyze", "{sample}", "--axis", "Z"),
        ("analyze", "{sample}", "--char", "x"),
        ("suite", "--count", "x"),
        ("bogus", "{sample}"),
        (),
    ],
)
def test_usage_errors_are_parse_errors(sample_file, capsys, argv):
    code = main([a.format(sample=sample_file) for a in argv])
    captured = capsys.readouterr()
    assert code == 2
    assert json.loads(captured.out)["error"].startswith("parse: ")
    assert captured.err == ""


def test_help_still_prints_usage_and_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: bigrade")


def _parse_outcome(parse, argv, capsys):
    """The Namespace's fields, the ParseError, or the exit code and stdout of a help run."""
    try:
        return "args", vars(parse(argv))
    except ParseError as exc:
        return "error", str(exc), exc.line
    except SystemExit as exc:
        return "exit", exc.code, capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [
        *COMMANDS,
        ("analyze", "{sample}", "--axis=all"),
        ("lc", "{sample}", "--ax", "P", "--i", "0"),
        ("analyze", "--", "{sample}"),
        ("analyze", "{sample}", "extra"),
        ("decompose", "{sample}", "--axis", "Q"),
        ("lc", "{sample}"),
        ("analyze", "{sample}", "--axis", "Z"),
        ("analyze", "{sample}", "--char", "x"),
        (),
        ("bogus", "{sample}"),
        ("--char", "2", "analyze", "{sample}"),
        ("analyze", "-h"),
        ("-h",),
        ("analyze", "{sample}", "--char", "1_9"),
        ("analyze", "{sample}", "--char", "9" * 5000),
        ("analyze", "{sample}", "--axis", "P", "--axis", "all"),
        ("growth", "{sample}", "--i", "-1"),
        ("hypersurface", "--ring", "2", "2", "{sample}"),
    ],
)
def test_dispatch_matches_the_whole_tree(sample_file, capsys, argv):
    # a well-formed line is read by the token route, any other by argparse;
    # every argv gives what PARSER.parse_args gives: the same fields, error or help
    argv = [a.format(sample=sample_file) for a in argv]
    dispatched = _parse_outcome(cli._parse_args, argv, capsys)
    assert dispatched == _parse_outcome(cli.PARSER.parse_args, argv, capsys)


def test_a_leading_subcommand_skips_the_whole_tree(sample_file, capsys, monkeypatch):
    def whole_tree(argv):
        raise AssertionError(f"PARSER.parse_args({argv!r})")

    expected = [run_cli(capsys, *(a.format(sample=sample_file) for a in argv)) for argv in COMMANDS]
    monkeypatch.setattr(cli.PARSER, "parse_args", whole_tree)
    assert [run_cli(capsys, *(a.format(sample=sample_file) for a in argv)) for argv in COMMANDS] == expected


# the values each option string and positional is drawn with, as the parse
# takes or refuses them: the refused ones hold a digit group separator, a
# sign, a negative number, a choice the option does not take and a leading '-'
VALUES = {
    "input": (["{sample}", "missing.ideal", "", "x y"], ["-", "-x y"]),
    "--axis": (["P", "Q", "all"], ["Z", "q", ""]),
    "--char": (["0", "2", " 3 ", "\u0663"], ["1_0", "+3", "-1", "x", ""]),
    "--i": (["0", "1", "99", " -1"], ["0_1", "-1", "+1", "i"]),
    "--radii": (["1,2", "1_0", ""], ["-1"]),
    "--factors": (["(1,1) (0,2)", ""], ["-(1,1)"]),
    "--ring": (["2", "0"], ["1_0", "-2", "+2"]),
    "--monomial": (["x1*y1"], ["-x1"]),
    "--count": (["3"], ["0_3", "-1"]),
    "--seed": (["7"], ["1_0", "-7"]),
}


def _draw_argv(rng, sample):
    """A seeded command line: a subcommand, its positionals and a random set
    of its options with drawn values in a random order, and now and then one
    fault: a repeat, a dropped token, an abbreviation, `--opt=value`, `--`,
    help, or a bad or missing subcommand."""
    name = rng.choice(sorted(cli.SUBCOMMANDS))
    command = cli.SUBCOMMANDS[name]

    def value(key):
        good, bad = VALUES[key]
        return rng.choice(bad if rng.random() < 0.1 else good)

    groups = [[value(a.dest)] for a in command.positionals if rng.random() < 0.9]
    for string, action in sorted(command.options.items()):
        if rng.random() < (0.9 if action.required else 0.4):
            groups.append([string] + [value(string) for _ in range(action.nargs or 1)])
    rng.shuffle(groups)
    fault = rng.randrange(16)
    options = [g for g in groups if g[0] in command.options]
    if fault == 0 and groups:
        groups.insert(rng.randrange(len(groups) + 1), list(rng.choice(groups)))
    elif fault == 1 and options:
        group = rng.choice(options)
        group[0] = group[0][: rng.randrange(2, len(group[0]))]
    elif fault == 2 and options:
        group = rng.choice(options)
        group[:2] = [f"{group[0]}={group[1]}"]
    elif fault == 3:
        groups.insert(rng.randrange(len(groups) + 1), ["--"])
    elif fault == 4:
        groups.insert(rng.randrange(len(groups) + 1), [rng.choice(["-h", "--help"])])
    argv = [name] + [token for group in groups for token in group]
    if fault == 5:
        del argv[rng.randrange(len(argv))]
    elif fault == 6:
        argv[0] = rng.choice(["bogus", "--char", "ana"])
    return [a.format(sample=sample) for a in argv]


def test_the_token_route_matches_the_whole_tree_on_seeded_draws(sample_file, capsys):
    # every outcome of cli._parse_args, fields, error or help, is that of
    # PARSER.parse_args; the draws reach both routes
    assert {s for c in cli.SUBCOMMANDS.values() for s in c.options} | {"input"} == set(VALUES)
    rng = random.Random(36)
    taken = 0
    for _ in range(2000):
        argv = _draw_argv(rng, sample_file)
        taken += cli._read_line(argv) is not None
        outcome = _parse_outcome(cli._parse_args, argv, capsys)
        assert outcome == _parse_outcome(cli.PARSER.parse_args, argv, capsys), argv
    assert 500 < taken < 1500


# each subcommand's arguments in usage order, as (option_strings, dest,
# nargs, type name, choices, default, required, metavar, help); the token
# route and the whole tree both read these actions, so only this list pins them
_INPUT = ((), "input", None, None, None, None, True, None, "ideal file")
_AXIS = (("--axis",), "axis", None, None, ["P", "Q", "all"], "Q", False, None, None)
_CHAR = (("--char",), "char", None, "integer", None, 0, False, None, "rank characteristic (0 or prime)")
_I = (("--i",), "i", None, "integer", None, None, True, None, None)
_RING = (("--ring",), "ring", 2, "integer", None, None, True, ("M", "N"), None)
ARGUMENTS = [
    ("analyze", [_INPUT, _AXIS, _CHAR]),
    ("decompose", [_INPUT, _CHAR]),
    ("filtration", [_INPUT, _AXIS, _CHAR]),
    ("seqcm", [_INPUT, _AXIS, _CHAR]),
    ("lc", [_INPUT, _AXIS, _CHAR, _I]),
    ("gencm", [_INPUT, _AXIS, _CHAR]),
    (
        "growth",
        [
            _INPUT,
            _AXIS,
            _CHAR,
            _I,
            (("--radii",), "radii", None, None, None, "1,2,3,4", False, None, "comma-separated radii"),
        ],
    ),
    (
        "hypersurface",
        [
            ((), "input", "?", None, None, None, False, None, "factor profile file"),
            (("--factors",), "factors", None, None, None, None, False, None, 'inline profile, e.g. "(1,1) (0,2)"'),
            _RING,
            _CHAR,
        ],
    ),
    (
        "crosscheck",
        [(("--monomial",), "monomial", None, None, None, None, True, None, 'e.g. "x1*y1"'), _RING, _CHAR],
    ),
    (
        "suite",
        [
            (("--count",), "count", None, "integer", None, 200, False, None, None),
            (("--seed",), "seed", None, "integer", None, 20240811, False, None, None),
            _CHAR,
        ],
    ),
    ("render", [_INPUT, _CHAR]),
]


def test_every_subcommand_keeps_its_arguments():
    def fields(a):
        kind = None if a.type is None else a.type.__name__
        return (tuple(a.option_strings), a.dest, a.nargs, kind, a.choices, a.default, a.required, a.metavar, a.help)

    built = [(name, [fields(a) for a in command.actions]) for name, command in cli.SUBCOMMANDS.items()]
    assert built == ARGUMENTS


def test_main_reads_sys_argv_by_default(sample_file, capsys, monkeypatch):
    expected = run_cli(capsys, "render", sample_file)
    monkeypatch.setattr(sys, "argv", ["bigrade", "render", sample_file])
    code = main()
    assert (code, capsys.readouterr().out) == expected


@pytest.mark.parametrize(
    "argv, text",
    [
        (("render", "{path}"), "ring 1 1\ngens: x1\n"),
        (("analyze", "{path}"), "# with a comment\nring 1 1\ngens: x1*y1\n"),
        (("hypersurface", "{path}", "--ring", "2", "2"), "factors: (1,1) (0,2)\n"),
    ],
)
def test_a_byte_order_mark_is_read_past(tmp_path, capsys, argv, text):
    # so are CRLF line ends after it
    plain, marked, crlf = tmp_path / "plain.txt", tmp_path / "marked.txt", tmp_path / "crlf.txt"
    plain.write_bytes(text.encode("utf-8"))
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    crlf.write_bytes(b"\xef\xbb\xbf" + text.replace("\n", "\r\n").encode("utf-8"))
    without = run_cli(capsys, *(a.format(path=plain) for a in argv))
    assert run_cli(capsys, *(a.format(path=marked) for a in argv)) == without
    assert run_cli(capsys, *(a.format(path=crlf) for a in argv)) == without
    assert without[0] == 0


def test_profile_file_matches_inline_factors(tmp_path, capsys):
    p = tmp_path / "profile.txt"
    p.write_text("# two factors\nfactors: (1,1) (0,2)\n")
    from_file = run_cli(capsys, "hypersurface", str(p), "--ring", "2", "2")
    inline = run_cli(capsys, "hypersurface", "--factors", "(1,1) (0,2)", "--ring", "2", "2")
    assert from_file == inline and from_file[0] == 0


@pytest.mark.parametrize(
    "argv, text, error",
    [
        (("hypersurface", "{path}", "--ring", "1", "1"), "factors: (1,1)\n(0,2)\n",
         "parse: unexpected line '(0,2)' (line 2)"),
        (("render", "{path}"), "ring 1\ngens: x1\n", "parse: bad ring line 'ring 1' (line 1)"),
        (("render", "{path}"), "ring \u00b2 1\ngens: x1\n",
         "parse: bad ring line 'ring \u00b2 1' (line 1)"),
        (("render", "{path}"), "# only a comment\n", "parse: missing ring line"),
        (("hypersurface", "{path}", "--ring", "1", "1"), "# c\nfactors: (1;2)\n",
         "parse: bad bidegree '(1;2)' (line 2)"),
        (("hypersurface", "{path}", "--ring", "1", "1"), "factors: (1,1) z3\n",
         "parse: bad factor token 'z3' (line 1)"),
        (("hypersurface", "{path}", "--ring", "1", "1"), "# c\n\nfactors:\n",
         "parse: empty factor profile (line 3)"),
        (("hypersurface", "{path}", "--ring", "1", "1"), "# only a comment\n",
         "parse: empty factor profile"),
        # an empty --factors is given, not absent: it is parsed, and a
        # profile file beside it is not read
        (("hypersurface", "--factors", "", "--ring", "1", "1"), "", "parse: empty factor profile"),
        (("hypersurface", "{path}", "--factors", "", "--ring", "1", "1"), "factors: (1,1)\n",
         "parse: empty factor profile"),
        # a variable token names a variable of the ring, in a profile as in a monomial
        (("hypersurface", "--factors", "x9", "--ring", "1", "1"), "", "parse: x9 out of range (m=1) (line 1)"),
        (("hypersurface", "--factors", "y0", "--ring", "1", "1"), "", "parse: y0 out of range (n=1) (line 1)"),
        (("hypersurface", "{path}", "--ring", "1", "1"), "# c\nfactors: (1,1) y2\n",
         "parse: y2 out of range (n=1) (line 2)"),
        (("crosscheck", "--monomial", "x3", "--ring", "1", "1"), "", "parse: x3 out of range (m=1)"),
    ],
)
def test_input_file_errors_name_their_line(tmp_path, capsys, argv, text, error):
    p = tmp_path / "input.txt"
    p.write_text(text)
    code, out = run_cli(capsys, *(a.format(path=p) for a in argv))
    assert code == 2
    assert json.loads(out)["error"] == error


@pytest.mark.parametrize("command", [("analyze",), ("lc", "--i", "1")], ids=["analyze", "lc"])
@pytest.mark.parametrize(
    "char, error",
    [
        ("9", "parse: characteristic must be 0 or prime, got 9"),
        (str(2 ** 89 - 1), f"parse: characteristic must be below 3317044064679887385961981, got {2 ** 89 - 1}"),
    ],
    ids=["9", "2**89-1"],
)
def test_a_bad_char_is_refused_before_the_input_is_read(tmp_path, capsys, command, char, error):
    # the option's value is refused with no line of the ideal file, and a
    # missing file is not even opened
    p = tmp_path / "input.ideal"
    p.write_text("# c\n\nring 2 2\ngens: x1\n")
    for path in (p, tmp_path / "missing.ideal"):
        code, out = run_cli(capsys, command[0], str(path), *command[1:], "--char", char)
        assert (code, json.loads(out)["error"]) == (2, error)


def test_readme_lists_every_subcommand():
    readme = os.path.join(os.path.dirname(os.path.dirname(__file__)), "README.md")
    with open(readme, encoding="utf-8") as fh:
        listed = re.findall(r"^bigrade (\S+)", fh.read(), flags=re.MULTILINE)
    assert sorted(listed) == sorted(cli.SUBCOMMANDS)


def test_analyze_tests_only_the_sigma_the_term_rule_can_keep(tmp_path, capsys):
    # in a degree of S/(x1*y1, x2*y1, x2*y2) every coordinate outside the
    # degree's support is in no nonzero Koszul term, so no complex needs all
    # 2^16 subsets; the Ass height 2 is below the Taylor length 3, so the
    # depth is read off a Koszul scan and not off its bounds alone.  Every
    # sigma the term walk reaches at full length, kept or not, runs its
    # keep test once, so the trace counts the runs of that line.
    p = tmp_path / "r8.ideal"
    p.write_text("ring 8 8\ngens: x1*y1, x2*y1, x2*y2\n")
    walk = homology._term_dims
    lines, first = inspect.getsourcelines(walk)
    (keep_test,) = [first + n for n, line in enumerate(lines) if "miss == full" in line]
    tested = []

    def in_walk(frame, event, arg):
        if event == "line" and frame.f_lineno == keep_test:
            tested.append(frame.f_locals["sigma"])
        return in_walk

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: in_walk if frame.f_code is walk.__code__ else None)
    try:
        code, _ = run_cli(capsys, "analyze", str(p))
    finally:
        sys.settrace(previous)
    assert code == 0
    assert 0 < len(tested) <= 64


def test_forty_variables_per_block_answer(tmp_path, capsys):
    p = tmp_path / "r40.ideal"
    p.write_text("ring 40 40\ngens: x1*y1\n")
    code, out = run_cli(capsys, "analyze", str(p))
    doc = json.loads(out)
    assert code == 0
    assert (doc["grade"], doc["cd"], doc["mgrade"], doc["dim"]) == (39, 40, 39, 79)
    assert doc["maximal_depth"] is True and doc["witness_prime"] == ["y1"]
    code, out = run_cli(capsys, "seqcm", str(p))
    assert code == 0 and json.loads(out)["verdict"] is True


def test_five_hundred_variables_per_block_filtration_and_seqcm_answer(tmp_path, capsys):
    # the corner walk of each step visits the 1,000 variables one at a time
    p = tmp_path / "r500.ideal"
    p.write_text("ring 500 500\ngens: x1*y1, x2*y2\n")
    code, out = run_cli(capsys, "filtration", str(p))
    doc = json.loads(out)
    assert code == 0
    assert doc["cd_values"] == [498, 499, 500]
    assert [step["ass_quotient"] for step in doc["steps"]] == [
        [["y1", "y2"]],
        [["x1", "y2"], ["x2", "y1"]],
        [["x1", "x2"]],
    ]
    code, out = run_cli(capsys, "seqcm", str(p))
    assert code == 0 and json.loads(out)["verdict"] is True


@pytest.mark.parametrize("command", ["analyze", "seqcm"])
def test_five_hundred_variables_per_block_analyze_and_seqcm_within_a_second(tmp_path, capsys, command):
    # cd's cross-check on S/I reads dim K[Z]/(I cap K[Z]), not I + P' over all
    # 1,000 variables; seqcm reaches it through its last step
    p = tmp_path / "r500.ideal"
    p.write_text("ring 500 500\ngens: x1*y1, x2*y2\n")
    bigrade.clear_caches()
    start = time.perf_counter()
    code, out = run_cli(capsys, command, str(p))
    assert time.perf_counter() - start < 1.0
    assert code == 0
    doc = json.loads(out)
    if command == "analyze":
        assert (doc["grade"], doc["cd"], doc["mgrade"], doc["dim"]) == (498, 500, 498, 998)
    else:
        assert doc["verdict"] is True


# 3.10 before 3.10.7 converts an integer literal of any length
LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.skipif(not LIMIT, reason="no integer conversion limit")
@pytest.mark.parametrize(
    "argv, text, where",
    [
        (("analyze", "{path}"), "ring 1 1\ngens: x{ones}\n", " (line 2)"),
        (("render", "{path}"), "ring {ones} 1\ngens: x1\n", " (line 1)"),
        (("render", "{path}"), "ring 1 1\ngens: x{ones}\n", " (line 2)"),
        (("growth", "{path}", "--i", "0"), "ring 1 1\ngens: x1^{nines}\n", " (line 2)"),
        (("seqcm", "{path}"), "# c\nring 1 1\ngens: x1^{nines}\n", " (line 3)"),
        (("crosscheck", "--monomial", "x1^{nines}", "--ring", "1", "1"), None, ""),
        (("hypersurface", "--factors", "({ones},1)", "--ring", "1", "1"), None, " (line 1)"),
        (("hypersurface", "{path}", "--ring", "1", "1"), "factors: ({ones},1)\n", " (line 1)"),
    ],
    ids=["analyze", "ring-line", "render", "growth", "seqcm", "crosscheck", "factors", "profile-file"],
)
def test_an_integer_literal_over_the_conversion_limit_exits_2(tmp_path, capsys, argv, text, where):
    # at the parent each of these escaped as a ValueError traceback
    digits = {"ones": "1" * (LIMIT + 1), "nines": "9" * (LIMIT + 1)}
    p = tmp_path / "input.txt"
    if text is not None:
        p.write_text(text.format(**digits))
    code, out = run_cli(capsys, *(a.format(path=p, **digits) for a in argv))
    assert code == 2
    assert json.loads(out)["error"] == f"parse: integer of {LIMIT + 1} digits is too long{where}"
