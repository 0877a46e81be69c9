"""The answer golden: what the CLI prints for a fixed sample of ideals.

The sample is 150 `random_ideal` draws from `random.Random(11)`, with the
characteristic alternating between 0 and 2.  Each ideal runs through
`analyze`, `filtration`, `seqcm`, `gencm`, `lc` at every index and
`growth --i 1 --radii 0,1,3` on each of the axes P, Q and all, and through
`decompose` and `render`: 4,176 command lines.  answers_golden.json holds the
ideal files, and per command line its exit code and the first 16 hex digits
of the sha256 of its stdout, plus the `run_property_suite(200)` report.

    PYTHONPATH=src python tests/make_answers.py

rewrites the golden.  Rewrite it only for an answer change that is meant.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import tempfile
from collections import Counter

import bigrade
from bigrade import cli
from bigrade.io_formats import render_ideal
from bigrade.suite import random_ideal, run_property_suite

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "answers_golden.json")
SEED = 11
COUNT = 150
SUITE_COUNT = 200


def sample_ideals() -> list:
    """(ideal file text, char) of each ideal of the sample, in draw order."""
    rng = random.Random(SEED)
    sample = []
    for k in range(COUNT):
        char = (0, 2)[k % 2]
        _, I = random_ideal(rng, char=char)
        sample.append((render_ideal(I), char))
    return sample


def answer_argv(sample) -> list:
    """The command lines of the sample; "{dir}" stands for the directory of the ideal files."""
    runs = []
    for k, (text, char) in enumerate(sample):
        _, m, n = text.split("\n", 1)[0].split()
        path = f"{{dir}}/{k:03d}.ideal"
        opts = ("--char", str(char))
        for axis, size in (("P", int(m)), ("Q", int(n)), ("all", int(m) + int(n))):
            on = (path, "--axis", axis) + opts
            runs += [(cmd,) + on for cmd in ("analyze", "filtration", "seqcm", "gencm")]
            runs += [("lc",) + on + ("--i", str(i)) for i in range(size + 1)]
            runs.append(("growth",) + on + ("--i", "1", "--radii", "0,1,3"))
        runs += [(cmd, path) + opts for cmd in ("decompose", "render")]
    return runs


def quarter(runs) -> list:
    """Every fourth command line of each ideal k, from its (k mod 4)-th on.

    A stride of 4 over the whole list would miss some commands on every
    ideal; starting each ideal at its own offset reaches every command on
    every axis.
    """
    seen = Counter()
    picked = []
    for run in runs:
        path = run[1]
        if seen[path] % 4 == int(os.path.basename(path).split(".")[0]) % 4:
            picked.append(run)
        seen[path] += 1
    return picked


def write_ideals(sample, directory) -> None:
    for k, (text, _) in enumerate(sample):
        with open(os.path.join(directory, f"{k:03d}.ideal"), "w", encoding="utf-8") as fh:
            fh.write(text)


def run_answers(runs, directory) -> list:
    """(exit code, 16-hex sha256 of stdout) of each command line, each run cold."""
    answers = []
    for argv in runs:
        bigrade.clear_caches()
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main([a.format(dir=directory) for a in argv])
        answers.append((code, hashlib.sha256(out.getvalue().encode()).hexdigest()[:16]))
    return answers


def suite_report() -> dict:
    bigrade.clear_caches()
    return run_property_suite(SUITE_COUNT)


def write_golden(path=GOLDEN) -> None:
    sample = sample_ideals()
    runs = answer_argv(sample)
    with tempfile.TemporaryDirectory() as directory:
        write_ideals(sample, directory)
        answers = run_answers(runs, directory)
    # one command line per line, so a diff names each answer that moved
    lines = [json.dumps([list(argv), code, digest]) for argv, (code, digest) in zip(runs, answers)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write('{\n"ideals": [\n' + ",\n".join(json.dumps(s) for s in sample) + "\n],\n")
        fh.write('"suite": ' + json.dumps(suite_report(), sort_keys=True) + ",\n")
        fh.write('"runs": [\n' + ",\n".join(lines) + "\n]\n}\n")


if __name__ == "__main__":
    write_golden()
