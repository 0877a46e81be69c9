"""No answer of the answer golden moved (see make_answers.py)."""

import json

import pytest

import make_answers


@pytest.fixture(scope="module")
def golden():
    with open(make_answers.GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture
def ideal_dir(golden, tmp_path):
    make_answers.write_ideals(golden["ideals"], str(tmp_path))
    return str(tmp_path)


def moved(runs, directory) -> list:
    """The command lines among the golden's `runs` whose exit code or stdout changed."""
    answers = make_answers.run_answers([argv for argv, _, _ in runs], directory)
    return [
        " ".join(argv)
        for (argv, code, digest), answer in zip(runs, answers)
        if (code, digest) != answer
    ]


def test_golden_holds_the_documented_sample(golden):
    sample = make_answers.sample_ideals()
    assert golden["ideals"] == [list(s) for s in sample]
    assert [argv for argv, _, _ in golden["runs"]] == [list(a) for a in make_answers.answer_argv(sample)]
    assert len(golden["runs"]) == 4176


def test_a_quarter_of_the_answers_is_unchanged(golden, ideal_dir):
    picked = {tuple(argv) for argv in make_answers.quarter([argv for argv, _, _ in golden["runs"]])}
    assert moved([run for run in golden["runs"] if tuple(run[0]) in picked], ideal_dir) == []


@pytest.mark.answers_full
def test_every_answer_is_unchanged(golden, ideal_dir):
    assert moved(golden["runs"], ideal_dir) == []
    assert make_answers.suite_report() == golden["suite"]
