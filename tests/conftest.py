import pytest

import bigrade


@pytest.fixture(autouse=True)
def cold_caches():
    """Every test starts with empty memos, so call counts and values computed
    under another test's monkeypatches do not carry over."""
    bigrade.clear_caches()


@pytest.fixture
def walks(monkeypatch):
    """The (ideals, J') of every corner walk of `homology.ass_subquotients`
    from here on: `filtration._verify_ass_facts` calls it by its name in
    filtration, `ass_subquotient` by its name in homology."""
    from bigrade import filtration, homology

    calls = []
    body = homology.ass_subquotients

    def counted(Js, Jp):
        calls.append((tuple(Js), Jp))
        return body(Js, Jp)

    for module in (filtration, homology):
        monkeypatch.setattr(module, "ass_subquotients", counted)
    return calls
