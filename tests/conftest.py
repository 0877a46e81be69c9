import inspect

import pytest

import bigrade


@pytest.fixture(autouse=True)
def cold_caches():
    """Every test starts with empty memos, so call counts and values computed
    under another test's monkeypatches do not carry over."""
    bigrade.clear_caches()


@pytest.fixture
def record(monkeypatch):
    """`record(owners, name)`: the arguments of every call of `name` from here
    on, each a dict from parameter name to the value passed.

    owners is a module or a class, or a tuple of them where one function is
    bound under `name` in several modules.  Each binding is rebound to one
    wrapper that appends the call and returns the original's result;
    monkeypatch restores them after the test.  The tests that count work
    read these lists, each projected onto what it counts.
    """

    def record(owners, name):
        owners = owners if isinstance(owners, tuple) else (owners,)
        body = getattr(owners[0], name)
        bind = inspect.signature(body).bind
        calls = []

        def recorded(*args, **kwargs):
            calls.append(bind(*args, **kwargs).arguments)
            return body(*args, **kwargs)

        for owner in owners:
            assert getattr(owner, name) is body, f"{owner.__name__}.{name} is another object"
            monkeypatch.setattr(owner, name, recorded)
        return calls

    return record
