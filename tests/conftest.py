import pytest

import bigrade


@pytest.fixture(autouse=True)
def cold_caches():
    """Every test starts with empty memos, so call counts and values computed
    under another test's monkeypatches do not carry over."""
    bigrade.clear_caches()
