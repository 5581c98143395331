import pytest

from work import empty_memos


@pytest.fixture(autouse=True)
def empty_coefficient_memos():
    """Start and end every test with empty memos, so no test reads values
    memoized by another (sweeps keep the coefficient memos while the grid
    stays the same)."""
    empty_memos()
    yield
    empty_memos()
