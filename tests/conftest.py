import pytest

from cycpsi import coefficients


@pytest.fixture(autouse=True)
def empty_coefficient_memos():
    """Start and end every test with empty coefficient memos, so no test reads
    values memoized by another (sweeps keep them while the grid stays the same)."""
    coefficients.clear_caches()
    yield
    coefficients.clear_caches()
