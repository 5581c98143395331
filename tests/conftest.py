import pytest

from cycpsi import coefficients, psi_series, verifier


@pytest.fixture(autouse=True)
def empty_coefficient_memos():
    """Start and end every test with empty coefficient, operator-image and
    thm1.0 row memos, so no test reads values memoized by another (sweeps keep
    the coefficient memos while the grid stays the same)."""
    coefficients.clear_caches()
    psi_series._images.clear()
    verifier._thm1_0_row.cache_clear()
    yield
    coefficients.clear_caches()
    psi_series._images.clear()
    verifier._thm1_0_row.cache_clear()
