import pytest

from cycpsi import coefficients, psi_series


@pytest.fixture(autouse=True)
def empty_coefficient_memos():
    """Start and end every test with empty coefficient and operator-image memos,
    so no test reads values memoized by another (sweeps keep the coefficient
    memos while the grid stays the same)."""
    coefficients.clear_caches()
    psi_series._monomial_image.cache_clear()
    yield
    coefficients.clear_caches()
    psi_series._monomial_image.cache_clear()
