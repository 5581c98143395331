import pytest

from cycpsi import coefficients, psi_series, verifier


@pytest.fixture(autouse=True)
def empty_coefficient_memos():
    """Start and end every test with empty coefficient, raw-sum record,
    operator-image, operator-constant and thm1.0 row memos, so no test reads
    values memoized by another (sweeps keep the coefficient memos while the
    grid stays the same)."""
    _empty()
    yield
    _empty()


def _empty():
    coefficients.clear_caches()
    psi_series._images.clear()
    psi_series._twists.clear()
    verifier._thm1_0_row.cache_clear()
