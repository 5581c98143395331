"""Where the package does its work, in one place, so that tests pin work rather
than the shape of the memos that save it (a helper, not collected by pytest).

count_work() wraps every kernel at each binding the package looks up at call
time and counts into one Counter, keyed as KERNELS; work_of(run, *args) is the
count of one call. empty_memos() empties every memo, as a new process finds them.
"""

from collections import Counter
from contextlib import ExitStack, contextmanager
from unittest.mock import patch

from cycpsi import coefficients, psi_series, verifier


def _counter(amount, before=lambda *args: 0):
    """wrap(work, key, kernel): kernel, adding amount(result) - before(*args) to
    work[key] on each call that returns."""
    def wrap(work: Counter, key: str, kernel):
        def counted(*args):
            start = before(*args)
            result = kernel(*args)
            work[key] += amount(result) - start
            return result

        return counted

    return wrap


_calls = _counter(lambda result: 1)
# every column of an image store holds the same images, so column 0's growth counts them
_images_added = _counter(lambda columns: len(columns[0]),
                         lambda p, a, through, last: len(psi_series._images.get((p, a, through), [[]])[0]))
_constants_added = _counter(lambda twist: len(psi_series._twists), lambda *args: len(psi_series._twists))


def _memo_misses(work: Counter, key: str, memo):
    """memo, an lru_cache, adding each call's misses to work[key]; its cache_clear
    stays reachable, since clear_caches looks the memo up at call time."""
    def counted(*args):
        start = memo.cache_info().misses
        result = memo(*args)
        work[key] += memo.cache_info().misses - start
        return result

    counted.cache_clear, counted.cache_info = memo.cache_clear, memo.cache_info
    return counted


# key -> (what counts, the kernel, the modules whose binding of it is looked up at call time)
KERNELS = {
    # coefficients summed directly where normalized misses its rows and records
    "normalized_parts": (_calls, "normalized_parts", (coefficients,)),
    # Fleck sums summed term by term, normalized_parts' included
    "direct_sums": (_calls, "_direct_fleck_sum", (coefficients, verifier)),
    # Fleck sums computed for fleck_sum_general's memo, which serves cor1.3's t_coeff
    "memo_sums": (_memo_misses, "fleck_sum_general", (coefficients,)),
    # one-pass rows of a sum at every l, and of every residue
    "fleck_rows": (_calls, "_fleck_row", (coefficients,)),
    "residue_rows": (_calls, "_fleck_residues", (verifier,)),
    # Pascal steps of a raw-sum record, and the normalized values filled from one
    "steps": (_calls, "_step", (coefficients,)),
    "fill_writes": (_counter(len), "_fill", (coefficients,)),
    # operator images psi^a(T^i): those by Taylor shifts, and every one added to the image memo
    "psi_power": (_calls, "psi_power", (psi_series,)),
    "images": (_images_added, "_monomial_images", (psi_series,)),
    # monomial_twisted's constants, one set per (p^a, r, l_max)
    "constants": (_constants_added, "_twist", (psi_series,)),
}


@contextmanager
def count_work():
    """Yield a Counter of the work done inside the block; a kernel that did
    nothing reads 0, and a call that raises counts nothing. Each binding is
    wrapped as it stands, so a kernel a test has patched is counted as patched."""
    work = Counter()
    with ExitStack() as stack:
        for key, (counter, name, modules) in KERNELS.items():
            for module in modules:
                stack.enter_context(patch.object(module, name, counter(work, key, getattr(module, name))))
        yield work


def work_of(run, *args) -> Counter:
    """The work run(*args) does."""
    with count_work() as work:
        run(*args)
    return work


def empty_memos() -> None:
    """Empty the coefficient rows and sums, the raw-sum records, lines and
    signed rows, and the operator images and constants."""
    coefficients.clear_caches()
    psi_series._images.clear()
    psi_series._twists.clear()
