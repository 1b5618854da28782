import numpy as np
from hypothesis import given, settings, strategies as st

from quadsketch.rng import draw_counts

from conftest import draw_counts_reference


@st.composite
def sample_tables(draw):
    """A ragged CSR table (empty and one-candidate rows included) and, for
    the weighted draw, weights spanning 600 orders of magnitude."""
    widths = draw(st.lists(st.sampled_from([0, 0, 1, 1, 2, 3, 5, 8, 13, 29]), min_size=1, max_size=30))
    indptr = np.concatenate(([0], np.cumsum(widths))).astype(np.int64)
    if not draw(st.booleans()):
        return indptr, None
    w = np.array(draw(st.lists(st.floats(1e-300, 1e300), min_size=int(indptr[-1]), max_size=int(indptr[-1]))))
    row_total = [w[lo:hi].sum() for lo, hi in zip(indptr[:-1], indptr[1:])]
    return indptr, w / np.repeat(row_total, widths)


@given(sample_tables(), st.integers(1, 49), st.integers(0, 2**63))
@settings(max_examples=300, deadline=None)
def test_draw_counts_matches_per_row_calls(table, draws, seed):
    indptr, p = table
    want_rng, got_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    want = draw_counts_reference(want_rng, indptr, draws, p)
    got = draw_counts(got_rng, indptr, draws, p)
    assert got.dtype == np.int64 and np.array_equal(got, want)
    assert got_rng.bit_generator.state == want_rng.bit_generator.state
