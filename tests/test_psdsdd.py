import math

import numpy as np
import pytest

from quadsketch.errors import QuadsketchError
from quadsketch.graph import WeightedGraph, quadratic_form
from quadsketch.psdsdd import (
    JlSketch,
    SddSketch,
    check_matrix,
    check_sdd,
    embed_query,
    jl_build,
    jl_rows,
    parse_matrix,
    sdd_sketch_build,
    sdd_to_laplacian,
)
from quadsketch.rng import derive_seed

from conftest import format_matrix


def random_sdd(n, rng, strict_slack=True):
    b = rng.normal(size=(n, n))
    a = (b + b.T) / 2.0
    slack = rng.random(n) if strict_slack else np.zeros(n)
    np.fill_diagonal(a, np.abs(a).sum(axis=1) - np.abs(np.diag(a)) + slack)
    return a


def random_psd(n, rng, rank=None):
    k = rank or n
    b = rng.normal(size=(k, n))
    return b.T @ b


def doubled_graph_reference(a):
    """The reduction's 2n-vertex graph, one off-diagonal entry at a time."""
    n = a.shape[0]
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            b = a[i, j]
            if b < 0:
                edges += [(i, j, -b), (i + n, j + n, -b)]
            elif b > 0:
                edges += [(i, j + n, b), (j, i + n, b)]
    return WeightedGraph(2 * n, edges)


class TestReduction:
    @pytest.mark.parametrize("n", [1, 2, 3, 17, 40])
    def test_doubled_graph_matches_per_entry_reference(self, n):
        rng = np.random.default_rng(n)
        for density in (0.0, 0.3, 1.0):
            a = random_sdd(n, rng)
            keep = np.triu(rng.random((n, n)) < density, 1)
            a = np.where(keep | keep.T | np.eye(n, dtype=bool), a, 0.0)
            _, lap = sdd_to_laplacian(a)
            ref = doubled_graph_reference(a)
            for got, want in zip((lap.edge_u, lap.edge_v, lap.edge_w), (ref.edge_u, ref.edge_v, ref.edge_w)):
                assert np.array_equal(got, want)
            assert lap.n == 2 * n

    def test_identity_500_random_sdd(self):
        rng = np.random.default_rng(0)
        for t in range(500):
            n = int(rng.integers(2, 65))
            a = random_sdd(n, rng, strict_slack=bool(t % 2))
            diag, lap = sdd_to_laplacian(a)
            x = rng.normal(size=n)
            lhs = float(x @ a @ x)
            rhs = float(np.dot(diag, x * x)) + 0.5 * quadratic_form(lap, embed_query(x))
            assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))

    def test_negative_offdiag_already_laplacian(self):
        a = np.array([[2.0, -1.0], [-1.0, 2.0]])
        diag, lap = sdd_to_laplacian(a)
        assert np.allclose(diag, [1.0, 1.0])
        x = np.array([1.0, 0.0])
        assert float(x @ a @ x) == pytest.approx(
            np.dot(diag, x * x) + 0.5 * quadratic_form(lap, embed_query(x))
        )

    def test_positive_offdiag_doubling(self):
        a = np.array([[1.0, 1.0], [1.0, 1.0]])
        diag, lap = sdd_to_laplacian(a)
        x = np.array([1.0, 1.0])
        assert float(x @ a @ x) == 4.0
        assert np.dot(diag, x * x) + 0.5 * quadratic_form(lap, embed_query(x)) == 4.0

    def test_diagonal_matrix_has_no_edges(self):
        diag, lap = sdd_to_laplacian(np.diag([3.0, 4.0, 5.0]))
        assert lap.m == 0
        assert np.allclose(diag, [3.0, 4.0, 5.0])

    def test_not_sdd_names_row(self):
        a = np.array([[1.0, -2.0], [-2.0, 5.0]])
        with pytest.raises(QuadsketchError, match="row 0"):
            check_sdd(a)

    def test_not_symmetric_rejected(self):
        with pytest.raises(ValueError):
            sdd_to_laplacian(np.array([[1.0, 0.5], [0.2, 1.0]]))


class TestSddSketch:
    def test_diagonal_exact(self):
        rng = np.random.default_rng(1)
        a = np.diag(rng.random(12) + 0.5)
        sk = sdd_sketch_build(a, 0.2, seed=1)
        for _ in range(10):
            x = rng.normal(size=12)
            assert sk.estimate(x) == pytest.approx(float(x @ a @ x), rel=1e-9)

    def test_scaled_edge_laplacian(self):
        a = 2.0 * np.array([[1.0, -1.0], [-1.0, 1.0]])
        sk = sdd_sketch_build(a, 0.3, seed=2)
        for x0, x1 in ((1.0, 0.0), (2.0, -1.0), (0.5, 0.5)):
            x = np.array([x0, x1])
            assert sk.estimate(x) == pytest.approx(2.0 * (x0 - x1) ** 2, abs=1e-9)

    def test_monte_carlo(self):
        rng = np.random.default_rng(3)
        ok = 0
        trials = 0
        for t in range(10):
            a = random_sdd(32, rng)
            sk = sdd_sketch_build(a, 0.2, seed=derive_seed(3, t))
            for _ in range(30):
                x = rng.normal(size=32)
                exact = float(x @ a @ x)
                trials += 1
                ok += abs(sk.estimate(x) - exact) <= 0.2 * exact
        assert ok / trials >= 0.9

    def test_roundtrip(self):
        rng = np.random.default_rng(4)
        a = random_sdd(16, rng)
        sk = sdd_sketch_build(a, 0.25, seed=5)
        back = SddSketch.from_bytes(sk.to_bytes())
        x = rng.normal(size=16)
        assert back.estimate(x) == sk.estimate(x)


class TestJl:
    def test_row_count_formula(self):
        assert jl_rows(0.5, 0.1) == math.ceil(8 * 4 * math.log(10.0))
        sk = jl_build(np.eye(8), 0.5, 0.1, seed=1)
        assert sk.r == jl_rows(0.5, 0.1)

    def test_zero_matrix_and_zero_query(self):
        sk = jl_build(np.zeros((6, 6)), 0.5, 0.1, seed=2)
        assert sk.estimate(np.ones(6)) == 0.0
        sk2 = jl_build(np.eye(6), 0.5, 0.1, seed=3)
        assert sk2.estimate(np.zeros(6)) == 0.0

    def test_nonnegative_estimates(self):
        rng = np.random.default_rng(5)
        a = random_psd(10, rng, rank=4)
        for t in range(25):
            sk = jl_build(a, 0.4, 0.2, seed=t)
            x = rng.normal(size=10)
            assert sk.estimate(x) >= 0.0

    def test_identity_failure_rate(self):
        # criterion-13 shape at reduced trial count: failure <= delta + 0.02
        eps, delta = 0.5, 0.1
        x = np.zeros(16)
        x[0] = 1.0
        fails = 0
        trials = 400
        for t in range(trials):
            sk = jl_build(np.eye(16), eps, delta, seed=derive_seed(7, t))
            est = sk.estimate(x)
            fails += not (1 - eps <= est <= 1 + eps)
        assert fails / trials <= delta + 0.02

    def test_unbiasedness_monte_carlo(self):
        rng = np.random.default_rng(8)
        a = random_psd(12, rng)
        x = rng.normal(size=12)
        exact = float(x @ a @ x)
        trials = 3000
        vals = np.array(
            [jl_build(a, 0.6, 0.2, seed=derive_seed(9, t)).estimate(x) for t in range(trials)]
        )
        se = float(vals.std(ddof=1)) / math.sqrt(trials)
        assert abs(float(vals.mean()) - exact) <= 4 * se

    def test_rejects_non_psd(self):
        a = np.diag([1.0, -0.5])
        with pytest.raises(QuadsketchError):
            jl_build(a, 0.5, 0.1, seed=1)

    def test_roundtrip(self):
        rng = np.random.default_rng(10)
        a = random_psd(9, rng)
        sk = jl_build(a, 0.4, 0.1, seed=11)
        back = JlSketch.from_bytes(sk.to_bytes())
        x = rng.normal(size=9)
        assert back.estimate(x) == sk.estimate(x)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_matrix_rejected(bad):
    # a symmetric pair: NaN fails every comparison, so only an explicit
    # finiteness check stops it before the symmetry, SDD and PSD checks
    a = np.diag([4.0, 4.0, 4.0])
    a[0, 1] = a[1, 0] = bad
    with pytest.raises(QuadsketchError, match="finite"):
        check_matrix(a)
    with pytest.raises(QuadsketchError, match="finite"):
        sdd_to_laplacian(a)
    with pytest.raises(QuadsketchError, match="finite"):
        sdd_sketch_build(a, 0.3, seed=1)
    with pytest.raises(QuadsketchError, match="finite"):
        jl_build(a, 0.5, 0.1, seed=1)


def with_sb_entry(sk, value):
    sk.sb[1, 2] = value


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (lambda sk: with_sb_entry(sk, np.nan), "projected factor entries must be finite"),
        (lambda sk: with_sb_entry(sk, -np.inf), "projected factor entries must be finite"),
        (lambda sk: with_sb_entry(sk, 1e300), "finite squared Frobenius norm"),
        (lambda sk: setattr(sk, "epsilon", -3.0), r"epsilon -3.0 and delta 0.2 must be in \(0, 1\)"),
        (lambda sk: setattr(sk, "epsilon", 1.0), r"must be in \(0, 1\)"),
        (lambda sk: setattr(sk, "delta", 0.0), r"must be in \(0, 1\)"),
        (lambda sk: setattr(sk, "delta", np.nan), r"must be in \(0, 1\)"),
    ],
    ids=["factor-nan", "factor-inf", "factor-square-overflows", "epsilon-negative", "epsilon-one", "delta-zero", "delta-nan"],
)
def test_corrupt_jl_value_rejected_at_decode(corrupt, message):
    """Each used to decode; a NaN factor entry answered NaN, and a finite
    entry of 1e300 answered inf."""
    sk = jl_build(random_psd(5, np.random.default_rng(13)), 0.5, 0.2, seed=14)
    JlSketch.from_bytes(sk.to_bytes())
    corrupt(sk)
    with pytest.raises(QuadsketchError, match=message):
        JlSketch.from_bytes(sk.to_bytes())


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_corrupt_sdd_diagonal_rejected_at_decode(bad):
    """A diagonal slack entry that is not finite used to decode (NaN
    answered NaN). A slightly negative one, which check_sdd admits, still
    decodes."""
    sk = sdd_sketch_build(random_sdd(5, np.random.default_rng(15)), 0.3, seed=16)
    sk.diag = sk.diag.copy()
    sk.diag[0] = -1e-12
    x = np.linspace(-1.0, 1.0, 5)
    assert SddSketch.from_bytes(sk.to_bytes()).estimate(x) == sk.estimate(x)
    sk.diag[0] = bad
    with pytest.raises(QuadsketchError, match="diagonal slack entries must be finite"):
        SddSketch.from_bytes(sk.to_bytes())


def test_matrix_parse_format_roundtrip():
    rng = np.random.default_rng(12)
    a = random_sdd(7, rng)
    b = parse_matrix(format_matrix(a))
    assert np.array_equal(a, b)
    with pytest.raises(QuadsketchError):
        parse_matrix("2\n1.0 0.0\n")
