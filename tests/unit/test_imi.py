"""Infection MI (Eq. 24-25) and traditional MI."""

import math

import numpy as np
import pytest

from repro.core import imi
from repro.core.imi import MI_KINDS, infection_mi_matrix, traditional_mi_matrix
from repro.core.kernels import PackedStatuses, packed_pairwise_complete_counts
from repro.core.stats import SufficientStats, derive_counts
from repro.core.tiles import TiledSufficientStats
from repro.exceptions import DataError
from repro.simulation.statuses import StatusMatrix
from tests import oracle


def _perfectly_correlated(beta: int = 20) -> StatusMatrix:
    column = np.array([i % 2 for i in range(beta)], dtype=np.uint8)
    return StatusMatrix(np.stack([column, column], axis=1))


def _perfectly_anticorrelated(beta: int = 20) -> StatusMatrix:
    column = np.array([i % 2 for i in range(beta)], dtype=np.uint8)
    return StatusMatrix(np.stack([column, 1 - column], axis=1))


def _independent(beta: int = 4) -> StatusMatrix:
    # All four joint outcomes equally often: exactly independent.
    return StatusMatrix([[0, 0], [0, 1], [1, 0], [1, 1]] * (beta // 4))


class TestPointwiseTerms:
    """The four pointwise terms behind Eq. 25, as the oracle loop
    computes them; the production matrices equal the oracle's bit for
    bit (``TestBlockedPass``)."""

    def test_keys(self, tiny_statuses):
        terms = oracle.pointwise_mi_terms(tiny_statuses)
        assert set(terms) == {"11", "10", "01", "00"}

    def test_zero_processes_rejected(self):
        for function in (infection_mi_matrix, traditional_mi_matrix):
            with pytest.raises(DataError):
                function(StatusMatrix(np.zeros((0, 3))))

    def test_independent_terms_are_zero(self):
        terms = oracle.pointwise_mi_terms(_independent(8))
        for matrix in terms.values():
            assert matrix[0, 1] == pytest.approx(0.0, abs=1e-12)

    def test_correlated_cross_terms_negative(self):
        # (1,0) never observed -> 0; but for near-perfect correlation with
        # one disagreement the cross term goes negative:
        data = [[1, 1]] * 10 + [[0, 0]] * 9 + [[1, 0]]
        terms = oracle.pointwise_mi_terms(StatusMatrix(data))
        assert terms["10"][0, 1] < 0

    def test_degenerate_marginals_contribute_zero(self):
        statuses = StatusMatrix([[1, 0], [1, 1]])  # column 0 constant
        for function in (infection_mi_matrix, traditional_mi_matrix):
            matrix = function(statuses)
            assert np.isfinite(matrix).all()
            assert matrix[0, 1] == 0.0


class TestInfectionMI:
    def test_symmetry(self, small_observations):
        imi = infection_mi_matrix(small_observations.statuses)
        assert np.allclose(imi, imi.T)

    def test_diagonal_zero(self, small_observations):
        imi = infection_mi_matrix(small_observations.statuses)
        assert np.allclose(np.diag(imi), 0.0)

    def test_perfect_correlation_is_positive(self):
        imi = infection_mi_matrix(_perfectly_correlated())
        assert imi[0, 1] == pytest.approx(1.0)

    def test_perfect_anticorrelation_is_negative(self):
        imi = infection_mi_matrix(_perfectly_anticorrelated())
        assert imi[0, 1] == pytest.approx(-1.0)

    def test_independence_is_zero(self):
        imi = infection_mi_matrix(_independent(8))
        assert imi[0, 1] == pytest.approx(0.0, abs=1e-12)

    def test_distinguishes_sign_where_mi_cannot(self):
        imi_pos = infection_mi_matrix(_perfectly_correlated())[0, 1]
        imi_neg = infection_mi_matrix(_perfectly_anticorrelated())[0, 1]
        mi_pos = traditional_mi_matrix(_perfectly_correlated())[0, 1]
        mi_neg = traditional_mi_matrix(_perfectly_anticorrelated())[0, 1]
        assert mi_pos == pytest.approx(mi_neg)  # MI blind to direction...
        assert imi_pos > 0 > imi_neg  # ...IMI is not (the paper's point)


class TestTraditionalMI:
    def test_non_negative(self, small_observations):
        mi = traditional_mi_matrix(small_observations.statuses)
        assert mi.min() >= 0.0

    def test_perfect_dependence_is_one_bit(self):
        mi = traditional_mi_matrix(_perfectly_correlated())
        assert mi[0, 1] == pytest.approx(1.0)

    def test_diagonal_zero(self, small_observations):
        mi = traditional_mi_matrix(small_observations.statuses)
        assert np.allclose(np.diag(mi), 0.0)


class TestBlockForm:
    """A tile counts one block of the pair space and derives its planes
    with the dense path's ``derive_counts``; the block's counts equal
    the dense slice, and the oracle's terms of the block combine to the
    production matrix's slice bit for bit, mirrored blocks included."""

    @pytest.mark.parametrize("masked", [False, True])
    @pytest.mark.parametrize(
        "combine", [oracle.imi_from_terms, oracle.mi_from_terms]
    )
    @pytest.mark.parametrize(
        "rows, cols", [((2, 6), (2, 6)), ((0, 3), (5, 9)), ((5, 9), (0, 3))]
    )
    def test_block_equals_dense_slice(self, masked, combine, rows, cols):
        rng = np.random.default_rng(21)
        data = (rng.random((90, 9)) < 0.4).astype(np.uint8)
        mask = rng.random((90, 9)) < 0.85 if masked else None
        statuses = StatusMatrix(data, mask)
        packed = PackedStatuses.from_statuses(statuses)
        infected = statuses.infection_counts()
        a, b = slice(*rows), slice(*cols)

        def planes(row_span, col_span):
            return derive_counts(
                packed_pairwise_complete_counts(packed, row_span, col_span),
                has_missing=masked,
                row_infected=infected[slice(*row_span)],
                col_infected=infected[slice(*col_span)],
                beta=statuses.beta,
            )

        dense, block = planes((0, 9), (0, 9)), planes(rows, cols)
        for key, plane in block.items():
            assert np.array_equal(plane, dense[key][a, b]), key
        if masked:
            terms = oracle.mi_terms_from_pairwise_counts(block)
        else:
            terms = oracle.mi_terms_from_joint_counts(
                block, infected[a], statuses.beta, column_counts=infected[b]
            )
        if combine is oracle.imi_from_terms:
            production = infection_mi_matrix(statuses)
        else:
            production = traditional_mi_matrix(statuses)
        got = combine(terms, zero_diagonal=rows == cols)
        assert _bytes_equal(got, production[a, b])


def _pass_statuses(n: int, masked: bool, seed: int = 5) -> StatusMatrix:
    """``n`` nodes over 70 processes; node 0 is never infected and node 1
    always is (when ``n`` allows), so some marginals are 0 or 1 and
    their terms take the zero-denominator branch."""
    rng = np.random.default_rng(seed)
    data = (rng.random((70, n)) < rng.uniform(0.1, 0.6, n)).astype(np.uint8)
    data[:, 0] = 0
    if n > 1:
        data[:, 1] = 1
    mask = rng.random((70, n)) < 0.8 if masked else None
    return StatusMatrix(data, mask)


def _oracle_mi(statuses: StatusMatrix, kind: str) -> np.ndarray:
    if kind == "infection":
        return oracle.infection_mi_matrix(statuses)
    return oracle.traditional_mi_matrix(statuses)


def _chunk_rows(monkeypatch, height: int, block: int, n: int) -> None:
    """Make the pass's row chunks ``height`` rows high (clamped to the
    band) over a grid of ``block``-wide blocks of an ``n``-node matrix."""
    monkeypatch.setattr(imi, "_DENSE_BLOCK", block)
    width = min(block, n)
    monkeypatch.setattr(imi, "_PASS_BYTES", height * imi._ENTRY_BYTES * width)


def _n_chunks(n: int, block: int, height: int) -> int:
    """Row chunks of the pass: each band split into ``height``-row chunks."""
    height = min(height, block, n)
    bands = [min(block, n - start) for start in range(0, n, block)]
    return sum(-(-band // height) for band in bands)


def _bytes_equal(got: np.ndarray, expected: np.ndarray) -> bool:
    got = np.asarray(got)
    return got.shape == expected.shape and got.tobytes() == expected.tobytes()


class TestBlockedPass:
    """One blocked pass builds every MI matrix; whatever its chunking,
    the matrix and the threshold sample must be the oracle's
    whole-matrix results byte for byte."""

    @pytest.mark.parametrize("kind", MI_KINDS)
    @pytest.mark.parametrize("masked", [False, True])
    @pytest.mark.parametrize("block", [3, 4, 256])
    @pytest.mark.parametrize("height", [1, 3, 10])
    def test_chunking_equals_the_oracle(self, monkeypatch, kind, masked, block, height):
        n = 10
        statuses = _pass_statuses(n, masked)
        assert not statuses.infection_counts()[0]
        _chunk_rows(monkeypatch, height, block, n)
        sample = []
        mi = SufficientStats.from_statuses(statuses).mi_matrix(kind, sample)
        expected = _oracle_mi(statuses, kind)
        assert _bytes_equal(mi, expected)
        assert len(sample) == _n_chunks(n, block, height)
        assert _bytes_equal(np.concatenate(sample), oracle.threshold_sample(expected))

    @pytest.mark.parametrize("kind", MI_KINDS)
    @pytest.mark.parametrize("masked", [False, True])
    @pytest.mark.parametrize("n", [1, 2])
    def test_one_and_two_nodes(self, monkeypatch, kind, masked, n):
        statuses = _pass_statuses(n, masked)
        _chunk_rows(monkeypatch, 1, 1, n)
        sample = []
        mi = SufficientStats.from_statuses(statuses).mi_matrix(kind, sample)
        expected = _oracle_mi(statuses, kind)
        assert _bytes_equal(mi, expected)
        assert _bytes_equal(np.concatenate(sample), oracle.threshold_sample(expected))

    @pytest.mark.parametrize("kind", MI_KINDS)
    def test_statuses_entry_points_equal_the_oracle(self, monkeypatch, kind):
        function = infection_mi_matrix if kind == "infection" else traditional_mi_matrix
        for masked in (False, True):
            statuses = _pass_statuses(11, masked)
            _chunk_rows(monkeypatch, 3, 4, 11)
            assert _bytes_equal(function(statuses), _oracle_mi(statuses, kind))

    @pytest.mark.parametrize("kind", MI_KINDS)
    @pytest.mark.parametrize("masked", [False, True])
    @pytest.mark.parametrize("tile_size", [3, 4, 7, 13])
    @pytest.mark.parametrize("height", [1, 3, 13])
    def test_dense_equals_tiled(self, monkeypatch, tmp_path, kind, masked, tile_size, height):
        n = 13
        statuses = _pass_statuses(n, masked, seed=8)
        monkeypatch.setattr(
            imi, "_PASS_BYTES", height * imi._ENTRY_BYTES * min(tile_size, n)
        )
        tiled = TiledSufficientStats.from_statuses(
            statuses, tile_size=tile_size, spill_dir=tmp_path
        )
        dense_sample, tiled_sample = [], []
        dense = SufficientStats.from_statuses(statuses).mi_matrix(kind, dense_sample)
        assert _bytes_equal(tiled.mi_matrix(kind, tiled_sample), dense)
        assert len(tiled_sample) == _n_chunks(n, tile_size, height)
        assert _bytes_equal(np.concatenate(tiled_sample), np.concatenate(dense_sample))

    def test_refuses_unknown_kind_and_zero_processes(self, tmp_path):
        stats = SufficientStats.from_statuses(_pass_statuses(4, False))
        with pytest.raises(DataError, match="unknown MI kind"):
            stats.mi_matrix("nonsense")
        tiled = TiledSufficientStats.from_statuses(
            _pass_statuses(4, False), tile_size=2, spill_dir=tmp_path
        )
        with pytest.raises(DataError, match="unknown MI kind"):
            tiled.mi_matrix("nonsense")
        # Refused before the output memory-map is created.
        assert not list(tmp_path.rglob("imi-*"))
        with pytest.raises(DataError, match="zero diffusion processes"):
            SufficientStats.zeros(3).mi_matrix()
