"""StatusMatrix counting machinery (the substrate of scoring and IMI)."""

import numpy as np
import pytest

from repro.exceptions import DataError
from repro.simulation.statuses import StatusMatrix
from tests import oracle


class TestConstruction:
    def test_basic(self, tiny_statuses):
        assert tiny_statuses.beta == 6
        assert tiny_statuses.n_nodes == 3

    def test_rejects_non_binary(self):
        with pytest.raises(DataError):
            StatusMatrix([[0, 2]])

    def test_rejects_wrong_rank(self):
        with pytest.raises(DataError):
            StatusMatrix([0, 1, 1])

    def test_values_read_only(self, tiny_statuses):
        with pytest.raises(ValueError):
            tiny_statuses.values[0, 0] = 1

    def test_accepts_bool_array(self):
        matrix = StatusMatrix(np.array([[True, False]]))
        assert matrix.values.dtype == np.uint8


class TestAccessors:
    def test_column(self, tiny_statuses):
        assert tiny_statuses.column(0).tolist() == [1, 1, 0, 0, 1, 0]

    def test_process(self, tiny_statuses):
        assert tiny_statuses.process(1).tolist() == [1, 1, 1]

    def test_infection_counts(self, tiny_statuses):
        assert tiny_statuses.infection_counts().tolist() == [3, 3, 3]

    def test_infection_rates(self, tiny_statuses):
        assert tiny_statuses.infection_rates().tolist() == [0.5, 0.5, 0.5]

    def test_rates_need_processes(self):
        with pytest.raises(DataError):
            StatusMatrix(np.zeros((0, 3))).infection_rates()


class TestJointCounts:
    """The oracle's joint counts (``tests/oracle.py``) on a hand-checked
    matrix — the reference every packed-kernel count is compared to."""

    def test_consistency(self, tiny_statuses):
        joints = oracle.joint_counts(tiny_statuses)
        total = joints["11"] + joints["10"] + joints["01"] + joints["00"]
        assert (total == tiny_statuses.beta).all()

    def test_hand_checked_pair(self, tiny_statuses):
        joints = oracle.joint_counts(tiny_statuses)
        # Columns 0 and 1: rows (1,1),(1,1),(0,0),(0,1),(1,0),(0,0)
        assert joints["11"][0, 1] == 2
        assert joints["10"][0, 1] == 1
        assert joints["01"][0, 1] == 1
        assert joints["00"][0, 1] == 2

    def test_diagonal_is_marginal(self, tiny_statuses):
        joints = oracle.joint_counts(tiny_statuses)
        assert joints["11"][0, 0] == 3
        assert joints["10"][0, 0] == 0


class TestObservedPatternCounts:
    def test_empty_columns(self, tiny_statuses):
        ids, inverse, counts = tiny_statuses.observed_pattern_counts([])
        assert ids.tolist() == [0]
        assert inverse.tolist() == [0] * 6
        assert counts.tolist() == [6]

    def test_matches_dense_counts(self, tiny_statuses):
        ids, inverse, counts = tiny_statuses.observed_pattern_counts([0, 1])
        # code = col0 + 2 * col1; rows (1,1),(1,1),(0,0),(0,1),(1,0),(0,0)
        assert ids.tolist() == [0, 1, 2, 3]
        assert counts.tolist() == [2, 1, 1, 2]
        assert counts.sum() == tiny_statuses.beta
        # inverse maps rows back to their observed pattern id
        assert ids[inverse].tolist() == [3, 3, 0, 2, 1, 0]

    def test_only_observed_patterns_materialised(self):
        statuses = StatusMatrix([[0] * 30, [1] * 30])  # 2 patterns of 2^30
        ids, _, counts = statuses.observed_pattern_counts(list(range(30)))
        assert ids.shape == (2,)
        assert counts.tolist() == [1, 1]

    def test_wide_column_sets_supported(self):
        statuses = StatusMatrix(np.zeros((3, 62), dtype=int))
        ids, _, counts = statuses.observed_pattern_counts(list(range(62)))
        assert counts.tolist() == [3]

    def test_bit_packing_limit(self):
        statuses = StatusMatrix(np.zeros((2, 70), dtype=int))
        with pytest.raises(DataError):
            statuses.observed_pattern_counts(list(range(63)))


class TestTransforms:
    def test_subset(self, tiny_statuses):
        sub = tiny_statuses.subset([0, 2, 4])
        assert sub.beta == 3
        assert sub.column(0).tolist() == [1, 0, 1]

    def test_flip_noise_zero_is_identity(self, tiny_statuses):
        assert tiny_statuses.with_flip_noise(0.0, seed=0) == tiny_statuses

    def test_flip_noise_one_inverts(self, tiny_statuses):
        flipped = tiny_statuses.with_flip_noise(1.0, seed=0)
        assert (flipped.values == 1 - tiny_statuses.values).all()

    def test_flip_noise_deterministic(self, tiny_statuses):
        a = tiny_statuses.with_flip_noise(0.3, seed=5)
        b = tiny_statuses.with_flip_noise(0.3, seed=5)
        assert a == b

    def test_select_nodes(self, tiny_statuses):
        selected = tiny_statuses.select_nodes([2, 0])
        assert selected.n_nodes == 2
        assert selected.column(0).tolist() == tiny_statuses.column(2).tolist()
        assert selected.column(1).tolist() == tiny_statuses.column(0).tolist()

    def test_select_nodes_rejects_duplicates(self, tiny_statuses):
        with pytest.raises(DataError):
            tiny_statuses.select_nodes([0, 0])


class TestDunders:
    def test_equality_and_hash(self, tiny_statuses):
        clone = StatusMatrix(tiny_statuses.values.copy())
        assert clone == tiny_statuses
        assert hash(clone) == hash(tiny_statuses)

    def test_inequality(self, tiny_statuses):
        other = StatusMatrix(np.zeros((6, 3), dtype=int))
        assert other != tiny_statuses
        assert tiny_statuses != "nope"

    def test_repr(self, tiny_statuses):
        assert "beta=6" in repr(tiny_statuses)

    def test_pickle_round_trip_preserves_data_and_immutability(self, tiny_statuses):
        # The process execution backend ships StatusMatrix to workers;
        # the copy must be equal AND keep the read-only invariant.
        import pickle

        clone = pickle.loads(pickle.dumps(tiny_statuses))
        assert clone == tiny_statuses
        assert hash(clone) == hash(tiny_statuses)
        assert not clone.values.flags.writeable
