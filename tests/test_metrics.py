import numpy as np
import pytest
from conftest import acc_by_enumeration as _enum_acc

from udbgl.metrics import acc, contingency, nmi, purity


def acc_by_enumeration(pred, truth):
    return _enum_acc(pred, truth, contingency(pred, truth))


def random_pair(rng):
    n = int(rng.integers(2, 40))
    cp = int(rng.integers(1, 5))
    ct = int(rng.integers(2, 5))
    return rng.integers(0, cp, size=n), rng.integers(0, ct, size=n)


# ---------------------------------------------------------------------------
# contingency table

def test_contingency_counts():
    assert np.array_equal(contingency([0, 0, 1, 1], [0, 1, 1, 1]), [[1, 1], [0, 2]])


def test_contingency_handles_sparse_label_values():
    counts = contingency([10, 10, -3], [7, 2, 7])
    assert counts.shape == (2, 2)
    assert counts.sum() == 3


def test_contingency_rejects_bad_input():
    with pytest.raises(ValueError):
        contingency([0, 1], [0, 1, 2])
    with pytest.raises(ValueError):
        contingency([], [])
    with pytest.raises(ValueError):
        contingency(np.zeros((2, 2)), np.zeros((2, 2)))


# ---------------------------------------------------------------------------
# pinned examples

def test_nmi_relabeled_truth_is_one():
    truth = np.array([0, 1, 2, 0, 1, 2, 2])
    pred = np.array([2, 0, 1, 2, 0, 1, 1])  # 0->2, 1->0, 2->1
    assert nmi(pred, truth) == 1.0


def test_nmi_constant_prediction_is_zero():
    assert nmi([1, 1, 1, 1], [0, 1, 0, 1]) == 0.0


def test_nmi_independent_partitions_is_zero():
    assert abs(nmi([0, 0, 1, 1], [0, 1, 0, 1])) <= 1e-15


def test_acc_permuted_labels_is_one():
    truth = np.array([0, 1, 2, 1, 0])
    assert acc([1, 2, 0, 2, 1], truth) == 1.0


def test_acc_pinned_example():
    assert acc([0, 0, 0, 1], [1, 1, 0, 0]) == 0.75


def test_acc_singletons_match_enumeration():
    pred = np.arange(6)  # every sample its own cluster
    truth = np.array([0, 0, 1, 1, 2, 2])
    assert acc(pred, truth) == acc_by_enumeration(pred, truth)


def test_purity_exact_match_is_one():
    assert purity([0, 1, 0, 1], [5, 9, 5, 9]) == 1.0


def test_purity_single_cluster_balanced_classes():
    assert purity([0] * 6, [0, 1, 2, 0, 1, 2]) == pytest.approx(1 / 3)


def test_purity_pinned_example():
    assert purity([0, 0, 1, 1], [0, 1, 1, 1]) == 0.75


# ---------------------------------------------------------------------------
# properties

def test_metrics_relabeling_invariance_and_bounds():
    rng = np.random.default_rng(0)
    for _ in range(200):
        pred, truth = random_pair(rng)
        base = (nmi(pred, truth), acc(pred, truth), purity(pred, truth))
        for v in base:
            assert 0.0 <= v <= 1.0
        # remap both sides through random injections into fresh label values
        pmap = rng.permutation(100)[pred]
        tmap = (rng.permutation(100) + 500)[truth]
        assert nmi(pmap, tmap) == pytest.approx(base[0], abs=1e-12)
        assert acc(pmap, tmap) == pytest.approx(base[1], abs=1e-12)
        assert purity(pmap, tmap) == pytest.approx(base[2], abs=1e-12)


def test_nmi_symmetry():
    rng = np.random.default_rng(1)
    for _ in range(200):
        pred, truth = random_pair(rng)
        assert nmi(pred, truth) == pytest.approx(nmi(truth, pred), abs=1e-12)


def test_purity_dominates_acc():
    rng = np.random.default_rng(2)
    for _ in range(200):
        pred, truth = random_pair(rng)
        assert purity(pred, truth) >= acc(pred, truth) - 1e-12


def test_acc_matches_bijection_enumeration():
    rng = np.random.default_rng(3)
    for _ in range(100):
        pred, truth = random_pair(rng)  # both sides have <= 4 clusters
        assert acc(pred, truth) == pytest.approx(acc_by_enumeration(pred, truth), abs=1e-12)


def labels_from_counts(counts):
    """Label vectors whose contingency table is counts (zero rows and
    columns drop out, as they would from any labeling)."""
    rows, cols = np.nonzero(counts)
    reps = counts[rows, cols]
    return np.repeat(rows, reps), np.repeat(cols, reps)


@pytest.mark.parametrize("shape", [(6, 3), (5, 2), (2, 5), (3, 6), (4, 4)])
def test_acc_rectangular_tables_match_enumeration(shape):
    # more clusters than classes and fewer; half the cells empty
    rng = np.random.default_rng(sum(shape))
    for _ in range(20):
        counts = rng.integers(0, 6, size=shape) * (rng.random(shape) < 0.5)
        if not counts.any():
            continue
        pred, truth = labels_from_counts(counts)
        assert acc(pred, truth) == acc_by_enumeration(pred, truth)


def test_acc_single_cluster_or_single_class():
    truth = np.array([0, 1, 1, 2, 2, 2, 3])
    # one cluster: the best map keeps only the largest class
    assert acc(np.zeros(7, dtype=int), truth) == 3 / 7
    # one class: only the largest cluster is matched
    assert acc(truth, np.zeros(7, dtype=int)) == 3 / 7
    assert acc([5], [9]) == 1.0


@pytest.mark.parametrize("counts", [
    [[1, 1], [1, 1]],
    [[2, 2], [2, 0]],            # the tied row must give up column 0
    [[3, 3, 3], [3, 3, 0]],
    [[1, 1, 1], [1, 1, 1], [1, 1, 1], [1, 1, 1]],
])
def test_acc_tied_counts_match_enumeration(counts):
    pred, truth = labels_from_counts(np.array(counts))
    assert acc(pred, truth) == acc_by_enumeration(pred, truth)


def test_acc_matches_enumeration_up_to_six_by_six():
    # every shape up to 6 x 6 and its transpose, with counts drawn from a
    # few values so that many matchings tie
    rng = np.random.default_rng(4)
    for r in range(1, 7):
        for c in range(r, 7):
            for _ in range(6):
                counts = rng.choice([0, 0, 1, 2, 5], size=(r, c))
                counts[rng.integers(r), rng.integers(c)] += 1  # never empty
                for table in (counts, counts.T):
                    pred, truth = labels_from_counts(table)
                    assert acc(pred, truth) == acc_by_enumeration(pred, truth), table
