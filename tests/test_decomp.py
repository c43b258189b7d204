import random

import pytest

from lazysat import Formula, decompose_lazy, normalize_clause
from tests.helpers import random_formula


def _chain_formula(n_clauses):
    clauses = tuple(normalize_clause((v, -(v + 1))) for v in range(1, n_clauses + 1))
    return Formula(clauses, n_clauses + 1)


def test_ranges_even_split():
    d = decompose_lazy(_chain_formula(10), 2)
    assert [(p.start, p.end) for p in d.partitions] == [(0, 5), (5, 10)]


def test_ranges_uneven_split_floor_based():
    d = decompose_lazy(_chain_formula(10), 3)
    assert [(p.start, p.end) for p in d.partitions] == [(0, 3), (3, 6), (6, 10)]
    sizes = [p.end - p.start for p in d.partitions]
    assert max(sizes) - min(sizes) <= 1


def test_single_partition_has_no_shared_vars():
    f = _chain_formula(4)
    d = decompose_lazy(f, 1)
    assert len(d.partitions) == 1
    assert d.shared_vars == frozenset()


@pytest.mark.parametrize("k", [0, -1, 11])
def test_bad_partition_count_rejected(k):
    with pytest.raises(ValueError):
        decompose_lazy(_chain_formula(10), k)


def test_partitions_cover_clauses_in_order():
    rng = random.Random(3)
    for _ in range(40):
        f = random_formula(rng, rng.randint(2, 10), rng.randint(1, 30))
        for k in range(1, len(f.clauses) + 1):
            d = decompose_lazy(f, k)
            spans = [(p.start, p.end) for p in d.partitions]
            assert spans[0][0] == 0 and spans[-1][1] == len(f.clauses)
            for (a, b), (c, e) in zip(spans, spans[1:]):
                assert b == c
            sizes = [b - a for a, b in spans]
            assert max(sizes) - min(sizes) <= 1
            rebuilt = tuple(
                c for p in d.partitions for c in f.clauses[p.start : p.end]
            )
            assert rebuilt == f.clauses


def test_shared_iff_in_two_or_more_partitions():
    rng = random.Random(4)
    for _ in range(30):
        f = random_formula(rng, rng.randint(3, 12), rng.randint(2, 24))
        k = rng.randint(1, len(f.clauses))
        d = decompose_lazy(f, k)
        for v in range(1, f.num_vars + 1):
            owners = sum(v in p.vars for p in d.partitions)
            assert (v in d.shared_vars) == (owners >= 2)


def test_tautology_placeholder_occupies_index_but_not_partition():
    clauses = (normalize_clause((1, 2)), (3, -3), normalize_clause((4, 5)))
    f = Formula(clauses, 5)
    d = decompose_lazy(f, 3)
    assert [(p.start, p.end) for p in d.partitions] == [(0, 1), (1, 2), (2, 3)]
    assert d.partitions[1].clauses == ()
    assert d.partitions[1].vars == frozenset()
