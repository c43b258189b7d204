import itertools
import random
from itertools import count

import pytest

from lazysat import RbcStore
from lazysat.rbc import FALSE, TRUE
from tests.helpers import definition_halves as _halves
from tests.helpers import holds_under
from tests.helpers import reached_halves as _reached_halves
from tests.helpers import random_circuit as _random_circuit
from tests.helpers import shadow_eval as _shadow_eval


def test_double_negation_is_identity():
    store = RbcStore()
    x = store.mk_var(1)
    assert x ^ 1 ^ 1 == x
    assert store.evaluate(x ^ 1, {1: True}) is False


def test_negated_true_is_false():
    store = RbcStore()
    assert TRUE ^ 1 == FALSE
    assert store.evaluate(FALSE, {}) is False


def test_hash_consing_returns_identical_refs():
    store = RbcStore()
    assert store.mk_var(3) == store.mk_var(3)
    x, y = store.mk_var(1), store.mk_var(2)
    assert store.mk_and(x, y) == store.mk_and(x, y)


def test_and_simplifications():
    store = RbcStore()
    x = store.mk_var(1)
    assert store.mk_and(x, TRUE) == x
    assert store.mk_and(x, FALSE) == FALSE
    assert store.mk_and(x, x) == x
    assert store.mk_and(x, x ^ 1) == FALSE


def test_and_is_commutative_structurally():
    store = RbcStore()
    a, b = store.mk_var(1), store.mk_var(2) ^ 1
    assert store.mk_and(a, b) == store.mk_and(b, a)


def test_evaluate_examples():
    store = RbcStore()
    f = store.mk_or(store.mk_var(1), store.mk_var(2))
    assert store.evaluate(f, {1: False, 2: True}) is True
    assert store.evaluate(TRUE, {}) is True
    with pytest.raises(ValueError):
        store.evaluate(f, {1: False})


def test_vars():
    store = RbcStore()
    x, y = store.mk_var(1), store.mk_var(2)
    assert store.vars(store.mk_and(x, store.mk_or(x, y))) == {1, 2}
    assert store.vars(TRUE) == frozenset()


def test_evaluate_against_recursive_oracle():
    rng = random.Random(11)
    store = RbcStore()
    for _ in range(300):
        n = rng.randint(1, 8)
        ref, shadow = _random_circuit(store, rng, n, rng.randint(1, 5))
        for bits in itertools.product([False, True], repeat=n):
            a = dict(zip(range(1, n + 1), bits))
            assert store.evaluate(ref, a) == _shadow_eval(shadow, a)


def test_tseitin_leaf_shortcut():
    store = RbcStore()
    clauses, root = store.to_cnf_tseitin(store.mk_var(4), count(10))
    assert clauses == [] and root == 4
    clauses, root = store.to_cnf_tseitin(store.mk_var(4) ^ 1, count(10))
    assert clauses == [] and root == -4


def test_tseitin_single_and_gate():
    store = RbcStore()
    r = store.mk_and(store.mk_var(1), store.mk_var(2))
    fresh = count(3)
    assert store.to_cnf_tseitin(r, fresh) == ([(-3, 1), (-3, 2)], 3)
    assert store.to_cnf_tseitin(r ^ 1, fresh) == ([(3, -1, -2)], -3)
    assert store.to_cnf_tseitin(r, fresh) == ([], 3)
    assert store.to_cnf_tseitin(r ^ 1, fresh) == ([], -3)


def test_tseitin_constants():
    store = RbcStore()
    clauses, root = store.to_cnf_tseitin(TRUE, count(1))
    assert clauses == [(1,)] and root == 1
    clauses, root = store.to_cnf_tseitin(FALSE, count(1))
    assert clauses == [(-1,)] and root == 1  # asserting root contradicts clauses


def test_tseitin_fresh_collision_rejected():
    store = RbcStore()
    r = store.mk_and(store.mk_var(1), store.mk_var(5))
    with pytest.raises(ValueError):
        store.to_cnf_tseitin(r, count(2))  # 2 <= max var in use


def test_tseitin_lowers_a_shared_subterm_once_per_store():
    store = RbcStore()
    x, y, z, w = (store.mk_var(v) for v in (1, 2, 3, 4))
    shared = store.mk_and(x, store.mk_or(y, z))
    first = store.mk_or(shared, w)
    second = store.mk_and(shared, w ^ 1)
    fresh = count(5)
    clauses1, root1 = store.to_cnf_tseitin(first, fresh)
    clauses2, root2 = store.to_cnf_tseitin(second, fresh)
    # first: its root and y | z negatively (one clause each), shared
    # positively (two); second: its root positively, shared already has that
    assert len(clauses1) == 1 + 2 + 1 and len(clauses2) == 2
    assert len(_halves(clauses1)) == 3 and len(_halves(clauses2)) == 1
    assert set(_halves(clauses1)).isdisjoint(_halves(clauses2))
    # the shared node keeps its auxiliary: lowering it again adds nothing,
    # and the second circuit's definition reads that same literal
    again, shared_lit = store.to_cnf_tseitin(shared, fresh)
    assert again == [] and (shared_lit, True) in _halves(clauses1)
    assert any(shared_lit in c for c in clauses2)
    both = clauses1 + clauses2 + [(root1,), (root2,)]
    for bits in itertools.product([False, True], repeat=4):
        a = dict(zip(range(1, 5), bits))
        want = store.evaluate(first, a) and store.evaluate(second, a)
        assert holds_under(both, a) == want, a


def test_tseitin_node_reached_in_its_other_polarity_adds_its_missing_half_once():
    store = RbcStore()
    x, y, z, w = (store.mk_var(v) for v in (1, 2, 3, 4))
    shared = store.mk_and(x, y)
    first = store.mk_and(shared, w)
    second = store.mk_or(shared ^ 1, z)  # reaches shared negatively
    fresh = count(5)
    clauses1, root1 = store.to_cnf_tseitin(first, fresh)
    s = store.to_cnf_tseitin(shared, fresh)[1]
    assert (root1, s) == (6, 5)  # auxiliaries in ascending node order
    assert clauses1 == [(-5, 1), (-5, 2), (-6, 4), (-6, 5)]
    clauses2, root2 = store.to_cnf_tseitin(second, fresh)
    # shared's missing half, then the new root's negative half
    assert clauses2 == [(5, -1, -2), (7, 3, -5)] and root2 == -7
    for ref in (shared, shared ^ 1, first, second):
        assert store.to_cnf_tseitin(ref, fresh)[0] == []
    both = clauses1 + clauses2 + [(root1,), (root2,)]
    for bits in itertools.product([False, True], repeat=4):
        a = dict(zip(range(1, 5), bits))
        want = store.evaluate(first, a) and store.evaluate(second, a)
        assert holds_under(both, a) == want, a


def test_tseitin_clause_budget_and_equisatisfiability():
    rng = random.Random(13)
    for _ in range(120):
        store = RbcStore()
        n = rng.randint(1, 8)
        ref, shadow = _random_circuit(store, rng, n, rng.randint(1, 5))
        fresh = count(n + 1)
        clauses, root = store.to_cnf_tseitin(ref, fresh)
        assert len(clauses) <= 3 * store.dag_size(ref) + 1
        halves = _halves(clauses)
        assert len(set(halves)) == len(halves) == len(_reached_halves(store, ref))
        aux_vars = sorted(
            {abs(l) for c in clauses for l in c if abs(l) > n}
            | ({abs(root)} if abs(root) > n else set())
        )
        for bits in itertools.product([False, True], repeat=n):
            a = dict(zip(range(1, n + 1), bits))
            want = _shadow_eval(shadow, a)
            got = False
            for aux_bits in itertools.product([False, True], repeat=len(aux_vars)):
                full = dict(a)
                full.update(zip(aux_vars, aux_bits))
                if full[abs(root)] == (root > 0) and all(
                    any(full[abs(l)] == (l > 0) for l in c) for c in clauses
                ):
                    got = True
                    break
            assert got == want, (shadow, a)
        # A second circuit over the first, lowered from the same store, adds
        # only the (node, polarity) halves the first did not reach, and the
        # two calls' clauses with both roots asserted are equisatisfiable
        # with the conjunction of the circuits.
        other, other_shadow = _random_circuit(store, rng, n, rng.randint(1, 3))
        ref2, shadow2 = store.mk_or(ref, other), ("or", shadow, other_shadow)
        clauses2, root2 = store.to_cnf_tseitin(ref2, fresh)
        halves2 = _halves(clauses2)
        assert len(set(halves2)) == len(halves2)
        assert len(halves2) == len(_reached_halves(store, ref2) - _reached_halves(store, ref))
        assert set(halves).isdisjoint(halves2)
        both = clauses + clauses2 + [(root,), (root2,)]
        for bits in itertools.product([False, True], repeat=n):
            a = dict(zip(range(1, n + 1), bits))
            want = _shadow_eval(shadow, a) and _shadow_eval(shadow2, a)
            assert holds_under(both, a) == want, (shadow2, a)


def test_dag_sharing_across_constructions():
    store = RbcStore()
    x, y, z = (store.mk_var(v) for v in (1, 2, 3))
    common = store.mk_and(x, y)
    before = len(store)
    store.mk_or(common, z)
    store.mk_and(common, z)  # two new gates, the shared subterm is reused
    assert len(store) == before + 2


def test_to_dot_smoke():
    store = RbcStore()
    r = store.mk_and(store.mk_var(1), store.mk_var(2) ^ 1)
    dot = store.to_dot(r)
    assert dot.startswith("digraph") and "and" in dot
