import random

import pytest

from lazysat import LABEL_A, LABEL_B, ProofError, ProofStore, Solver, Unsat
from tests.helpers import cnf_table, make_tables, random_formula


def test_add_input_basic():
    store = ProofStore()
    assert store.add_input((1,), LABEL_A) == 0
    assert store.node(0) == ("I", (1,), LABEL_A)


def test_input_with_literal_zero_is_rejected_not_called_tautological():
    store = ProofStore()
    for clause in ((0,), (0, 2), (-1, 0)):
        with pytest.raises(ProofError, match="literal 0"):
            store.add_input(clause, LABEL_A)
    assert len(store) == 0


def test_identical_inputs_get_distinct_ids():
    store = ProofStore()
    a = store.add_input((1, -2), LABEL_A)
    b = store.add_input((1, -2), LABEL_A)
    assert a != b


def test_empty_input_clause_is_a_refutation():
    store = ProofStore()
    root = store.add_input((), LABEL_A)
    assert store.check_refutation(root)


def test_resolvent_basic():
    store = ProofStore()
    l = store.add_input((1,), LABEL_A)
    r = store.add_input((-1, 2), LABEL_A)
    res = store.add_resolvent(l, r, 1)
    assert store.clause_of(res) == (2,)


def test_tautological_resolvent_rejected():
    store = ProofStore()
    l = store.add_input((1, 2), LABEL_A)
    r = store.add_input((-1, -2), LABEL_A)
    with pytest.raises(ProofError):
        store.add_resolvent(l, r, 1)


def test_pivot_orientation_enforced():
    store = ProofStore()
    l = store.add_input((1,), LABEL_A)
    r = store.add_input((-1, 2), LABEL_A)
    with pytest.raises(ProofError):
        store.add_resolvent(r, l, 1)  # pivot must be positive in the left child
    with pytest.raises(ProofError):
        store.add_resolvent(l, r, 2)


def test_chain_to_empty_clause():
    store = ProofStore()
    a = store.add_input((1,), LABEL_A)
    b = store.add_input((-1, 2), LABEL_A)
    c = store.add_input((-2,), LABEL_A)
    step = store.add_resolvent(a, b, 1)
    root = store.add_resolvent(step, c, 2)
    assert store.clause_of(root) == ()
    assert store.check_refutation(root)
    assert not store.check_refutation(step)
    assert not store.check_refutation(a)


def test_check_refutation_recomputes_and_detects_corruption():
    store = ProofStore()
    a = store.add_input((1,), LABEL_A)
    b = store.add_input((-1,), LABEL_A)
    root = store.add_resolvent(a, b, 1)
    assert store.check_refutation(root)
    store._pivot[root] = 2  # corrupt the stored derivation
    assert not store.check_refutation(root)


def test_dangling_id_raises():
    store = ProofStore()
    with pytest.raises(ProofError):
        store.check_refutation(3)
    with pytest.raises(ProofError):
        store.clause_of(0)


def test_dump_format_golden():
    store = ProofStore()
    store.add_input((1, -2), LABEL_A)
    store.add_input((-1,), LABEL_B)
    store.add_resolvent(0, 1, 1)
    assert store.dump() == "0 I A 1 -2 0\n1 I B -1 0\n2 R 0 1 1 -2 0\n"


def test_clause_of_recomputes_unchecked_nodes():
    store = ProofStore()
    a = store.add_input((1, 3), LABEL_A)
    b = store.add_input((-1, 2), LABEL_A)
    nid = store._append_resolvent(a, b, 1)
    assert store.clause_of(nid) == (2, 3)


def test_reachable_subproof_preserves_check():
    # Solver proofs contain orphan chains; extraction from the root must
    # still check, and node count >= reachable count.
    rng = random.Random(5)
    checked = 0
    while checked < 12:
        f = random_formula(rng, rng.randint(2, 8), rng.randint(6, 28))
        s = Solver()
        for c in f.clauses:
            s.add_clause(c, LABEL_A)
        out = s.solve()
        if not isinstance(out, Unsat):
            continue
        checked += 1
        assert s.proof.check_refutation(out.refutation)
        reach = s.proof.reachable(out.refutation)
        assert len(reach) <= len(s.proof)
        assert reach == sorted(reach)
        # children precede parents, so one descending pass marks the closure
        marked = {out.refutation}
        for nid in range(out.refutation, -1, -1):
            if nid in marked and not s.proof.is_input(nid):
                _, left, right, _ = s.proof.node(nid)
                marked |= {left, right}
        assert reach == sorted(marked)


def test_checked_refutations_have_unsat_leaf_conjunction():
    # Cross-check: the conjunction of a refutation's input leaves really is
    # unsatisfiable (truth-table enumeration over up to 20 vars).
    rng = random.Random(6)
    checked = 0
    while checked < 15:
        n = rng.randint(2, 9)
        f = random_formula(rng, n, rng.randint(4, 5 * n))
        s = Solver()
        for i, c in enumerate(f.clauses):
            s.add_clause(c, LABEL_A if i % 2 else LABEL_B)
        out = s.solve()
        if not isinstance(out, Unsat):
            continue
        checked += 1
        assert s.proof.check_refutation(out.refutation)
        leaves = [s.proof.node(i)[1] for i in s.proof.reachable_inputs(out.refutation)]
        vars_ = sorted({abs(l) for c in leaves for l in c})
        assert len(vars_) <= 20
        full, tables = make_tables(vars_)
        assert cnf_table(leaves, full, tables) == 0
