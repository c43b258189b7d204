import copy
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lazysat import (
    LABEL_A,
    LABEL_B,
    ProofError,
    ProofStore,
    Solver,
    Unsat,
    UnsatUnderAssumptions,
)
from lazysat.cnf import is_tautology
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


def test_bad_label_is_rejected_on_both_input_paths():
    store = ProofStore()
    with pytest.raises(ProofError, match="bad label"):
        store.add_input((1,), "C")
    s = Solver()
    with pytest.raises(ProofError, match="bad label"):
        s.add_clause((1, 2), "C")
    assert len(store) == 0 and len(s.proof) == 0


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


def reference_check_refutation(store, root):
    """The checker as it was before it dropped clauses after their last use:
    it keeps every reachable node's clause until the end."""
    clauses = {}
    for nid in store.reachable(root):
        if store._pivot[nid] < 0:
            clauses[nid] = frozenset(store._inputs[nid][0])
            continue
        left, right, pivot = store._left[nid], store._right[nid], store._pivot[nid]
        lc, rc = clauses[left], clauses[right]
        if pivot not in lc or -pivot not in rc:
            return False
        resolvent = lc - {pivot} | (rc - {-pivot})
        if is_tautology(resolvent):
            return False
        clauses[nid] = resolvent
    return not clauses[root]


def _corrupt(store, root, rng):
    """A copy of store with one reachable node of root's proof altered;
    children still precede their parents."""
    bad = copy.deepcopy(store)
    nid = rng.choice(bad.reachable(root))
    if bad._pivot[nid] < 0:
        clause, label = bad._inputs[nid]
        lits = set(clause)
        if lits and rng.random() < 0.5:
            lits.discard(rng.choice(sorted(lits)))
        else:
            lits.add(rng.choice((1, -1)) * rng.randint(1, 9))
        bad._inputs[nid] = (tuple(sorted(lits, key=abs)), label)
        return bad
    kind = rng.randrange(3)
    if kind == 0:
        bad._pivot[nid] = rng.randint(1, 9)
    elif kind == 1:
        bad._left[nid], bad._right[nid] = bad._right[nid], bad._left[nid]
    else:
        bad._left[nid] = rng.randrange(nid)
    return bad


_proof_cases = st.tuples(
    st.lists(
        st.lists(st.integers(1, 7).flatmap(lambda v: st.sampled_from((v, -v))),
                 min_size=1, max_size=3),
        min_size=4, max_size=40,
    ),
    st.dictionaries(st.integers(1, 7), st.booleans(), max_size=4),
    st.integers(0, 2**32),
)


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(_proof_cases)
def test_check_refutation_agrees_with_the_keep_everything_reference(case):
    clauses, assumed, seed = case
    s = Solver()
    for i, c in enumerate(clauses):
        s.add_clause(c, LABEL_A if i % 3 else LABEL_B)
    assumptions = [v if b else -v for v, b in assumed.items()]
    out = s.solve(assumptions)
    roots = []
    if isinstance(out, Unsat):
        roots.append(out.refutation)
    elif isinstance(out, UnsatUnderAssumptions):
        roots.append(s.labeled_refutation(assumptions))
    store = s.proof
    for root in roots:
        assert store.check_refutation(root) and reference_check_refutation(store, root)
    # every node as a root: mostly not refutations, and both must say so
    for nid in range(len(store)):
        assert store.check_refutation(nid) == reference_check_refutation(store, nid)
    rng = random.Random(seed)
    for root in roots:
        for _ in range(8):
            bad = _corrupt(store, root, rng)
            assert bad.check_refutation(root) == reference_check_refutation(bad, root)


def test_check_refutation_keeps_a_shared_child_until_its_last_parent():
    # a diamond: s = (2) is the child of both p1 and p2
    store = ProofStore()
    a = store.add_input((1, 2), LABEL_A)
    b = store.add_input((-1, 2), LABEL_A)
    shared = store.add_resolvent(a, b, 1)
    c = store.add_input((-2, 3), LABEL_A)
    d = store.add_input((-2, -3), LABEL_B)
    p1 = store.add_resolvent(shared, c, 2)
    p2 = store.add_resolvent(shared, d, 2)
    root = store.add_resolvent(p1, p2, 3)
    assert store.check_refutation(root) and reference_check_refutation(store, root)
    rng = random.Random(11)
    for _ in range(40):
        bad = _corrupt(store, root, rng)
        assert bad.check_refutation(root) == reference_check_refutation(bad, root)
    # one node as both children of its parent: a tautological premise
    twice = store._append_resolvent(shared, shared, 2)
    assert not store.check_refutation(twice)
    assert not reference_check_refutation(store, twice)


def _peak_bytes(check, store, root):
    tracemalloc.start()
    try:
        assert check(store, root)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_check_refutation_memory_follows_the_live_frontier():
    # a chain (1 w..), (-1 2), (-2 3), ... that carries ten side literals w
    # to the end, where units on them finish the refutation: each clause is
    # read once, by the next step, so only a few are alive at any point
    n, side = 4000, list(range(5001, 5011))
    store = ProofStore()
    node = store.add_input([1, *side], LABEL_A)
    for v in range(1, n):
        step = store.add_input((-v, v + 1), LABEL_A)
        node = store.add_resolvent(node, step, v)
    for w in [n, *side]:
        unit = store.add_input((-w,), LABEL_A)
        node = store.add_resolvent(node, unit, w)
    lean = _peak_bytes(ProofStore.check_refutation, store, node)
    full = _peak_bytes(reference_check_refutation, store, node)
    assert lean * 4 < full, (lean, full)
