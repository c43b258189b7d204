import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tests.helpers as helpers
from lazysat import (
    LABEL_A,
    LABEL_B,
    Interpolant,
    ItpSystem,
    ProofStore,
    RbcRef,
    RbcStore,
    Sat,
    Solver,
    UnsatUnderAssumptions,
    interpolant_from_proof,
    reconcile,
)
from lazysat.rbc import FALSE, mk_not
from tests.helpers import (
    A_LOCAL,
    B_LOCAL,
    SHARED,
    cnf_table,
    initial_interpolant,
    labeled_refutation,
    make_tables,
    pigeonhole,
    random_3cnf,
    random_formula,
    rbc_table,
    reference_interpolant,
    resolve_interpolant,
    var_classes,
)

# ---------------------------------------------------------------------------
# interpolant_from_proof: a partition's clauses against an assumption core


def _worked_example_refusal():
    """A = {x}, {~x v y} refuses the cube {~y}."""
    s = Solver()
    s.add_clause([1], LABEL_A)
    s.add_clause([-1, 2], LABEL_A)
    out = s.solve([-2])
    assert isinstance(out, UnsatUnderAssumptions)
    return s, out


@pytest.mark.parametrize("system", list(ItpSystem))
def test_worked_example_against_the_core_is_y(system):
    s, out = _worked_example_refusal()
    assert out.conflict_assumptions == (-2,)
    rbc = RbcStore()
    ref = interpolant_from_proof(
        s.proof, out.refutation, out.conflict_assumptions, system, rbc
    )
    assert ref == rbc.mk_var(2)


def test_hkp_and_dual_mcmillan_never_read_the_proof():
    # the chain folds the negated core lowest variable first, whatever the
    # conflict order, so cores that agree on their low variables share nodes
    rbc = RbcStore()
    core = (3, -1, 2)
    want = rbc.mk_or(rbc.mk_lit(-3), rbc.mk_or(rbc.mk_lit(-2), rbc.mk_lit(1)))
    for system in (ItpSystem.HKP, ItpSystem.DUAL_MCMILLAN):
        assert interpolant_from_proof(None, None, core, system, rbc) == want


def _same_as_reference(proof, root, core, system, rbc) -> RbcRef:
    """Assert that the direct construction is the reference algorithm's
    circuit on the labeled refutation of (A, core units), which resolves the
    units in ascending variable order; return it."""
    got = interpolant_from_proof(proof, root, core, system, rbc)
    labeled, lroot = labeled_refutation(proof, root, sorted(core, key=abs))
    assert labeled.check_refutation(lroot)
    assert reference_interpolant(labeled, lroot, system, rbc) == got
    return got


_refusal_cases = st.tuples(
    st.lists(
        st.lists(st.integers(1, 8).flatmap(lambda v: st.sampled_from((v, -v))),
                 min_size=1, max_size=3),
        min_size=1, max_size=24,
    ),
    st.dictionaries(st.integers(1, 8), st.booleans(), min_size=1, max_size=8),
)


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(_refusal_cases)
def test_direct_construction_is_the_labeled_refutations_interpolant(case):
    clauses, assumed = case
    s = Solver()
    for c in clauses:
        s.add_clause(c, LABEL_A)
    cube = [v if b else -v for v, b in assumed.items()]
    out = s.solve(cube)
    if not isinstance(out, UnsatUnderAssumptions):
        return
    core = out.conflict_assumptions
    for system in ItpSystem:
        rbc = RbcStore()
        ref = _same_as_reference(s.proof, out.refutation, core, system, rbc)
        # theorem 1 against the whole cube: A implies the interpolant, the
        # interpolant contradicts the cube, and it ranges over the core's vars
        assert rbc.vars(ref) <= {abs(a) for a in core}
        all_vars = sorted({abs(l) for c in clauses for l in c} | set(assumed))
        full, tables = make_tables(all_vars)
        itab = rbc_table(rbc, ref, full, tables)
        assert cnf_table(clauses, full, tables) & (full ^ itab) == 0
        assert itab & cnf_table([(a,) for a in cube], full, tables) == 0


_RUN_CASES = [("php7-k10", pigeonhole(7, 6), 10)] + [
    (f"rand3-{seed}-k{k}", random_3cnf(random.Random(seed), 20, 85), k)
    for seed, k in ((4, 2), (5, 2), (6, 10), (7, 10))
]


@pytest.mark.parametrize("system", list(ItpSystem), ids=lambda s: s.value)
@pytest.mark.parametrize("f,k", [c[1:] for c in _RUN_CASES], ids=[c[0] for c in _RUN_CASES])
def test_every_interpolant_of_a_run_is_the_reference_one(f, k, system):
    events = []
    reconcile(f, k, system, on_event=events.append)
    events = [e for e in events if isinstance(e, Interpolant)]
    assert events
    for e in events:
        assert _same_as_reference(e.proof, e.root, e.core, system, e.rbc) == e.ref


# ---------------------------------------------------------------------------
# the reference: general interpolation over labeled refutations


def _worked_example_proof():
    """A = {x}, {~x v y}; B = {~y}; resolve to {y} then to the empty clause."""
    store = ProofStore()
    a1 = store.add_input((1,), LABEL_A)
    a2 = store.add_input((-1, 2), LABEL_A)
    b1 = store.add_input((-2,), LABEL_B)
    y = store.add_resolvent(a1, a2, 1)
    root = store.add_resolvent(y, b1, 2)
    assert store.check_refutation(root)
    return store, root


@pytest.mark.parametrize("system", list(ItpSystem))
def test_worked_example_equivalent_to_y(system):
    store, root = _worked_example_proof()
    rbc = RbcStore()
    ref = reference_interpolant(store, root, system, rbc)
    for x, y in itertools.product([False, True], repeat=2):
        assert rbc.evaluate(ref, {1: x, 2: y}) == y
    assert rbc.vars(ref) <= {2}


def test_degenerate_a_only_refutation_is_false():
    store = ProofStore()
    a1 = store.add_input((1,), LABEL_A)
    a2 = store.add_input((-1,), LABEL_A)
    root = store.add_resolvent(a1, a2, 1)
    rbc = RbcStore()
    for system in ItpSystem:
        assert reference_interpolant(store, root, system, rbc) == FALSE


def test_var_classes_computed_from_reachable_leaves_only():
    store, root = _worked_example_proof()
    store.add_input((3, -4), LABEL_A)  # unreachable noise
    classes = var_classes(store, root)
    assert classes == {1: A_LOCAL, 2: SHARED}


def test_initial_interpolant_rules():
    rbc = RbcStore()
    classes = {1: A_LOCAL, 2: SHARED}
    # McMillan keeps exactly the shared literals of an A clause
    ref = initial_interpolant((1, -2), LABEL_A, ItpSystem.MCMILLAN, classes, rbc)
    for x, y in itertools.product([False, True], repeat=2):
        assert rbc.evaluate(ref, {1: x, 2: y}) == (not y)
    assert rbc.vars(ref) == {2}
    assert initial_interpolant((1,), LABEL_A, ItpSystem.MCMILLAN, classes, rbc) == FALSE
    assert (
        initial_interpolant((-2,), LABEL_B, ItpSystem.MCMILLAN, classes, rbc)
        == rbc.mk_true()
    )
    # HKP: bottom for A clauses, top for B clauses
    assert initial_interpolant((1,), LABEL_A, ItpSystem.HKP, classes, rbc) == FALSE
    assert initial_interpolant((1,), LABEL_B, ItpSystem.HKP, classes, rbc) == rbc.mk_true()


def test_resolve_interpolant_rules():
    rbc = RbcStore()
    y = rbc.mk_var(2)
    top, bot = rbc.mk_true(), rbc.mk_false()
    assert resolve_interpolant(ItpSystem.MCMILLAN, SHARED, 2, y, top, rbc) == y
    assert resolve_interpolant(ItpSystem.MCMILLAN, A_LOCAL, 1, bot, bot, rbc) == FALSE
    assert resolve_interpolant(ItpSystem.HKP, A_LOCAL, 1, bot, bot, rbc) == FALSE
    # HKP shared: (x v I_l) and (~x v I_r); with (bot, top) that is just x
    got = resolve_interpolant(ItpSystem.HKP, SHARED, 2, bot, top, rbc)
    assert got == y
    # orientation sensitivity: swapping children negates the result here
    got_swapped = resolve_interpolant(ItpSystem.HKP, SHARED, 2, top, bot, rbc)
    assert got_swapped == mk_not(y)
    assert resolve_interpolant(ItpSystem.HKP, B_LOCAL, 2, y, top, rbc) == y


def _random_labeled_refutation(rng, max_vars=10):
    """Random UNSAT split instance solved with mixed A/B labels."""
    while True:
        n = rng.randint(2, max_vars)
        f = random_formula(rng, n, rng.randint(2 * n, 6 * n))
        cut = rng.randint(1, len(f.clauses) - 1)
        s = Solver()
        for i, c in enumerate(f.clauses):
            s.add_clause(c, LABEL_A if i < cut else LABEL_B)
        out = s.solve()
        if isinstance(out, Sat):
            continue
        root = out.refutation
        labels = {
            s.proof.node(i)[2] for i in s.proof.reachable_inputs(root)
        }
        if labels != {LABEL_A, LABEL_B}:
            continue  # need leaves on both sides for an interpolation instance
        assert s.proof.check_refutation(root)
        return s.proof, root


def _leaf_split(proof, root):
    a_leaves, b_leaves = [], []
    for i in proof.reachable_inputs(root):
        _, clause, label = proof.node(i)
        (a_leaves if label == LABEL_A else b_leaves).append(clause)
    return a_leaves, b_leaves


def _check_theorem1(proof, root, system, rbc=None):
    rbc = rbc if rbc is not None else RbcStore()
    ref = reference_interpolant(proof, root, system, rbc)
    a_leaves, b_leaves = _leaf_split(proof, root)
    va = {abs(l) for c in a_leaves for l in c}
    vb = {abs(l) for c in b_leaves for l in c}
    assert rbc.vars(ref) <= va & vb
    all_vars = sorted(va | vb)
    full, tables = make_tables(all_vars)
    itab = rbc_table(rbc, ref, full, tables)
    assert cnf_table(a_leaves, full, tables) & (full ^ itab) == 0, "A must imply I"
    assert rbc_table(rbc, ref, full, tables) & cnf_table(b_leaves, full, tables) == 0


@pytest.mark.parametrize("system", list(ItpSystem))
def test_theorem1_on_random_refutations(system):
    rng = random.Random(hash(system.value) & 0xFFFF)
    for _ in range(25):
        proof, root = _random_labeled_refutation(rng)
        _check_theorem1(proof, root, system)


def _swap_labels(proof, root):
    """Rebuild the reachable subproof with A and B labels exchanged."""
    out = ProofStore()
    remap = {}
    for nid in proof.reachable(root):
        node = proof.node(nid)
        if node[0] == "I":
            flipped = LABEL_B if node[2] == LABEL_A else LABEL_A
            remap[nid] = out.add_input(node[1], flipped)
        else:
            _, l, r, piv = node
            remap[nid] = out.add_resolvent(remap[l], remap[r], piv)
    return out, remap[root]


def test_hkp_is_self_dual_semantically():
    rng = random.Random(77)
    for _ in range(15):
        proof, root = _random_labeled_refutation(rng, max_vars=8)
        swapped, sroot = _swap_labels(proof, root)
        rbc = RbcStore()
        direct = reference_interpolant(proof, root, ItpSystem.HKP, rbc)
        dual = mk_not(reference_interpolant(swapped, sroot, ItpSystem.HKP, rbc))
        a_leaves, b_leaves = _leaf_split(proof, root)
        all_vars = sorted({abs(l) for c in a_leaves + b_leaves for l in c})
        full, tables = make_tables(all_vars)
        assert rbc_table(rbc, direct, full, tables) == rbc_table(rbc, dual, full, tables)


def test_dual_mcmillan_is_negated_swapped_mcmillan():
    rng = random.Random(78)
    for _ in range(15):
        proof, root = _random_labeled_refutation(rng, max_vars=8)
        swapped, sroot = _swap_labels(proof, root)
        rbc = RbcStore()
        dual = reference_interpolant(proof, root, ItpSystem.DUAL_MCMILLAN, rbc)
        explicit = mk_not(
            reference_interpolant(swapped, sroot, ItpSystem.MCMILLAN, rbc)
        )
        a_leaves, b_leaves = _leaf_split(proof, root)
        all_vars = sorted({abs(l) for c in a_leaves + b_leaves for l in c})
        full, tables = make_tables(all_vars)
        assert rbc_table(rbc, dual, full, tables) == rbc_table(rbc, explicit, full, tables)


def test_traversal_is_linear_and_memoized(monkeypatch):
    proof, root = _random_labeled_refutation(random.Random(99))
    resolvents = [i for i in proof.reachable(root) if not proof.is_input(i)]
    calls = []
    original = helpers.resolve_interpolant

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(helpers, "resolve_interpolant", counting)
    reference_interpolant(proof, root, ItpSystem.MCMILLAN, RbcStore())
    assert len(calls) == len(resolvents)


def test_refutation_without_a_inputs_rejected():
    store = ProofStore()
    a1 = store.add_input((1,), LABEL_B)
    a2 = store.add_input((-1,), LABEL_B)
    root = store.add_resolvent(a1, a2, 1)
    with pytest.raises(ValueError):
        reference_interpolant(store, root, ItpSystem.MCMILLAN, RbcStore())
