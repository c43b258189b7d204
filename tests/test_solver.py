import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lazysat import (
    BudgetExceeded,
    Formula,
    Sat,
    Solver,
    Unsat,
    UnsatUnderAssumptions,
    eval_formula,
)
from lazysat.solver import SENTINEL
from tests.helpers import (
    clause_table,
    cnf_table,
    input_leaves,
    make_tables,
    naive_brute_force,
    on_learnt,
    pigeonhole,
    random_3cnf,
    random_formula,
    value,
)


def test_add_unit_conflict_becomes_unsat():
    s = Solver()
    s.add_clause([1])
    s.add_clause([-1])
    assert s.unsat_node is not None
    out = s.solve()
    assert isinstance(out, Unsat)
    assert s.proof.check_refutation(out.refutation)
    assert s.proof.clause_of(out.refutation) == ()


def test_add_tautology_is_ignored():
    s = Solver()
    assert s.add_clause([1, -1, 2]) == SENTINEL
    assert len(s.proof) == 0
    assert isinstance(s.solve(), Sat)


def test_literal_zero_in_a_clause_is_rejected():
    s = Solver()
    for lits in ([0, 1], [0], [-2, 0, 3]):
        with pytest.raises(ValueError, match="literal 0"):
            s.add_clause(lits)
    assert len(s.proof) == 0 and s.clauses == []


def test_add_to_unsat_solver_is_noop():
    s = Solver()
    s.add_clause([1])
    s.add_clause([-1])
    assert s.add_clause([2, 3]) == SENTINEL


def test_add_creates_one_input_node():
    s = Solver()
    s.add_clause([1, 2])
    assert len(s.proof) == 1
    assert s.proof.node(0) == ("I", (1, 2))


def test_solve_propagation_forced_model():
    s = Solver()
    s.add_clause([1, 2])
    out = s.solve([-1])
    assert isinstance(out, Sat)
    assert out.model == {1: False, 2: True}


def test_solve_unsat_with_checkable_refutation():
    s = Solver()
    s.add_clause([1, 2])
    s.add_clause([-1])
    s.add_clause([-2])
    out = s.solve()
    assert isinstance(out, Unsat)
    assert s.proof.check_refutation(out.refutation)


def test_solve_unsat_under_assumptions_conflict_subset():
    s = Solver()
    s.add_clause([1, 2])
    s.add_clause([-1])
    out = s.solve([-2])
    assert isinstance(out, UnsatUnderAssumptions)
    assert set(out.conflict_assumptions) <= {-2}
    # the conflict clause is exactly the negated subset, derived from the
    # solver's clauses alone
    assert s.proof.clause_of(out.refutation) == (2,)
    assert set(input_leaves(s.proof, out.refutation)) <= set(s.clause_node)


def test_refusal_core_is_the_falsified_assumption_then_decisions_latest_first():
    # 5 holds at level 0; deciding 1 implies 7, deciding 4 implies nothing,
    # and deciding 2 implies -3, which falsifies the last assumption.
    s = Solver()
    s.add_clause([5])
    s.add_clause([-1, -5, 7])
    s.add_clause([-7, -2, -3])
    out = s.solve([1, 4, 2, 3])
    assert isinstance(out, UnsatUnderAssumptions)
    assert out.conflict_assumptions == (3, 2, 1)
    # 7 and the level-0 literal 5 are resolved out; the idle decision 4 is not met
    assert sorted(s.proof.clause_of(out.refutation)) == [-3, -2, -1]
    assert s.proof.check_refutation(s.labeled_refutation([1, 4, 2, 3]))


def test_propagate_assumptions_places_them_without_a_search():
    s = Solver()
    s.add_clause([5])
    s.add_clause([-1, -5, 7])
    s.add_clause([-7, -2, -3])
    s.add_clause([-6, 8])
    s.add_clause([-6, -8])
    # 5 is true at level 0, so it takes an empty level; the core is solve's
    out = s.propagate_assumptions([5, 1, 4, 2, 3])
    assert out.conflict_assumptions == (3, 2, 1)
    assert sorted(s.proof.clause_of(out.refutation)) == [-3, -2, -1]
    assert s.propagate_assumptions([1, 4, 3]) is None  # 3 implies -2, nothing false
    # 6 conflicts under propagation: it stops there and learns nothing,
    # where a search would learn -6 and refuse 6
    assert s.propagate_assumptions([6, 3, 2]) is None
    assert s.n_conflicts == 0 and len(s.clauses) == 5
    assert s.solve([6, 3, 2]).conflict_assumptions == (6,)


def _propagate_in_order(clauses, assumptions):
    """Reference for Solver.propagate_assumptions: set each assumption in
    turn and close under unit propagation.  Returns the first assumption
    found false, "conflict", or None when all are placed."""
    val = {}

    def closes():
        changed = True
        while changed:
            changed = False
            for c in clauses:
                if any(val.get(abs(l)) == (l > 0) for l in c):
                    continue
                free = [l for l in c if abs(l) not in val]
                if not free:
                    return False
                if len(free) == 1:
                    val[abs(free[0])] = free[0] > 0
                    changed = True
        return True

    if not closes():  # level 0 itself
        return "conflict"
    for a in assumptions:
        if val.get(abs(a)) == (a < 0):
            return a
        val[abs(a)] = a > 0
        if not closes():
            return "conflict"
    return None


def test_propagate_assumptions_matches_unit_propagation_and_keeps_the_solver():
    rng = random.Random(127)
    seen = {"core": 0, "conflict": 0, "placed": 0}
    for _ in range(60):
        n = rng.randint(8, 16)
        f = random_3cnf(rng, n, rng.randint(3 * n, 5 * n))
        s = Solver()
        for c in f.clauses:
            s.add_clause(c)
        for _ in range(8):
            vs = rng.sample(range(1, n + 1), rng.randint(1, n // 2))
            arg = [v if rng.random() < 0.5 else -v for v in vs]
            arg += rng.sample(arg, rng.randint(0, min(2, len(arg))))  # repeats: empty levels
            live = [c for c in s.clauses if c is not None]
            want = _propagate_in_order(live, arg)
            state = (s.n_conflicts, len(s.clauses), list(s.trail), list(s._heap),
                     list(s._activity))
            proof_len = len(s.proof)
            out = s.propagate_assumptions(arg)
            assert (s.n_conflicts, len(s.clauses), list(s.trail), list(s._heap),
                    list(s._activity)) == state
            assert not s.trail_lim
            if out is None:
                assert want in ("conflict", None)
                assert len(s.proof) == proof_len
                seen["conflict" if want else "placed"] += 1
            else:
                seen["core"] += 1
                core = out.conflict_assumptions
                assert set(core) <= set(arg) and core[0] == want
                # the falsified assumption, then earlier ones latest first
                pos = [arg.index(a) for a in core]
                assert pos[1:] == sorted(pos[1:], reverse=True) and max(pos[1:], default=-1) < pos[0]
                negated = frozenset(-a for a in core)
                assert _recompute_clause(s.proof, out.refutation) == negated
                assert set(input_leaves(s.proof, out.refutation)) <= set(s.clause_node)
                # only the refutation's own resolvents were appended
                assert len(s.proof) == proof_len or out.refutation == len(s.proof) - 1
                assert isinstance(s.solve(arg), UnsatUnderAssumptions)
            if rng.random() < 0.5:  # vary the learnt clauses and level 0
                s.solve(rng.sample(arg, rng.randint(0, len(arg))))
    assert min(seen.values()) >= 10, seen


def _place_by_steps(s, assumptions):
    """Reference for Solver._place_assumptions: open one level per
    assumption, an empty one for each already true, and call ``_propagate``
    after each literal placed."""
    while len(s.trail_lim) < len(assumptions):
        a = assumptions[len(s.trail_lim)]
        va = value(s, a)
        if va < 0:
            return s._analyze_final(a)
        s.trail_lim.append(len(s.trail))
        if va == 0:
            s._enqueue(a, -1)
            confl = s._propagate()
            if confl >= 0:
                return confl
    return -1


def _placement_state(s):
    vs = [abs(l) for l in s.trail]
    return (list(s.trail), list(s.trail_lim), s.qhead, [s._level[v] for v in vs],
            [s._reason[v] for v in vs], [s._tpos[v] for v in vs], s._watches)


def test_placement_loop_matches_placing_and_propagating_one_at_a_time():
    rng = random.Random(139)
    seen = dict.fromkeys(("core", "conflict", "placed", "empty", "skipped", "pending"), 0)
    for _ in range(50):
        n = rng.randint(8, 16)
        f = random_3cnf(rng, n, rng.randint(3 * n, 5 * n))
        s, ref = Solver(), Solver()
        for c in f.clauses:
            s.add_clause(c)
            ref.add_clause(c)
        for step in range(6):
            pending = step == 5  # last placement of this pair: one literal left pending
            vs = rng.sample(range(1, n + 1), rng.randint(1, n // 2))
            arg = [v if rng.random() < 0.5 else -v for v in vs]
            arg += rng.sample(arg, rng.randint(0, min(2, len(arg))))  # repeats
            arg += [l for l in s.trail[:2] if abs(l) not in vs]  # true at level 0
            arg = s._take_assumptions(arg)
            ref._take_assumptions(arg)
            if pending:
                free = [v for v in range(1, n + 1)
                        if s._active[v] and not value(s, v) and v not in map(abs, arg)]
                if not free:
                    continue
                u = rng.choice(free)
                for x in (s, ref):
                    x._enqueue(u, -1)  # on the trail, not yet propagated
            calls = []
            real = s._propagate

            def propagate():
                q0 = s.qhead
                confl = real()
                calls.append(range(q0, s.qhead))
                return confl

            s._propagate = propagate
            q0 = s.qhead
            out = s._place_assumptions(arg)
            del s._propagate
            want = _place_by_steps(ref, arg)
            assert out == want
            assert _placement_state(s) == _placement_state(ref)
            # Every trail position from the start is handled once: by a
            # _propagate call, or skipped as a placed assumption with nothing
            # pending before it.
            handled = [p for r in calls for p in r]
            placed = {p for p in s.trail_lim if q0 <= p < s.qhead and s._reason[abs(s.trail[p])] < 0}
            skipped = [p for p in placed if p not in handled]
            assert sorted(handled + skipped) == list(range(q0, s.qhead))
            for p in skipped:
                assert not s._watches[s._cap - s.trail[p]]
            seen["skipped"] += len(skipped)
            seen["empty"] += sum(a == b for a, b in zip(s.trail_lim, s.trail_lim[1:]))
            seen["pending"] += pending
            if isinstance(out, UnsatUnderAssumptions):
                seen["core"] += 1
            else:
                seen["conflict" if out >= 0 else "placed"] += 1
            for x in (s, ref):
                x._backtrack(0)
            if not pending and rng.random() < 0.5:  # vary the learnt clauses and level 0
                sample = rng.sample(arg, rng.randint(0, len(arg)))
                assert s.solve(sample) == ref.solve(sample)
    assert min(seen.values()) >= 10, seen


def test_inconsistent_assumptions_rejected():
    s = Solver()
    s.add_clause([1, 2])
    with pytest.raises(ValueError):
        s.solve([1, -1])


def test_duplicate_and_satisfied_assumptions_ok():
    s = Solver()
    s.add_clause([1, 2])
    out = s.solve([2, 2, -1])
    assert isinstance(out, Sat)
    assert out.model[2] is True and out.model[1] is False


def test_learnt_clause_from_simple_conflict(monkeypatch):
    # Deciding 1=False propagates 2 then falsifies (1 v -2): learn the unit (1).
    learnt = []
    s = Solver()
    on_learnt(monkeypatch, s, lambda lits, value_of: learnt.append(list(lits)))
    s.add_clause([1, 2])
    s.add_clause([1, -2])
    out = s.solve()
    assert isinstance(out, Sat) and out.model[1] is True
    assert learnt == [[1]]


def test_level0_conflict_after_learning_gives_empty_clause():
    s = Solver()
    s.add_clause([1, 2])
    s.add_clause([1, -2])
    s.add_clause([-1, 2])
    s.add_clause([-1, -2])
    out = s.solve()
    assert isinstance(out, Unsat)
    assert s.proof.check_refutation(out.refutation)


def test_add_clause_falsified_at_level0_derives_empty():
    s = Solver()
    s.add_clause([1])
    s.add_clause([2])
    s.add_clause([-1, -2])  # both literals already false
    assert s.unsat_node is not None
    assert s.proof.check_refutation(s.unsat_node)
    assert isinstance(s.solve(), Unsat)


def test_add_clause_unit_under_level0_assignment():
    s = Solver()
    s.add_clause([1])
    s.add_clause([-1, 2])  # immediately unit: propagates 2
    s.add_clause([-2, 3])
    out = s.solve()
    assert isinstance(out, Sat)
    assert out.model == {1: True, 2: True, 3: True}


def _watch_lists_holding(s, ci):
    return [lit - s._cap for lit, ws in enumerate(s._watches) if ci in ws]


def test_value_of_level0_literals_is_plus_minus_one():
    s = Solver()
    s.add_clause([1])
    s.add_clause([-1, -2])  # propagates -2 at level 0
    assert [value(s, l) for l in (1, -1, 2, -2, 3)] == [1, -1, -1, 1, 0]
    out = s.solve()
    assert out.model == {1: True, 2: False}
    assert all(type(b) is bool for b in out.model.values())


def test_clause_satisfied_at_level0_when_added_is_not_watched():
    s = Solver()
    s.add_clause([2])
    ci = s.add_clause([1, 2, 3])  # true literal not in the first watch slot
    cj = s.add_clause([-2, 3, 4])  # falsified literal, two free ones: watched
    assert _watch_lists_holding(s, ci) == []
    assert sorted(_watch_lists_holding(s, cj)) == [3, 4]
    assert s.clauses[ci] == [1, 2, 3]  # still stored for analysis and checks
    assert isinstance(s.solve([-1, -3]), Sat)


def test_clause_satisfied_at_level0_later_leaves_the_visiting_watch_list():
    s = Solver()
    ci = s.add_clause([1, 2])
    keep = s.add_clause([3, 4])
    assert sorted(_watch_lists_holding(s, ci)) == [1, 2]
    # 4 true above level 0 when 3 is falsified: the watch must stay
    assert isinstance(s.solve([4, -3]), Sat)
    assert sorted(_watch_lists_holding(s, keep)) == [3, 4]
    s.add_clause([2])  # 2 true at level 0 while ci's watch on 1 is not visited
    assert sorted(_watch_lists_holding(s, ci)) == [1, 2]
    s.add_clause([-1])  # falsifies 1: the visit finds 2 true at level 0
    assert _watch_lists_holding(s, ci) == [2]
    assert s.solve().model == {1: False, 2: True, 3: False, 4: True}


def test_models_are_total_and_satisfying():
    rng = random.Random(17)
    for _ in range(80):
        n = rng.randint(1, 12)
        f = random_formula(rng, n, rng.randint(1, 4 * n))
        s = Solver()
        for c in f.clauses:
            s.add_clause(c)
        out = s.solve()
        want = naive_brute_force(f) is not None
        if isinstance(out, Sat):
            assert want
            assert f.vars() <= set(out.model)
            assert eval_formula(f, {**{v: False for v in range(1, n + 1)}, **out.model})
        else:
            assert isinstance(out, Unsat) and not want
            assert s.proof.check_refutation(out.refutation)


def test_verdicts_under_assumptions_match_oracle():
    rng = random.Random(23)
    for _ in range(60):
        n = rng.randint(2, 10)
        f = random_formula(rng, n, rng.randint(2, 3 * n))
        s = Solver()
        for c in f.clauses:
            s.add_clause(c)
        n_assume = rng.randint(1, n)
        vs = rng.sample(range(1, n + 1), n_assume)
        assumptions = [v if rng.random() < 0.5 else -v for v in vs]
        out = s.solve(assumptions)
        extended = f.clauses + tuple((a,) for a in assumptions)
        want = naive_brute_force(
            type(f)(extended, f.num_vars)
        ) is not None
        if isinstance(out, Sat):
            assert want
            for a in assumptions:
                assert out.model[abs(a)] == (a > 0)
        elif isinstance(out, UnsatUnderAssumptions):
            assert not want
            assert set(out.conflict_assumptions) <= set(assumptions)
            # the conflict subset alone must already be contradictory
            sub = f.clauses + tuple((a,) for a in out.conflict_assumptions)
            assert naive_brute_force(type(f)(sub, f.num_vars)) is None
        else:
            assert naive_brute_force(f) is None


def test_learnt_clauses_implied_and_falsified_at_learn_time(monkeypatch):
    # Conflict-clause contract: the formula implies every learnt clause, and
    # the trail at learn time falsifies all of its literals.
    rng = random.Random(31)
    instances = 0
    while instances < 30:
        n = rng.randint(3, 12)
        f = random_formula(rng, n, rng.randint(3, 5 * n))
        vars_ = sorted(f.vars())
        if not vars_:
            continue
        instances += 1
        full, tables = make_tables(vars_)
        ftab = cnf_table([c for c in f.clauses], full, tables)
        failures = []

        def hook(lits, value_of):
            if any(value_of(l) != -1 for l in lits):
                failures.append(("not falsified", list(lits)))
            ctab = clause_table(lits, full, tables)
            if ftab & (full ^ ctab):
                failures.append(("not implied", list(lits)))

        s = Solver()
        on_learnt(monkeypatch, s, hook)
        for c in f.clauses:
            s.add_clause(c)
        s.solve()
        assert not failures


def test_incremental_solving_reuses_learnt_clauses():
    s = Solver()
    s.add_clause([1, 2, 3])
    out1 = s.solve()
    assert isinstance(out1, Sat)
    s.add_clause([-1])
    out2 = s.solve([2])
    assert isinstance(out2, Sat) and out2.model[2] is True
    s.add_clause([-2])
    s.add_clause([-3])
    out3 = s.solve()
    assert isinstance(out3, Unsat)
    assert s.proof.check_refutation(out3.refutation)


def test_learnt_clauses_stay_a_derived_after_assumption_solves():
    rng = random.Random(41)
    for _ in range(20):
        n = rng.randint(3, 10)
        f = random_formula(rng, n, rng.randint(4, 4 * n))
        s = Solver()
        for c in f.clauses:
            s.add_clause(c)
        first_learnt = len(s.clauses)
        for _ in range(4):
            vs = rng.sample(range(1, n + 1), rng.randint(1, n))
            assumptions = [v if rng.random() < 0.5 else -v for v in vs]
            out = s.solve(assumptions)
            if isinstance(out, UnsatUnderAssumptions):
                s.labeled_refutation(assumptions)  # adds unit inputs for the core
            elif isinstance(out, Unsat):
                break
        inputs = set(s.clause_node[:first_learnt])
        for ci in range(first_learnt, len(s.clauses)):
            assert set(input_leaves(s.proof, s.clause_node[ci])) <= inputs


def test_interleaved_adds_and_assumption_solves_match_oracle():
    from lazysat import Formula

    rng = random.Random(71)
    for _ in range(20):
        n = rng.randint(3, 9)
        s = Solver()
        clauses: list[tuple] = []
        for _ in range(6):
            for _ in range(rng.randint(1, 4)):
                w = rng.randint(1, min(3, n))
                vs = rng.sample(range(1, n + 1), w)
                from lazysat import normalize_clause

                c = normalize_clause(v if rng.random() < 0.5 else -v for v in vs)
                clauses.append(c)
                s.add_clause(c)
            vs = rng.sample(range(1, n + 1), rng.randint(0, n))
            assumptions = [v if rng.random() < 0.5 else -v for v in vs]
            out = s.solve(assumptions)
            want = (
                naive_brute_force(
                    Formula(
                        tuple(c for c in clauses if not any(-l in c for l in c))
                        + tuple((a,) for a in assumptions),
                        n,
                    )
                )
                is not None
            )
            assert isinstance(out, Sat) == want
            if isinstance(out, Unsat):
                assert s.proof.check_refutation(out.refutation)
                break
            # repeating the same call from a clean state must agree
            again = s.solve(assumptions)
            assert type(again) is type(out)


def _unit_leaves(s, root):
    """The clauses of the leaves under root that are not the solver's
    clauses: the units labeled_refutation appended."""
    ours = set(s.clause_node)
    return [s.proof.node(i)[1] for i in input_leaves(s.proof, root) if i not in ours]


def test_labeled_refutation_examples():
    # A = {x v y, ~x}, B unit ~y
    s = Solver()
    s.add_clause([1, 2])
    s.add_clause([-1])
    out = s.solve([-2])
    assert isinstance(out, UnsatUnderAssumptions)
    root = s.labeled_refutation([-2])
    assert s.proof.check_refutation(root)
    assert _unit_leaves(s, root) == [(-2,)]

    # DB-level refutation: no B leaves at all
    s = Solver()
    s.add_clause([1])
    s.add_clause([-1])
    s.solve()
    root = s.labeled_refutation([])
    assert s.proof.check_refutation(root)
    assert _unit_leaves(s, root) == []

    # both units needed
    s = Solver()
    s.add_clause([1, 2])
    out = s.solve([-1, -2])
    assert isinstance(out, UnsatUnderAssumptions)
    assert set(out.conflict_assumptions) == {-1, -2}
    root = s.labeled_refutation([-1, -2])
    assert s.proof.check_refutation(root)
    assert set(_unit_leaves(s, root)) == {(-1,), (-2,)}


def test_labeled_refutation_after_sat_is_contract_violation():
    s = Solver()
    s.add_clause([1])
    s.solve()
    with pytest.raises(ValueError):
        s.labeled_refutation([])

    # a Sat answer, then a refusal: the refusal's labeled refutation checks
    s = Solver()
    s.add_clause([1, 2])
    assert isinstance(s.solve([-1]), Sat)
    with pytest.raises(ValueError):
        s.labeled_refutation([-1])
    assert isinstance(s.solve([-1, -2]), UnsatUnderAssumptions)
    assert s.proof.check_refutation(s.labeled_refutation([-1, -2]))


def _recompute_clause(proof, node_id):
    """Recompute a node's clause from input leaves, ignoring every cache."""
    clauses = {}
    for nid in proof.reachable(node_id):
        node = proof.node(nid)
        if node[0] == "I":
            clauses[nid] = frozenset(node[1])
        else:
            _, l, r, piv = node
            clauses[nid] = clauses[l] - {piv} | (clauses[r] - {-piv})
    return clauses[node_id]


def test_learnt_proof_chains_derive_exact_clauses():
    from tests.helpers import random_3cnf

    rng = random.Random(61)
    total = 0
    for _ in range(25):
        n = rng.randint(6, 14)
        f = random_3cnf(rng, n, rng.randint(4 * n, 6 * n))
        s = Solver()
        n_inputs = sum(1 for c in f.clauses if s.add_clause(c) != SENTINEL)
        first_learnt = n_inputs
        s.solve()
        for ci in range(first_learnt, len(s.clauses)):
            if s.clauses[ci] is None:  # deleted; its node stays in the store
                continue
            total += 1
            want = frozenset(s.clauses[ci])
            assert _recompute_clause(s.proof, s.clause_node[ci]) == want
    assert total > 50


def test_deterministic_outcomes_and_proof_shapes():
    rng = random.Random(53)
    for _ in range(10):
        n = rng.randint(4, 10)
        f = random_formula(rng, n, rng.randint(6, 5 * n))
        dumps = []
        outs = []
        for _ in range(2):
            s = Solver()
            for c in f.clauses:
                s.add_clause(c)
            outs.append(s.solve())
            dumps.append(s.proof.dump())
        assert outs[0] == outs[1]
        assert dumps[0] == dumps[1]


def test_restarts_and_larger_unsat_instance():
    f = pigeonhole(6, 5)  # needs a few hundred conflicts: restarts do fire
    s = Solver()
    for c in f.clauses:
        s.add_clause(c)
    out = s.solve()
    assert isinstance(out, Unsat)
    assert s.n_conflicts > 100
    assert s.proof.check_refutation(out.refutation)


def test_deadline_budget_raises():
    import time

    f = pigeonhole(8, 7)
    s = Solver()
    for c in f.clauses:
        s.add_clause(c)
    with pytest.raises(BudgetExceeded):
        s.solve(deadline=time.monotonic() + 0.02)


def test_decision_heap_stays_bounded_and_picks_the_argmax(monkeypatch):
    import lazysat.solver as solver_mod
    from lazysat import normalize_clause

    monkeypatch.setattr(solver_mod, "_RESCALE", 10.0)  # rescales fire often
    stats = {"picks": 0, "rescales": 0}
    real_pick = Solver._pick_branch_var

    def checked_pick(s):
        if s._var_inc < stats["inc"]:  # only a rescale shrinks it
            stats["rescales"] += 1
        stats["inc"] = s._var_inc
        free = [v for v in s._active_list if value(s, v) == 0]
        want = min(free, key=lambda v: (-s._activity[v], v))
        got = real_pick(s)
        assert got == want
        stats["picks"] += 1
        return got

    monkeypatch.setattr(Solver, "_pick_branch_var", checked_pick)
    rng = random.Random(89)
    n = 40
    for _ in range(10):
        s = Solver()
        stats["inc"] = s._var_inc
        for _ in range(40):
            for _ in range(rng.randint(2, 7)):
                vs = rng.sample(range(1, n + 1), 3)
                s.add_clause(normalize_clause(v if rng.random() < 0.5 else -v for v in vs))
                assert len(s._heap) <= 2 * s.num_vars
            vs = rng.sample(range(1, n + 1), rng.randint(0, 8))
            out = s.solve([v if rng.random() < 0.5 else -v for v in vs])
            assert len(s._heap) <= 2 * s.num_vars
            if isinstance(out, Unsat):
                break
    assert stats["picks"] > 1000
    assert stats["rescales"] > 10


@pytest.fixture
def frequent_reductions(monkeypatch):
    """Restarts every few conflicts and a reduction at the first level-0
    point after each 20 conflicts, so small instances reduce many times."""
    import lazysat.solver as solver_mod

    monkeypatch.setattr(solver_mod, "_RESTART_UNIT", 4)
    monkeypatch.setattr(solver_mod, "_REDUCE_FIRST", 20)
    monkeypatch.setattr(solver_mod, "_REDUCE_INC", 0)


def _assert_nothing_refers_to_deleted_clauses(s):
    """No watch list holds a deleted clause, and no assigned variable has one
    as its reason (an unassigned variable's reason slot is never read)."""
    clauses = s.clauses
    for ws in s._watches:
        assert all(clauses[ci] is not None for ci in ws)
    for l in s.trail:
        r = s._reason[abs(l)]
        assert r < 0 or clauses[r] is not None


def _checked_solver(monkeypatch, reductions):
    """A Solver that checks the invariant above after every reduction and
    at every conflict, whose clause must be live too."""
    s = Solver()
    reduce, analyze = s._reduce_learnts, s._analyze

    def checked_reduce():
        assert not s.trail_lim
        reduce()
        reductions.append(sum(c is None for c in s.clauses))
        _assert_nothing_refers_to_deleted_clauses(s)

    def checked_analyze(confl):
        assert s.clauses[confl] is not None
        _assert_nothing_refers_to_deleted_clauses(s)
        return analyze(confl)

    monkeypatch.setattr(s, "_reduce_learnts", checked_reduce)
    monkeypatch.setattr(s, "_analyze", checked_analyze)
    return s


def _reduced_run(monkeypatch, f, assumption_sets):
    """Solve f, then f under each assumption list, checking every outcome;
    returns (outcomes, n_conflicts, proof size, deletions per reduction)."""
    reductions: list[int] = []
    s = _checked_solver(monkeypatch, reductions)
    for c in f.clauses:
        s.add_clause(c)
    n_inputs = len(s.clauses)
    outs = []
    for assumptions in [[]] + assumption_sets:
        out = s.solve(assumptions)
        outs.append(out)
        if isinstance(out, Sat):
            assert eval_formula(f, out.model)
            assert all(out.model[abs(a)] == (a > 0) for a in assumptions)
        elif isinstance(out, Unsat):
            assert s.proof.check_refutation(out.refutation)
            break
        else:
            want = {-a for a in out.conflict_assumptions}
            assert set(s.proof.clause_of(out.refutation)) == want
            assert s.proof.check_refutation(s.labeled_refutation(assumptions))
        _assert_nothing_refers_to_deleted_clauses(s)
    for ci in range(n_inputs, len(s.clauses)):
        if s.clauses[ci] is not None:  # a kept learnt still has its exact chain
            assert _recompute_clause(s.proof, s.clause_node[ci]) == frozenset(s.clauses[ci])
    return outs, s.n_conflicts, len(s.proof), reductions


def test_learnt_reduction_keeps_verdicts_proofs_and_determinism(monkeypatch, frequent_reductions):
    from tests.helpers import random_3cnf

    rng = random.Random(97)
    cases = [(pigeonhole(6, 5), [])]
    for _ in range(4):
        f = random_3cnf(rng, 90, 384)
        assumption_sets = [
            [v if rng.random() < 0.5 else -v for v in rng.sample(range(1, 91), 8)]
            for _ in range(12)
        ]
        cases.append((f, assumption_sets))
    verdicts = set()
    total_reductions = 0
    for f, assumption_sets in cases:
        first = _reduced_run(monkeypatch, f, assumption_sets)
        again = _reduced_run(monkeypatch, f, assumption_sets)
        assert first == again
        outs, _, _, reductions = first
        verdicts.update(type(o) for o in outs)
        total_reductions += len(reductions)
        assert reductions and reductions[-1] > 0
    assert verdicts == {Sat, Unsat, UnsatUnderAssumptions}
    assert total_reductions > 50


def test_reduction_deletes_the_worse_half_of_what_may_go(monkeypatch, frequent_reductions):
    f = pigeonhole(6, 5)
    s = Solver()
    for c in f.clauses:
        s.add_clause(c)
    checked = []
    reduce = s._reduce_learnts

    def checked_reduce():
        locked = {s._reason[abs(l)] for l in s.trail}
        cands = [ci for ci in s._lbd if ci not in locked]
        assert all(len(s.clauses[ci]) > 2 and s._lbd[ci] > 2 for ci in cands)
        before = dict(s._lbd)
        reduce()
        dead = [ci for ci in cands if s.clauses[ci] is None]
        kept = [ci for ci in cands if s.clauses[ci] is not None]
        assert len(dead) == len(cands) // 2
        assert all((before[d], -d) > (before[k], -k) for d in dead for k in kept)
        assert all(s.clauses[ci] is not None for ci in locked if ci >= 0)
        checked.append(len(dead))

    monkeypatch.setattr(s, "_reduce_learnts", checked_reduce)
    assert isinstance(s.solve(), Unsat)
    assert len(checked) > 5 and sum(checked) > 0


def test_reduction_keeps_the_reasons_of_level0_literals():
    from tests.helpers import random_3cnf

    f = random_3cnf(random.Random(0), 90, 384)

    def solved():
        s = Solver()
        for c in f.clauses:
            s.add_clause(c)
        assert isinstance(s.solve(), Sat)
        return s

    s = solved()
    doomed = sorted(s._lbd, key=lambda ci: (-s._lbd[ci], ci))[: len(s._lbd) // 2]
    for ci in doomed:
        # Units falsifying all but one literal of a learnt clause make it
        # the reason of a level-0 literal.
        s = solved()
        lits = list(s.clauses[ci])
        for q in lits[1:]:
            s.add_clause([-q])
        if s.unsat_node is None and s._reason[abs(lits[0])] == ci:
            break
    else:
        pytest.fail("no learnt clause of the worse half became a level-0 reason")
    s._reduce_learnts()
    assert s.clauses[ci] is not None
    assert None in s.clauses
    _assert_nothing_refers_to_deleted_clauses(s)


def test_model_check_covers_input_and_learnt_clauses(frequent_reductions):
    from tests.helpers import random_3cnf

    f = random_3cnf(random.Random(11), 90, 384)
    s = Solver()
    for c in f.clauses:
        s.add_clause(c)
    n_inputs = len(s.clauses)
    out = s.solve()
    assert isinstance(out, Sat)
    learnts = s.clauses[n_inputs:]
    assert None in learnts  # some learnt clauses were deleted ...
    assert any(c is not None for c in learnts)  # ... and some were kept
    s._verify_model(out.model)

    broken = dict(out.model)
    for l in s.clauses[0]:
        broken[abs(l)] = l < 0
    with pytest.raises(RuntimeError, match=r"internal: model fails clause \["):
        s._verify_model(broken)

    # a kept learnt clause that the model falsifies, inputs all satisfied
    ci = next(ci for ci in range(n_inputs, len(s.clauses)) if s.clauses[ci] is not None)
    s.clauses[ci] = [-v if b else v for v, b in sorted(out.model.items())[:3]]
    with pytest.raises(RuntimeError, match=r"internal: model fails clause \["):
        s._verify_model(out.model)
    s.clauses[ci] = None  # deleted, it is no longer checked
    s._verify_model(out.model)


def _satisfies(model, clauses):
    return all(any(model[abs(l)] == (l > 0) for l in c) for c in clauses)


_lits8 = st.integers(1, 8).flatmap(lambda v: st.sampled_from((v, -v)))
_assumptions8 = st.dictionaries(st.integers(1, 8), st.booleans(), max_size=5).map(
    lambda d: [v if b else -v for v, b in d.items()]
)
_ops8 = st.lists(
    st.one_of(
        st.tuples(st.just("add"), st.lists(_lits8, min_size=1, max_size=3)),
        st.tuples(st.just("solve"), _assumptions8),
    ),
    max_size=30,
)


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(_ops8)
def test_random_add_solve_interleavings_match_brute_force(ops):
    s = Solver()
    clauses = []
    for op, arg in ops:
        if op == "add":
            s.add_clause(arg)
            if not any(-l in arg for l in arg):  # the solver drops tautologies
                clauses.append(tuple(arg))
            continue
        out = s.solve(arg)
        units = [(a,) for a in arg]
        expect = naive_brute_force(Formula(tuple(clauses + units), 8))
        if isinstance(out, Sat):
            assert expect is not None
            assert set(out.model) == set(s._active_list)
            assert _satisfies(out.model, clauses + units)
        elif isinstance(out, Unsat):
            assert naive_brute_force(Formula(tuple(clauses), 8)) is None
        else:
            assert expect is None
            core = out.conflict_assumptions
            assert set(core) <= set(arg)
            # The falsified assumption first, then the assumption decisions
            # met walking the trail backward, latest first.
            pos = [arg.index(a) for a in core]
            assert pos[0] == max(pos)
            assert pos[1:] == sorted(pos[1:], reverse=True)
            core_units = tuple((a,) for a in core)
            assert naive_brute_force(Formula(tuple(clauses) + core_units, 8)) is None
            assert s.proof.check_refutation(s.labeled_refutation(arg))
