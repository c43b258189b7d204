import hashlib
import importlib
import random

import pytest

from lazysat import (
    Formula,
    Interpolant,
    ItpSystem,
    Round,
    Sat,
    Solver,
    decompose_lazy,
    eval_formula,
    normalize_clause,
    parse_dimacs,
    reconcile,
)
from lazysat.reconcile import assemble_model
from tests.helpers import (
    brute_force,
    check_interpolant,
    count_projected_models,
    definition_halves,
    holds_under,
    input_leaves,
    pigeonhole,
    random_3cnf,
    reached_halves,
)


def test_unsat_worked_example():
    f = Formula(((1, 2), (-1,), (-2,)), 2)
    r = reconcile(f, 2)
    assert r.verdict == "UNSAT"
    assert r.stats.rounds <= 4
    assert r.g_proof.check_refutation(r.g_refutation)
    # with the clause order that splits as ({~y}, {x v y, ~x}) the shared set
    # is just {y} and the loop needs at most three rounds
    fr = Formula(((-2,), (1, 2), (-1,)), 2)
    rr = reconcile(fr, 2)
    assert rr.verdict == "UNSAT" and rr.stats.rounds <= 3


def test_sat_worked_example():
    f = Formula(((1, 2), (2, 3)), 3)
    r = reconcile(f, 2)
    assert r.verdict == "SAT"
    assert eval_formula(f, r.model)
    assert set(r.model) == {1, 2, 3}


def test_single_partition_degenerates_to_plain_solving():
    f = Formula(((1, 2), (-1,), (-2,)), 2)
    r = reconcile(f, 1)
    assert r.verdict == "UNSAT"
    sat = reconcile(Formula(((1, 2),), 2), 1)
    assert sat.verdict == "SAT"
    assert sat.stats.interpolants == 0


def test_var_disjoint_satisfiable_partitions_are_satisfiable():
    f = Formula(((1, 2), (-1, 2), (3, 4), (-3, 4)), 4)
    r = reconcile(f, 2)
    assert r.verdict == "SAT"
    assert r.stats.rounds == 1


def test_assemble_model_merges_consistently():
    f = Formula(((1, 2), (2, 3), (5, -5)), 5)  # var 4 unused, 5 in a tautology only
    d = decompose_lazy(f, 2)
    assert d.shared_vars == {2}
    m = {2: True}
    private = [{-1}, {3}]  # each partition's true literals over its private vars
    model = assemble_model(m, private, f.vars())
    assert model == {1: False, 2: True, 3: True, 5: False}


def test_soundness_matches_oracle_across_k_and_systems():
    rng = random.Random(101)
    for _ in range(30):
        n = rng.randint(3, 24)
        m = rng.randint(3, min(96, 4 * n))
        f = random_3cnf(rng, n, m)
        want = brute_force(f) is not None
        for k in (1, 2, 3, 5, 8):
            if k > len(f.clauses):
                continue
            for system in ItpSystem:
                r = reconcile(f, k, system)
                assert r.verdict == ("SAT" if want else "UNSAT"), (f, k, system)
                if want:
                    assert eval_formula(f, r.model)
                else:
                    assert r.g_proof.check_refutation(r.g_refutation)


def test_interpolants_satisfy_contract_during_runs():
    rng = random.Random(103)
    violations = []

    def observe(event):
        if isinstance(event, Interpolant):
            violations.extend(check_interpolant(event))

    for _ in range(12):
        n = rng.randint(4, 12)
        f = random_3cnf(rng, n, rng.randint(2 * n, 5 * n))
        for k in (2, 3):
            if k > len(f.clauses):
                continue
            reconcile(f, k, ItpSystem.MCMILLAN, on_event=observe)
    assert violations == []


def test_refining_rounds_strictly_shrink_gs_shared_models():
    rng = random.Random(105)
    seen_progress = 0
    trials = 0
    while seen_progress < 12 and trials < 60:
        trials += 1
        n = rng.randint(4, 8)
        f = random_3cnf(rng, n, rng.randint(2 * n, 5 * n))
        if brute_force(f) is not None:
            continue
        d = decompose_lazy(f, 2)
        shared = sorted(d.shared_vars)
        if not shared or len(shared) > 7:
            continue
        g_so_far = []
        rounds = []  # [shared model, len(g_so_far) at the end of the round]

        def observe(event):
            if isinstance(event, Round):
                rounds.append([event.m, len(g_so_far)])
            else:
                g_so_far.extend(event.g_clauses)
                rounds[-1][1] = len(g_so_far)

        reconcile(f, 2, max_rounds=40, on_event=observe)
        prev_count = None
        prev_len = 0
        for m, g_len in rounds[:10]:
            g_clauses = g_so_far[:g_len]
            if len(g_clauses) > prev_len:
                count = count_projected_models(g_clauses, shared)
                if prev_count is not None:
                    assert count < prev_count
                # the round's own candidate model must now be excluded
                assert not holds_under(g_clauses, m)
                prev_count = count
                seen_progress += 1
            prev_len = len(g_clauses)
    assert seen_progress >= 12


def test_round_count_bounded_by_shared_model_space():
    rng = random.Random(107)
    for _ in range(20):
        n = rng.randint(3, 8)
        f = random_3cnf(rng, n, rng.randint(2 * n, 5 * n))
        for k in (2, 3):
            if k > len(f.clauses):
                continue
            d = decompose_lazy(f, k)
            r = reconcile(f, k)
            assert r.stats.rounds <= 2 ** len(d.shared_vars) + 1


def test_cores_of_one_refusal_are_disjoint_parts_of_m():
    # A refusing partition yields every further core that propagation finds
    # in the rest of m: each core is part of m, and the cores of one
    # (round, partition) are pairwise disjoint, emitted in partition order.
    rng = random.Random(131)
    cases = [(pigeonhole(7, 6), 10, ItpSystem.MCMILLAN), (pigeonhole(7, 6), 10, ItpSystem.HKP)]
    for _ in range(10):
        n = rng.randint(10, 20)
        cases.append((random_3cnf(rng, n, round(4.26 * n)), rng.choice((2, 3)), ItpSystem.MCMILLAN))
    several = 0
    for f, k, system in cases:
        events = []
        r = reconcile(f, k, system, on_event=events.append)
        assert r.verdict in ("SAT", "UNSAT")
        cores: dict[tuple[int, int], list[tuple]] = {}
        m_lits = set()
        last_partition = -1
        for e in events:
            if isinstance(e, Round):
                m_lits = {v if b else -v for v, b in e.m.items()}
                last_partition = -1
                continue
            assert e.partition >= last_partition
            last_partition = e.partition
            assert set(e.core) <= m_lits
            cores.setdefault((e.round, e.partition), []).append(e.core)
        assert sum(map(len, cores.values())) == r.stats.interpolants
        assert len(cores) == r.stats.refusals
        for group in cores.values():
            lits = [l for core in group for l in core]
            assert len(lits) == len(set(lits))
            several += len(group) > 1
    assert several >= 5


def test_no_interpolant_at_k1():
    # One partition has no shared variables, so no assumptions to refuse.
    rng = random.Random(137)
    for f in [pigeonhole(5, 4), pigeonhole(4, 4)] + [
        random_3cnf(rng, 12, 51) for _ in range(6)
    ]:
        events = []
        r = reconcile(f, 1, on_event=events.append)
        assert not any(isinstance(e, Interpolant) for e in events)
        assert (r.stats.rounds, r.stats.refusals, r.stats.interpolants) == (1, 0, 0)


def test_resources_exhausted_rounds():
    f = Formula(((1, 2), (-1,), (-2,)), 2)
    r = reconcile(f, 2, max_rounds=1)
    assert r.verdict == "UNKNOWN" and r.exhausted == "rounds"
    assert r.model is None


def test_resources_exhausted_time():
    from tests.helpers import pigeonhole

    f = pigeonhole(8, 7)
    r = reconcile(f, 2, timeout=0.0)
    assert r.verdict == "UNKNOWN" and r.exhausted == "time"


def test_seeded_completion_is_reproducible():
    f = Formula(((1, 2), (2, 3), (-2, 4), (-4, -1)), 4)
    runs = [reconcile(f, 2, completion_seed=99) for _ in range(2)]
    assert runs[0].verdict == runs[1].verdict
    assert runs[0].stats.rounds == runs[1].stats.rounds
    assert runs[0].model == runs[1].model


def test_all_tautology_formula_is_sat_with_default_model():
    f = Formula(((1, -1), (2, -2)), 3)  # var 3 declared, in no clause
    r = reconcile(f, 2)
    assert r.verdict == "SAT"
    assert r.model == {1: False, 2: False}
    for k in (1, 2):  # no clauses at all: nothing to partition
        r = reconcile(Formula((), 3), k)
        assert r.verdict == "SAT"
        assert r.model == {}


def test_stats_records_shape():
    f = Formula(((1, 2), (-1,), (-2,)), 2)
    r = reconcile(f, 2)
    assert r.stats.interpolants >= 1
    assert r.stats.g_clause_count >= 2
    assert r.stats.peak_itp_nodes >= 1


def _record_solvers(monkeypatch) -> list[Solver]:
    """Every Solver that reconcile makes from now on, in order of creation."""
    module = importlib.import_module("lazysat.reconcile")
    real_solver = module.Solver
    made = []

    def solver(*args, **kwargs):
        made.append(real_solver(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(module, "Solver", solver)
    return made


# Exact counts of fixed runs: (verdict, rounds, G clauses, interpolants,
# G conflicts, per-partition conflicts, G proof nodes, per-partition proof
# nodes).  A change meant to leave the search as it is keeps all of them;
# a change to branching, propagation order, proof logging or the clauses
# G receives moves some.  Every solver here stays below the first
# learnt-clause reduction, at 1,000 conflicts.
_FINGERPRINTS = [
    ("php6-k1", pigeonhole(6, 5), 1, ItpSystem.MCMILLAN,
     ("UNSAT", 1, 0, 0, 0, (139,), 0, (1393,))),
    ("php7-k10-mcmillan", pigeonhole(7, 6), 10, ItpSystem.MCMILLAN,
     ("UNSAT", 97, 298, 133, 532, (0,) * 10, 9038,
      (21, 13, 13, 14, 13, 13, 14, 13, 13, 14))),
    ("php7-k10-hkp", pigeonhole(7, 6), 10, ItpSystem.HKP,
     ("UNSAT", 98, 298, 133, 432, (0,) * 10, 7644,
      (21, 13, 13, 14, 13, 13, 14, 13, 13, 14))),
    ("rand3-n20-seed4-k2", random_3cnf(random.Random(4), 20, 85), 2, ItpSystem.MCMILLAN,
     ("UNSAT", 40, 451, 114, 41, (8, 4), 897, (132, 166))),
]


@pytest.mark.parametrize(
    "f,k,system,expect", [fp[1:] for fp in _FINGERPRINTS], ids=[fp[0] for fp in _FINGERPRINTS]
)
def test_search_fingerprints_are_unchanged(monkeypatch, f, k, system, expect):
    made = _record_solvers(monkeypatch)
    r = reconcile(f, k, system)
    g, parts = made[0], made[1:]  # G is the first solver reconcile makes
    assert (
        r.verdict,
        r.stats.rounds,
        r.stats.g_clause_count,
        r.stats.interpolants,
        g.n_conflicts,
        tuple(p.n_conflicts for p in parts),
        len(g.proof),
        tuple(len(p.proof) for p in parts),
    ) == expect


# A digest of the event stream of each fingerprint run: every Interpolant's
# (round, partition, core, g_clauses), in order.  It moves when the cores
# a refusal gives, or the order G receives them in, move, even where the
# counts above stay.
_EVENT_DIGESTS = {
    "php6-k1": "e3b0c44298fc1c14",
    "php7-k10-mcmillan": "675ad8b0531aa813",
    "php7-k10-hkp": "51c60e6130fa40e5",
    "rand3-n20-seed4-k2": "c7bc1cab9116844d",
}


def _event_digest(f, k, system) -> str:
    events = []
    reconcile(f, k, system, on_event=events.append)
    h = hashlib.sha256()
    for e in events:
        if isinstance(e, Interpolant):
            h.update(repr((e.round, e.partition, e.core, e.g_clauses)).encode())
    return h.hexdigest()[:16]


@pytest.mark.parametrize(
    "f,k,system,name",
    [(*fp[1:4], fp[0]) for fp in _FINGERPRINTS],
    ids=[fp[0] for fp in _FINGERPRINTS],
)
def test_interpolant_event_stream_is_unchanged(f, k, system, name):
    assert _event_digest(f, k, system) == _EVENT_DIGESTS[name]


def test_g_keeps_every_learnt_clause_and_partitions_reduce(monkeypatch):
    import lazysat.solver as solver_mod

    monkeypatch.setattr(solver_mod, "_REDUCE_FIRST", 20)
    monkeypatch.setattr(solver_mod, "_REDUCE_INC", 0)
    made = _record_solvers(monkeypatch)
    r = reconcile(pigeonhole(7, 6), 10, ItpSystem.MCMILLAN)
    g = made[0]
    assert r.verdict == "UNSAT" and r.g_proof.check_refutation(r.g_refutation)
    # G's search is the fingerprint's, reductions due or not
    assert (g.n_conflicts, len(g.proof)) == (532, 9038)
    assert None not in g.clauses and not g._lbd

    del made[:]
    r = reconcile(pigeonhole(6, 5), 1)
    part = made[1]
    assert r.verdict == "UNSAT" and r.g_proof.check_refutation(r.g_refutation)
    assert None in part.clauses  # the partition solver did reduce


def test_auxiliaries_follow_the_largest_variable_in_use(monkeypatch):
    text = "p cnf 2000000 4\n1 2 0\n1 -2 0\n-1 2 0\n-1 -2 0\n"
    made = _record_solvers(monkeypatch)
    r = reconcile(parse_dimacs(text), 2)
    assert r.verdict == "UNSAT" and r.stats.interpolants > 0
    assert made[0]._cap <= 64  # G's arrays never grew toward the header's count

    sat = parse_dimacs("p cnf 1000 2\n1 2 0\n-1 3 0\n")
    r = reconcile(sat, 2)
    assert r.verdict == "SAT" and set(r.model) == {1, 2, 3}  # the variables in use


def _unsat_3cnfs(rng, count):
    out = []
    while len(out) < count:
        n = rng.randint(4, 12)
        f = random_3cnf(rng, n, rng.randint(4 * n, 6 * n))
        if brute_force(f) is None:
            out.append(f)
    return out


_SELF_REFUTING = [
    ("php5-k1", pigeonhole(5, 4), 1),
    ("x-notx-first-k2", Formula(((1,), (-1,), (1, 2), (-2, 3)), 3), 2),
] + [(f"rand3-unsat{i}-k1", f, 1) for i, f in enumerate(_unsat_3cnfs(random.Random(109), 6))]


@pytest.mark.parametrize(
    "f,k", [c[1:] for c in _SELF_REFUTING], ids=[c[0] for c in _SELF_REFUTING]
)
def test_partition_that_refutes_itself_ends_the_run_with_its_own_refutation(f, k):
    # at k=2 the first partition is {(x1), (-x1)}: contradictory on its own
    seen = []
    r = reconcile(f, k, on_event=seen.append)
    assert r.verdict == "UNSAT"
    assert (r.stats.rounds, r.stats.interpolants) == (1, 0)
    assert r.stats.g_clause_count == 0
    assert not any(isinstance(e, Interpolant) for e in seen)
    assert r.g_proof.check_refutation(r.g_refutation)
    clauses_of_f = {normalize_clause(c) for c in f.clauses}
    leaves = input_leaves(r.g_proof, r.g_refutation)
    assert leaves
    for leaf in leaves:
        assert r.g_proof.node(leaf)[1] in clauses_of_f


def _log_partition_calls(monkeypatch):
    """Record (partition, assumptions, outcome) for every partition solve of
    the next reconcile calls."""
    module = importlib.import_module("lazysat.reconcile")
    real_solver = module.Solver
    made = []
    calls = []

    def solver(*args, **kwargs):
        s = real_solver(*args, **kwargs)
        index = len(made) - 1  # -1 is G, the first solver reconcile makes
        made.append(s)
        real_solve = s.solve

        def solve(assumptions=(), **kw):
            out = real_solve(assumptions, **kw)
            if index >= 0:
                calls.append((index, tuple(assumptions), out))
            return out

        s.solve = solve
        return s

    monkeypatch.setattr(module, "Solver", solver)
    return calls


def _satisfies(model, clauses):
    return all(any(model[abs(l)] == (l > 0) for l in c) for c in clauses)


def test_partition_is_asked_exactly_when_its_candidate_fails(monkeypatch):
    # A partition's candidate model is the round's m on its shared variables
    # plus the private values of its last Sat model, all false before the
    # first; a refusal keeps them.  A partition is asked in a round exactly
    # when its candidate falsifies one of its clauses, in partition order,
    # and never again with assumptions it answered.
    rng = random.Random(113)
    cases = [(pigeonhole(7, 6), 10, ItpSystem.MCMILLAN, False),
             (pigeonhole(6, 5), 4, ItpSystem.HKP, False)]
    for _ in range(20):
        n = rng.randint(6, 16)
        f = random_3cnf(rng, n, rng.randint(3 * n, 5 * n))
        k = min(rng.choice((2, 3, 5)), len(f.clauses))
        cases.append((f, k, rng.choice(list(ItpSystem)), brute_force(f) is not None))
    asked = skipped = 0
    for f, k, system, sat in cases:
        log = _log_partition_calls(monkeypatch)
        r = reconcile(f, k, system, on_event=lambda e: isinstance(e, Round) and log.append(e))
        monkeypatch.undo()
        assert r.verdict == ("SAT" if sat else "UNSAT")
        assert r.stats.partition_solves == sum(not isinstance(e, Round) for e in log)
        d = decompose_lazy(f, k)
        private = [dict.fromkeys(part.vars - d.shared_vars, False) for part in d.partitions]
        answered = set()
        for pos, entry in enumerate(log):
            if not isinstance(entry, Round):
                continue
            m = entry.m
            expect = []
            for i, part in enumerate(d.partitions):
                if _satisfies({**private[i], **m}, part.clauses):
                    skipped += 1
                else:
                    expect.append((i, tuple(v if m[v] else -v for v in sorted(part.vars & d.shared_vars))))
            calls = []
            for call in log[pos + 1 :]:
                if isinstance(call, Round):
                    break
                calls.append(call)
            assert [c[:2] for c in calls] == expect, (f, k, system, entry.index)
            for i, assumptions, out in calls:
                asked += 1
                assert (i, assumptions) not in answered
                if isinstance(out, Sat):
                    answered.add((i, assumptions))
                    private[i] = {v: out.model[v] for v in private[i]}
        if sat:  # the model is every partition's candidate in the last round
            for ext in private:
                assert all(r.model[v] == b for v, b in ext.items())
            assert all(r.model[v] == b for v, b in m.items())
    assert asked and skipped


def test_partition_whose_candidate_satisfies_its_clauses_is_not_asked(monkeypatch):
    # Partition 1 refuses m = {1: F} and G then proposes m = {1: T}.  With 1
    # written in, partition 0's candidate {1: T, 3: T, 4: T} from its Sat
    # model still satisfies (1 3) and (-3 4), and partition 1's candidate
    # {1: T, 5: F}, whose private 5 it kept through its refusal, satisfies
    # (1 5) and (1 -5): neither is asked again, and their private values
    # reach the model.  A new search under 1 would have set 3 and 4 false.
    f = Formula(((1, 3), (-3, 4), (1, 5), (1, -5)), 5)
    log = _log_partition_calls(monkeypatch)
    r = reconcile(f, 2)
    assert r.verdict == "SAT" and r.stats.rounds == 2
    assert [(i, a, isinstance(out, Sat)) for i, a, out in log] == [
        (0, (-1,), True), (1, (-1,), False)
    ]
    assert r.stats.partition_solves == 2
    assert r.model == {1: True, 3: True, 4: True, 5: False}


def test_partition_whose_candidate_falsifies_a_clause_is_asked(monkeypatch):
    # As above, but partition 0's candidate {1: T, 3: T} falsifies (-1 -3):
    # partition 0 is solved under m = {1: T}, and partition 1 still is not.
    f = Formula(((1, 3), (-1, -3), (1, 5), (1, -5)), 5)
    log = _log_partition_calls(monkeypatch)
    r = reconcile(f, 2)
    assert r.verdict == "SAT" and r.stats.rounds == 2
    assert [(i, a, isinstance(out, Sat)) for i, a, out in log] == [
        (0, (-1,), True), (1, (-1,), False), (0, (1,), True)
    ]
    assert r.stats.partition_solves == 3
    assert r.model == {1: True, 3: False, 5: False}


def test_partition_without_private_variables_is_asked_only_when_m_falsifies_it(monkeypatch):
    # Partition 0, (-1 -2), has only shared variables: its candidate is m
    # itself, which satisfies it in both rounds, so it is never solved.
    f = Formula(((-1, -2), (1, 3), (2, -3)), 3)
    log = _log_partition_calls(monkeypatch)
    r = reconcile(f, 2)
    assert r.verdict == "SAT" and r.stats.rounds == 2
    assert [(i, a, isinstance(out, Sat)) for i, a, out in log] == [
        (1, (-1, -2), False), (1, (-1, 2), True)
    ]
    assert r.model == {1: False, 2: True, 3: True}
    # Here every variable is shared: the all-false m of round 1 falsifies
    # both partitions, which refuse it, and round 2's m satisfies both.
    f = Formula(((-1, -2), (1, 3), (2, -3), (1, 2)), 3)
    log = _log_partition_calls(monkeypatch)
    r = reconcile(f, 2)
    assert r.verdict == "SAT" and r.stats.rounds == 2
    assert [(i, a, isinstance(out, Sat)) for i, a, out in log] == [
        (0, (-1, -2, -3), False), (1, (-1, -2, -3), False)
    ]


def _interpolant_events(f, k, system):
    events = []
    reconcile(f, k, system, on_event=events.append)
    return [e for e in events if isinstance(e, Interpolant)]


_CORE_CASES = [("php7-k10", pigeonhole(7, 6), 10)] + [
    (f"rand3-{seed}-k2", random_3cnf(random.Random(seed), 12, 55), 2) for seed in (1, 2, 3)
]


@pytest.mark.parametrize("system", [ItpSystem.HKP, ItpSystem.DUAL_MCMILLAN], ids=lambda s: s.value)
@pytest.mark.parametrize("f,k", [c[1:] for c in _CORE_CASES], ids=[c[0] for c in _CORE_CASES])
def test_hkp_and_dual_mcmillan_compute_the_negated_assumption_core(f, k, system):
    # The B side is the cube of shared-model units, so these systems give
    # the weakest interpolant: the clause of the negated core.
    events = _interpolant_events(f, k, system)
    assert events
    for e in events:
        core = e.core
        assert core and e.rbc.vars(e.ref) <= {abs(l) for l in core}
        point = {abs(l): l > 0 for l in core}
        assert e.rbc.evaluate(e.ref, point) is False
        for l in core:
            flipped = dict(point)
            flipped[abs(l)] = not flipped[abs(l)]
            assert e.rbc.evaluate(e.ref, flipped) is True


@pytest.mark.parametrize(
    "f,k", [(pigeonhole(7, 6), 10), (random_3cnf(random.Random(4), 20, 85), 2)],
    ids=["php7-k10", "rand3-n20-seed4-k2"],
)
def test_the_loop_builds_no_labeled_refutation(monkeypatch, f, k):
    # Each partition proof's input nodes are exactly that partition's
    # clauses, in order: no unit of m is ever appended to it.
    def refuse(*args, **kwargs):
        raise AssertionError("labeled_refutation called")

    monkeypatch.setattr(Solver, "labeled_refutation", refuse)
    module = importlib.import_module("lazysat.reconcile")
    real_solver = module.Solver
    made = []

    def solver(*args, **kwargs):
        made.append(real_solver(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(module, "Solver", solver)
    r = reconcile(f, k)
    assert r.verdict == "UNSAT" and r.stats.interpolants > 0
    parts = decompose_lazy(f, k).partitions
    assert len(made) == 1 + len(parts)  # G is the first solver reconcile makes
    for part, part_solver in zip(parts, made[1:]):
        proof = part_solver.proof
        inputs = [proof.node(nid)[1] for nid in range(len(proof)) if proof.node(nid)[0] == "I"]
        assert inputs == [normalize_clause(c) for c in part.clauses]


_LOWERING_CASES = [
    ("php7-k10-mcmillan", pigeonhole(7, 6), 10),
    ("rand3-n20-seed4-k2", random_3cnf(random.Random(4), 20, 85), 2),
]


@pytest.mark.parametrize("f,k", [c[1:] for c in _LOWERING_CASES], ids=[c[0] for c in _LOWERING_CASES])
def test_each_interpolant_node_is_defined_in_g_once_per_run(f, k):
    events = _interpolant_events(f, k, ItpSystem.MCMILLAN)
    defined = []
    reached = set()
    for e in events:
        # Tseitin definition halves, (-a, x), (-a, y) for an AND node the
        # root reaches positively and (a, -x, -y) for one it reaches
        # negatively, then the unit asserting the interpolant's root literal
        *tseitin, root_unit = e.g_clauses
        assert len(root_unit) == 1
        halves = definition_halves(tseitin)
        assert sum(2 if positive else 1 for _, positive in halves) == len(tseitin)
        defined.extend(halves)
        before = len(reached)
        reached |= reached_halves(e.rbc, e.ref)
        # exactly the halves this root is the first of the run to reach
        assert len(halves) == len(reached) - before
    assert len(set(defined)) == len(defined)  # no half is defined twice


# the same two runs, under each test's own system
_RUN_IDS = ["php7-k10", "rand3-n20-seed4-k2"]


@pytest.mark.parametrize("f,k", [c[1:] for c in _LOWERING_CASES], ids=_RUN_IDS)
def test_cores_that_agree_on_their_lowest_variables_share_chain_nodes(f, k):
    # HKP's interpolant is the negated core folded lowest variable first:
    # one AND node per prefix of length 2 or more, each reached negatively,
    # so it lowers to one clause.  A core whose lowest L literals are an
    # earlier core's adds only the nodes above that prefix.
    events = _interpolant_events(f, k, ItpSystem.HKP)
    earlier = []
    longest = 0
    for e in events:
        core = sorted(e.core, key=abs)
        prefix = 0
        for other in earlier:
            n = 0
            while n < min(len(core), len(other)) and core[n] == other[n]:
                n += 1
            prefix = max(prefix, n)
        *tseitin, root_unit = e.g_clauses
        assert all(len(c) == 3 for c in tseitin) and len(root_unit) == 1
        assert len(tseitin) == len(core) - max(prefix, 1)
        longest = max(longest, prefix)
        earlier.append(core)
    assert longest >= 3


@pytest.mark.parametrize("system", list(ItpSystem), ids=lambda s: s.value)
@pytest.mark.parametrize("f,k", [c[1:] for c in _LOWERING_CASES], ids=_RUN_IDS)
def test_every_round_model_satisfies_every_earlier_interpolant(f, k, system):
    # One-polarity lowering keeps the loop's progress: a model of G, read on
    # the shared variables, satisfies every circuit conjoined to G so far.
    events = []
    reconcile(f, k, system, on_event=events.append)
    conjoined = []
    rounds = 0
    for e in events:
        if isinstance(e, Round):
            rounds += 1
            for i in conjoined:
                assert i.rbc.evaluate(i.ref, e.m), (e.index, i.round, i.partition)
        else:
            conjoined.append(e)
    assert rounds > 1 and conjoined
