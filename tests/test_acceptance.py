"""Acceptance suite: one test per exit criterion.

Each test prints a single ``criterion N ... PASS/FAIL`` line (run with
``pytest tests/test_acceptance.py -v -s`` to watch them as they finish).
Criteria 1, 2, and 5 share one corpus of reconciliation runs; criteria 6
and 8 share the pigeonhole benchmark sweep, whose CSV is written to
``acceptance_artifacts/`` for inspection.
"""

import itertools
import random
import time
from pathlib import Path

import pytest

from lazysat import ItpSystem, RbcStore, Solver, write_dimacs
from lazysat.cli import RunRecord, _write_csv, run_one
from tests.helpers import (
    brute_force,
    check_interpolant,
    clause_table,
    cnf_table,
    make_tables,
    on_learnt,
    pigeonhole,
    random_3cnf,
    random_circuit,
    shadow_eval,
)

ARTIFACT_DIR = Path(__file__).resolve().parent.parent / "acceptance_artifacts"

CORPUS_SEED = 20260809
RATIOS = (3.0, 4.26, 5.0)
SIZES = {
    3.0: (8, 10, 12, 14, 16, 18, 20, 22, 24),
    4.26: (8, 9, 10, 11, 12, 13, 14),
    5.0: (8, 9, 10, 11, 12),
}
K_VALUES = (1, 2, 3, 5, 8)


_report_started = False


def _report(num: int, name: str, ok: bool, detail: str):
    """One line per criterion, echoed and kept in acceptance_artifacts/."""
    global _report_started
    line = f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'} [{detail}]"
    print(line)
    ARTIFACT_DIR.mkdir(exist_ok=True)
    mode = "a" if _report_started else "w"
    _report_started = True
    with open(ARTIFACT_DIR / "acceptance_report.txt", mode) as fh:
        fh.write(line + "\n")


def _corpus():
    rng = random.Random(CORPUS_SEED)
    instances = []
    for i in range(500):
        ratio = RATIOS[i % 3]
        sizes = SIZES[ratio]
        n = sizes[(i // 3) % len(sizes)]
        instances.append(random_3cnf(rng, n, max(1, round(ratio * n))))
    return instances


@pytest.fixture(scope="module")
def corpus_runs():
    """Criteria 1/2/5 evidence: verdicts vs oracle, interpolant contract
    checks, and proof checks over 500 instances x 5 ks x 3 systems."""
    t0 = time.monotonic()
    mismatches = []
    itp_violations = []
    proof_failures = []
    counters = {"runs": 0, "interpolants": 0, "unsat_runs": 0}

    def observe(event):
        if not isinstance(event, Interpolant):
            return
        counters["interpolants"] += 1
        problems = check_interpolant(event)
        if problems:
            itp_violations.append((event.round, event.partition, problems))

    from lazysat import Interpolant, reconcile

    for idx, f in enumerate(_corpus()):
        want_sat = brute_force(f) is not None
        for k in K_VALUES:
            for system in ItpSystem:
                r = reconcile(f, k, system, on_event=observe)
                counters["runs"] += 1
                if r.verdict != ("SAT" if want_sat else "UNSAT"):
                    mismatches.append((idx, k, system.value, r.verdict))
                if r.verdict == "UNSAT":
                    counters["unsat_runs"] += 1
                    if not r.g_proof.check_refutation(r.g_refutation):
                        proof_failures.append((idx, k, system.value))
    return {
        "mismatches": mismatches,
        "itp_violations": itp_violations,
        "proof_failures": proof_failures,
        "counters": counters,
        "seconds": time.monotonic() - t0,
    }


def _hole_sweep(seed: int):
    """Criterion 6 runner: both pigeonhole files, k in {1, 10, 50}, McMillan."""
    rows = []
    results = {}
    for name, f in (("hole7.cnf", pigeonhole(7, 6)), ("hole8.cnf", pigeonhole(8, 7))):
        for k in (1, 10, 50):
            record, result = run_one(f, name, k, ItpSystem.MCMILLAN, 600.0, seed)
            rows.append(record)
            results[(name, k)] = result
    return rows, results


@pytest.fixture(scope="module")
def hole_runs():
    ARTIFACT_DIR.mkdir(exist_ok=True)
    for name, f in (("hole7.cnf", pigeonhole(7, 6)), ("hole8.cnf", pigeonhole(8, 7))):
        (ARTIFACT_DIR / name).write_text(write_dimacs(f))
    rows, results = _hole_sweep(seed=11)
    _write_csv(rows, str(ARTIFACT_DIR / "hole_sweep.csv"))
    return rows, results


def test_criterion_1_oracle_equivalence(corpus_runs):
    ok = not corpus_runs["mismatches"]
    c = corpus_runs["counters"]
    _report(
        1,
        "oracle equivalence",
        ok,
        f"{c['runs']} runs over 500 instances, "
        f"{len(corpus_runs['mismatches'])} mismatches, {corpus_runs['seconds']:.0f}s",
    )
    assert corpus_runs["mismatches"] == []


def test_criterion_2_interpolant_contract(corpus_runs):
    ok = not corpus_runs["itp_violations"]
    _report(
        2,
        "interpolant contract",
        ok,
        f"{corpus_runs['counters']['interpolants']} interpolants checked, "
        f"{len(corpus_runs['itp_violations'])} violations",
    )
    assert corpus_runs["itp_violations"] == []


def test_criterion_3_worked_example_fixture():
    from lazysat import LABEL_A, UnsatUnderAssumptions, interpolant_from_proof

    failures = []
    for system in ItpSystem:
        s = Solver()
        s.add_clause([1], LABEL_A)
        s.add_clause([-1, 2], LABEL_A)
        out = s.solve([-2])
        assert isinstance(out, UnsatUnderAssumptions)
        rbc = RbcStore()
        ref = interpolant_from_proof(
            s.proof, out.refutation, out.conflict_assumptions, system, rbc
        )
        for x, y in itertools.product([False, True], repeat=2):
            if rbc.evaluate(ref, {1: x, 2: y}) != y:
                failures.append((system.value, x, y))
    _report(3, "worked example fixture", not failures, "3 systems x 4 assignments")
    assert failures == []


def test_criterion_4_conflict_clause_corollary(monkeypatch):
    rng = random.Random(CORPUS_SEED + 4)
    violations = []
    learnt_total = 0
    for idx in range(100):
        n = rng.randint(5, 20)
        f = random_3cnf(rng, n, rng.randint(4 * n, 6 * n))
        vars_ = sorted(f.vars())
        full, tables = make_tables(vars_)
        ftab = cnf_table(f.clauses, full, tables)

        def hook(lits, value_of):
            nonlocal learnt_total
            learnt_total += 1
            if any(value_of(l) != -1 for l in lits):
                violations.append((idx, "not falsified by trail", lits))
            if ftab & (full ^ clause_table(lits, full, tables)):
                violations.append((idx, "not implied by formula", lits))

        s = Solver()
        on_learnt(monkeypatch, s, hook)
        for c in f.clauses:
            s.add_clause(c)
        s.solve()
    _report(
        4,
        "conflict-clause corollary",
        not violations,
        f"{learnt_total} learnt clauses over 100 instances, {len(violations)} violations",
    )
    assert violations == []


def test_criterion_5_proof_checking(corpus_runs, hole_runs):
    failures = list(corpus_runs["proof_failures"])
    _, results = hole_runs
    checked = corpus_runs["counters"]["unsat_runs"]
    for key, result in results.items():
        if result is not None and result.verdict == "UNSAT":
            checked += 1
            if not result.g_proof.check_refutation(result.g_refutation):
                failures.append(key)
    _report(5, "proof checking", not failures, f"{checked} refutations checked")
    assert failures == []


def test_criterion_6_pigeonhole_regression(hole_runs):
    rows, _ = hole_runs
    csv_path = ARTIFACT_DIR / "hole_sweep.csv"
    problems = []
    for row in rows:
        if row.verdict != "UNSAT":
            problems.append((row.file, row.k, row.verdict))
        elif float(row.seconds) > 600.0:
            problems.append((row.file, row.k, f"{row.seconds}s"))
    verdicts_by_file = {}
    for row in rows:
        verdicts_by_file.setdefault(row.file, set()).add(row.verdict)
    disagreement = {f: v for f, v in verdicts_by_file.items() if len(v) > 1}
    ok = not problems and not disagreement and csv_path.exists()
    times = ", ".join(f"{r.file} k={r.k}: {r.seconds}s" for r in rows)
    _report(6, "pigeonhole regression", ok, f"CSV at {csv_path}; {times}")
    assert problems == [] and disagreement == {}
    assert csv_path.exists()


def test_criterion_7_rbc_and_tseitin():
    from itertools import count

    rng = random.Random(CORPUS_SEED + 7)
    eval_mismatches = 0
    tseitin_mismatches = 0
    circuits = 0
    while circuits < 1000:
        store = RbcStore()
        n = rng.randint(1, 8)
        ref, shadow = random_circuit(store, rng, n, rng.randint(1, 5))
        clauses, root = store.to_cnf_tseitin(ref, count(n + 1))
        aux = sorted(
            {abs(l) for c in clauses for l in c if abs(l) > n}
            | ({abs(root)} if abs(root) > n else set())
        )
        if len(aux) > 12:
            continue
        circuits += 1
        # rbc.evaluate against the independent recursive oracle
        inputs = list(itertools.product([False, True], repeat=n))
        shadow_vals = []
        for bits in inputs:
            a = dict(zip(range(1, n + 1), bits))
            want = shadow_eval(shadow, a)
            shadow_vals.append(want)
            if store.evaluate(ref, a) != want:
                eval_mismatches += 1
        # Tseitin equisatisfiability, exhaustively over inputs and auxiliaries:
        # grouping the truth table by input assignment, some auxiliary
        # extension satisfies (clauses and root) exactly when the circuit is
        # true under that input assignment.
        order = list(range(1, n + 1)) + aux
        full, tables = make_tables(order)
        sat = cnf_table(list(clauses) + [(root,)], full, tables)
        block = 1 << len(aux)
        mask = (1 << block) - 1
        for i, want in enumerate(shadow_vals):
            extendable = (sat >> (i * block)) & mask != 0
            if extendable != want:
                tseitin_mismatches += 1
    ok = eval_mismatches == 0 and tseitin_mismatches == 0
    _report(
        7,
        "rbc evaluation and tseitin lowering",
        ok,
        f"1000 circuits; eval mismatches {eval_mismatches}, "
        f"tseitin mismatches {tseitin_mismatches}",
    )
    assert ok


def test_criterion_8_determinism(hole_runs):
    rows_first, _ = hole_runs
    rows_second, _ = _hole_sweep(seed=11)

    def stable(rows: list[RunRecord]):
        return [(r.file, r.k, r.verdict, r.rounds, r.g_clauses) for r in rows]

    same = stable(rows_first) == stable(rows_second)
    _report(8, "determinism", same, "verdicts, round counts, G clause counts")
    assert same
