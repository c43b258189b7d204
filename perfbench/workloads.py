"""The benchmark's workloads: instance texts and solve schedules from a seed.

A workload is a list of instances (DIMACS text plus an answer that does not
come from lazysat) and one pass: the ordered list of (instance, k, system)
solves.  The same seed always yields the same pass.  Each pass is built so
that its mix of families, sizes, partition counts and systems is the same
for every seed; the seed draws a share of the random formulas and the
order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import count

from instances import (
    SAT,
    UNSAT,
    dpll,
    pigeonhole,
    planted_3cnf,
    random_3cnf,
    to_dimacs,
    tseitin_parity,
)

MCMILLAN, HKP, DUAL = "mcmillan", "hkp", "dual-mcmillan"

# Ratio of clauses to variables for random and planted 3-CNF.
THRESHOLD = 4.26

# Per-solve time budget in seconds; past it a solve is UNKNOWN, so failed.
BUDGET_S = 60.0


@dataclass(frozen=True)
class Instance:
    name: str
    num_vars: int
    clauses: tuple[tuple[int, ...], ...]
    text: str
    answer: str  # SAT or UNSAT, known independently of lazysat


@dataclass(frozen=True)
class Solve:
    instance: int  # index into Workload.instances
    k: int
    system: str


@dataclass(frozen=True)
class Workload:
    name: str
    instances: tuple[Instance, ...]
    solves: tuple[Solve, ...]


def _instance(name: str, num_vars: int, clauses, answer: str) -> Instance:
    clauses = tuple(tuple(c) for c in clauses)
    return Instance(name, num_vars, clauses, to_dimacs(num_vars, list(clauses)), answer)


def php_kcurve(name: str, seed: int) -> Workload:
    """Pigeonhole php(p, p-1): the paper's k-curve, where G is conflict-bound.

    php7 and php8 run at six points of the curve per system; php9, the
    expensive end, at two under McMillan.  Pigeonhole has one formula per
    size and the points are fixed, so the seed only sets the order: drawing
    k from buckets let the seed move the tail, since php8 takes 1-2.6 s at
    k = 12 or 13 and about 0.5 s at k = 14.  php9 at k = 10 is left out:
    one solve of 5-10 s was a third of a pass, so a pass did not fit twice
    in a run, and its time alone swung the pass total."""
    rng = random.Random(f"{name}:{seed}")
    instances = []
    for p in (7, 8, 9):
        nv, clauses = pigeonhole(p, p - 1)
        instances.append(_instance(f"php{p}", nv, clauses, UNSAT))
    solves = []
    for idx in (0, 1):
        for system in (MCMILLAN, HKP):
            solves += [Solve(idx, k, system) for k in (10, 18, 26, 34, 42, 50)]
    solves += [Solve(2, k, MCMILLAN) for k in (25, 50)]
    rng.shuffle(solves)
    return Workload(name, tuple(instances), tuple(solves))


# Random families draw most instances from a fixed core stream and the rest
# from the run's seed.  The core keeps medians steady across seeds (the
# hardness of one random instance varies a hundredfold, and one in 16 fresh
# still let a single hard draw move k1-cdcl's tail and throughput by a
# sixth); the fresh share means a claim is also tested on instances nobody
# tuned against.
FRESH_EVERY = 32  # one random instance in 32 comes from the seed


def _streams(name: str, seed: int):
    """A function giving, per random instance in turn, the generator to
    draw it from; and the seed's generator itself."""
    core = random.Random(f"{name}:core")
    fresh = random.Random(f"{name}:{seed}")
    drawn = count()

    def stream() -> random.Random:
        return fresh if next(drawn) % FRESH_EVERY == FRESH_EVERY - 1 else core

    return stream, fresh


RAND3_SIZES = (28, 32)
RAND3_PER_ANSWER = 16  # SAT and UNSAT instances each, split over RAND3_SIZES


def rand3_threshold(name: str, seed: int) -> Workload:
    """Random 3-CNF at the satisfiability threshold, half SAT and half UNSAT
    by the DPLL answer, each instance solved at k = 2, 10 and 20 with the
    interpolation system rotating over all three."""
    stream, fresh = _streams(name, seed)
    instances = []
    per_size = RAND3_PER_ANSWER // len(RAND3_SIZES)
    for n in RAND3_SIZES:
        for answer in (SAT, UNSAT):
            for _ in range(per_size):
                rng = stream()
                while True:
                    clauses = random_3cnf(rng, n, round(THRESHOLD * n))
                    if (dpll(n, clauses) is not None) == (answer == SAT):
                        break
                instances.append(_instance(f"rand3-n{n}-{len(instances)}", n, clauses, answer))
    systems = (MCMILLAN, HKP, DUAL)
    solves = [
        Solve(i, k, systems[(i + j) % 3])
        for i in range(len(instances))
        for j, k in enumerate((2, 10, 20))
    ]
    fresh.shuffle(solves)
    return Workload(name, tuple(instances), tuple(solves))


PARITY_SIZES = (28, 30)
PARITY_COUNT = 48
PLANTED_SIZES = (160, 180)
PLANTED_COUNT = 32


def k1_cdcl(name: str, seed: int) -> Workload:
    """k = 1, the CLI default: all search happens in one partition solver.
    Odd-charge Tseitin parity (UNSAT), planted 3-CNF (SAT) and php(7,6).

    php(8,7) is left out: as one 3-5 s solve it was a third of a pass, and
    its time swung 2.3x between runs against 1.3x for the rest of the pass,
    so it alone set the spread of ``verdicts_per_s``."""
    stream, fresh = _streams(name, seed)
    instances = []
    for i in range(PARITY_COUNT):
        n = PARITY_SIZES[i % len(PARITY_SIZES)]
        nv, clauses = tseitin_parity(stream(), n)
        instances.append(_instance(f"parity-n{n}-{i}", nv, clauses, UNSAT))
    for i in range(PLANTED_COUNT):
        n = PLANTED_SIZES[i % len(PLANTED_SIZES)]
        clauses = planted_3cnf(stream(), n, round(THRESHOLD * n))
        instances.append(_instance(f"planted-n{n}-{i}", n, clauses, SAT))
    nv, clauses = pigeonhole(7, 6)
    instances.append(_instance("php7", nv, clauses, UNSAT))
    solves = [Solve(i, 1, MCMILLAN) for i in range(len(instances))]
    fresh.shuffle(solves)
    return Workload(name, tuple(instances), tuple(solves))


BUILDERS = {
    "php-kcurve": php_kcurve,
    "rand3-threshold": rand3_threshold,
    "k1-cdcl": k1_cdcl,
}


def build(name: str, seed: int) -> Workload:
    return BUILDERS[name](name, seed)
