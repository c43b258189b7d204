"""Lazy decomposition: split the clause list into k contiguous partitions.

No connectivity analysis is done; partition i simply covers clause indices
[floor(i*n/k), floor((i+1)*n/k)).  Variables occurring in two or more
partitions form the shared set, the vocabulary over which partition models
are reconciled.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cnf import Clause, Formula, is_tautology


@dataclass(frozen=True)
class Partition:
    index: int
    start: int  # clause index range in the source formula, half-open
    end: int
    clauses: tuple[Clause, ...]  # tautology placeholders dropped
    vars: frozenset[int]


@dataclass(frozen=True)
class Decomposition:
    partitions: tuple[Partition, ...]
    shared_vars: frozenset[int]


def decompose_lazy(f: Formula, k: int) -> Decomposition:
    """Split f into k equal contiguous clause ranges (sizes differ by <= 1).

    Tautological placeholder clauses keep their index for the range
    arithmetic but are excluded from the partition's clause list and
    variable set.
    """
    n = len(f.clauses)
    if not 1 <= k <= n:
        raise ValueError(f"partition count {k} outside 1..{n}")
    partitions = []
    for i in range(k):
        start = i * n // k
        end = (i + 1) * n // k
        clauses = tuple(
            c for c in f.clauses[start:end] if not is_tautology(c)
        )
        vs = frozenset(abs(l) for c in clauses for l in c)
        partitions.append(Partition(i, start, end, clauses, vs))
    seen: set[int] = set()
    shared: set[int] = set()
    for p in partitions:
        shared.update(p.vars & seen)
        seen.update(p.vars)
    return Decomposition(tuple(partitions), frozenset(shared))
