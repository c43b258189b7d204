"""Instance generators and independent answers for the benchmark.

Nothing here imports lazysat: the generators write DIMACS text, and the
answers (by construction, or from the small DPLL below) and the model
check are re-derived from the generated clause lists alone.

Clauses are tuples of signed integers in the DIMACS convention.
"""

from __future__ import annotations

import random

SAT = "SAT"
UNSAT = "UNSAT"


def to_dimacs(num_vars: int, clauses: list[tuple[int, ...]]) -> str:
    lines = [f"p cnf {num_vars} {len(clauses)}"]
    lines.extend(" ".join(map(str, c)) + " 0" for c in clauses)
    return "\n".join(lines) + "\n"


def pigeonhole(pigeons: int, holes: int) -> tuple[int, list[tuple[int, ...]]]:
    """Pigeon i sits in hole j is variable (i-1)*holes + j.  Every pigeon's
    at-least-one clause comes first, then each hole's at-most-one pairs, so
    contiguous partitions follow the formula's natural structure.
    Unsatisfiable whenever pigeons > holes."""
    def var(i: int, j: int) -> int:
        return (i - 1) * holes + j

    clauses = [tuple(var(i, j) for j in range(1, holes + 1)) for i in range(1, pigeons + 1)]
    for j in range(1, holes + 1):
        for i1 in range(1, pigeons + 1):
            for i2 in range(i1 + 1, pigeons + 1):
                clauses.append((-var(i1, j), -var(i2, j)))
    return pigeons * holes, clauses


def random_3cnf(rng: random.Random, n: int, m: int) -> list[tuple[int, ...]]:
    """m clauses, each over three distinct variables with random signs."""
    clauses = []
    for _ in range(m):
        vs = rng.sample(range(1, n + 1), 3)
        clauses.append(tuple(v if rng.random() < 0.5 else -v for v in vs))
    return clauses


def planted_3cnf(rng: random.Random, n: int, m: int) -> list[tuple[int, ...]]:
    """Random 3-clauses kept only when a hidden assignment satisfies them,
    so the formula is satisfiable by construction."""
    hidden = [False] + [rng.random() < 0.5 for _ in range(n)]
    clauses = []
    while len(clauses) < m:
        vs = rng.sample(range(1, n + 1), 3)
        c = tuple(v if rng.random() < 0.5 else -v for v in vs)
        if any(hidden[abs(l)] == (l > 0) for l in c):
            clauses.append(c)
    return clauses


def random_3regular_graph(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """Edges of a uniform-ish random 3-regular simple graph on vertices
    0..n-1 (n even): configuration-model pairing, retried until the pairing
    has no self-loops and no repeated edges."""
    if n % 2 or n < 4:
        raise ValueError(f"a 3-regular graph needs an even vertex count >= 4, got {n}")
    while True:
        stubs = [v for v in range(n) for _ in range(3)]
        rng.shuffle(stubs)
        edges = set()
        ok = True
        for a, b in zip(stubs[0::2], stubs[1::2]):
            e = (min(a, b), max(a, b))
            if a == b or e in edges:
                ok = False
                break
            edges.add(e)
        if ok:
            return sorted(edges)


def tseitin_parity(rng: random.Random, n: int) -> tuple[int, list[tuple[int, ...]]]:
    """Tseitin parity formula on a random 3-regular graph with n vertices.

    Edge e is variable e+1; vertex v asserts that the XOR of its incident
    edges equals its charge.  Charges are random with an odd total, which
    makes the formula unsatisfiable (every edge is counted at two vertices,
    so the XOR of all vertex constraints is 0 = 1)."""
    edges = random_3regular_graph(rng, n)
    charge = [rng.random() < 0.5 for _ in range(n)]
    if sum(charge) % 2 == 0:
        charge[rng.randrange(n)] ^= True
    incident: list[list[int]] = [[] for _ in range(n)]
    for e, (a, b) in enumerate(edges):
        incident[a].append(e + 1)
        incident[b].append(e + 1)
    clauses = []
    for v in range(n):
        xs = incident[v]
        # Forbid every assignment of the three edges whose parity differs
        # from the charge: one clause per forbidden assignment.
        for mask in range(8):
            bits = [(mask >> i) & 1 for i in range(3)]
            if sum(bits) % 2 != charge[v]:
                clauses.append(tuple(-x if b else x for x, b in zip(xs, bits)))
    return len(edges), clauses


def satisfies(clauses: list[tuple[int, ...]], model: dict[int, bool]) -> bool:
    """Every clause has a literal the model makes true; a variable the model
    leaves out counts as unsatisfying."""
    for c in clauses:
        if not any(model.get(abs(l)) == (l > 0) for l in c):
            return False
    return True


def dpll(num_vars: int, clauses: list[tuple[int, ...]]) -> dict[int, bool] | None:
    """A model or None, by plain DPLL: unit propagation over occurrence
    lists and branching on the variable that occurs most often in the
    shortest open clauses.  Small and slow by design; it shares no code or
    ideas of representation with the solver under test."""
    occurs: dict[int, list[int]] = {}
    for ci, c in enumerate(clauses):
        for l in c:
            occurs.setdefault(l, []).append(ci)
    value: dict[int, bool] = {}

    def lit_true(l: int) -> bool | None:
        v = value.get(abs(l))
        return None if v is None else v == (l > 0)

    def propagate(trail: list[int], lit: int) -> bool:
        queue = [lit]
        while queue:
            l = queue.pop()
            t = lit_true(l)
            if t is True:
                continue
            if t is False:
                return False
            value[abs(l)] = l > 0
            trail.append(abs(l))
            for ci in occurs.get(-l, ()):
                unassigned = None
                count = 0
                sat = False
                for q in clauses[ci]:
                    tq = lit_true(q)
                    if tq is True:
                        sat = True
                        break
                    if tq is None:
                        count += 1
                        unassigned = q
                if sat:
                    continue
                if count == 0:
                    return False
                if count == 1:
                    queue.append(unassigned)
        return True

    def pick() -> int | None:
        best_len = 4
        score: dict[int, int] = {}
        for c in clauses:
            open_lits = []
            for q in c:
                tq = lit_true(q)
                if tq is True:
                    break
                if tq is None:
                    open_lits.append(q)
            else:
                if not open_lits:
                    continue
                if len(open_lits) < best_len:
                    best_len = len(open_lits)
                    score = {}
                if len(open_lits) == best_len:
                    for q in open_lits:
                        score[q] = score.get(q, 0) + 1
        if not score:
            return None
        return max(score, key=lambda q: (score[q] + score.get(-q, 0), score[q], -abs(q), q))

    def search(trail: list[int]) -> bool:
        lit = pick()
        if lit is None:
            return True
        for choice in (lit, -lit):
            sub: list[int] = []
            if propagate(sub, choice) and search(sub):
                trail.extend(sub)
                return True
            for v in sub:
                del value[v]
        return False

    root: list[int] = []
    for c in clauses:
        if not c:
            return None
    units = [c[0] for c in clauses if len(c) == 1]
    for u in units:
        if not propagate(root, u):
            return None
    if not search(root):
        return None
    return {v: value.get(v, False) for v in range(1, num_vars + 1)}
