"""Shared test utilities: instance generators and independent oracles.

Everything here stays deliberately separate from the library's own code
paths: the truth-table machinery below re-derives semantics from scratch so
it can serve as the oracle side of every dual-route check.
"""

from __future__ import annotations

import itertools
import random

from hypothesis import strategies as st

from lazysat import Formula, ItpSystem, ProofError, ProofStore, normalize_clause
from lazysat.cnf import Clause, is_tautology
from lazysat.rbc import FALSE, TRUE, RbcRef, RbcStore

# ---------------------------------------------------------------------------
# instance generators


def random_3cnf(rng: random.Random, n: int, m: int) -> Formula:
    clauses = []
    for _ in range(m):
        vs = rng.sample(range(1, n + 1), min(3, n))
        clauses.append(normalize_clause(v if rng.random() < 0.5 else -v for v in vs))
    return Formula(tuple(clauses), n)


def random_formula(rng: random.Random, n: int, m: int, max_width: int = 3) -> Formula:
    clauses = []
    for _ in range(m):
        w = rng.randint(1, min(max_width, n))
        vs = rng.sample(range(1, n + 1), w)
        clauses.append(normalize_clause(v if rng.random() < 0.5 else -v for v in vs))
    return Formula(tuple(clauses), n)


def pigeonhole(pigeons: int, holes: int) -> Formula:
    """p pigeons into h holes: satisfiable iff p <= h.  Var (i,j) is
    (i-1)*holes + j, read as 'pigeon i sits in hole j'."""
    clauses = []
    for p in range(1, pigeons + 1):
        clauses.append(tuple((p - 1) * holes + h for h in range(1, holes + 1)))
    for h in range(1, holes + 1):
        for p1 in range(1, pigeons + 1):
            for p2 in range(p1 + 1, pigeons + 1):
                clauses.append(
                    normalize_clause(
                        (-((p1 - 1) * holes + h), -((p2 - 1) * holes + h))
                    )
                )
    return Formula(tuple(clauses), pigeons * holes)


# ---------------------------------------------------------------------------
# naive enumeration oracle (small n only)


def naive_brute_force(f: Formula) -> dict[int, bool] | None:
    """First satisfying assignment in lexicographic order, or None."""
    for bits in itertools.product([False, True], repeat=f.num_vars):
        a = dict(zip(range(1, f.num_vars + 1), bits))
        ok = True
        for clause in f.clauses:
            if not any(a[abs(l)] == (l > 0) for l in clause):
                ok = False
                break
        if ok:
            return a
    return None


# ---------------------------------------------------------------------------
# bit-parallel truth tables over an explicit variable ordering
#
# Assignments to (v_1, ..., v_n) map to bit indices with v_1 as the most
# significant bit, so bit index order is lexicographic with false < true.


def make_tables(var_order: list[int]) -> tuple[int, dict[int, int]]:
    n = len(var_order)
    size = 1 << n
    full = (1 << size) - 1
    tables = {}
    for pos, v in enumerate(var_order, start=1):
        block = 1 << (n - pos)
        pattern = ((1 << block) - 1) << block
        span = block << 1
        while span < size:
            pattern |= pattern << span
            span <<= 1
        tables[v] = pattern
    return full, tables


def clause_table(clause, full: int, tables: dict[int, int]) -> int:
    t = 0
    for l in clause:
        vt = tables[abs(l)]
        t |= vt if l > 0 else full ^ vt
    return t


def cnf_table(clauses, full: int, tables: dict[int, int]) -> int:
    acc = full
    for c in clauses:
        acc &= clause_table(c, full, tables)
        if not acc:
            break
    return acc


BRUTE_FORCE_MAX_VARS = 26


def brute_force(f: Formula) -> dict[int, bool] | None:
    """Exhaustive truth-table verdict: a model (the lexicographically first,
    with false < true) or None when unsatisfiable.

    Evaluates every assignment bit-parallel over Python integers; refuses
    formulas beyond BRUTE_FORCE_MAX_VARS variables.
    """
    n = f.num_vars
    if n > BRUTE_FORCE_MAX_VARS:
        raise ValueError(f"brute_force limited to {BRUTE_FORCE_MAX_VARS} vars, got {n}")
    full, tables = make_tables(list(range(1, n + 1)))
    acc = cnf_table(f.clauses, full, tables)
    if not acc:
        return None
    first = (acc & -acc).bit_length() - 1
    return {v: bool((first >> (n - v)) & 1) for v in range(1, n + 1)}


def rbc_table(store: RbcStore, ref: int, full: int, tables: dict[int, int]) -> int:
    """Truth table of a circuit, walking the store's DAG directly."""
    memo: dict[int, int] = {}

    def table_of(node: int) -> int:
        got = memo.get(node)
        if got is None:
            desc = store.node(node)
            if desc[0] == "T":
                got = full
            elif desc[0] == "V":
                got = tables[desc[1]]
            else:
                got = ref_table(desc[1]) & ref_table(desc[2])
            memo[node] = got
        return got

    def ref_table(r: int) -> int:
        t = table_of(r >> 1)
        return full ^ t if r & 1 else t

    return ref_table(ref)


def value(solver, lit) -> int:
    """1 if lit is true in the solver's assignment, -1 if false, 0 if
    unassigned."""
    if abs(lit) > solver._cap:
        return 0
    val = solver._vals[solver._cap + lit]
    return (val > 0) - (val < 0)


def on_learnt(monkeypatch, solver, hook) -> None:
    """Call hook(learnt literals, value of a literal) for every clause the
    solver learns, at learn time: after conflict analysis, before the
    backjump, so the trail is still the one that falsified the clause."""
    analyze = solver._analyze

    def analyze_and_observe(confl):
        out = analyze(confl)
        hook(tuple(out[0]), lambda lit: value(solver, lit))
        return out

    monkeypatch.setattr(solver, "_analyze", analyze_and_observe)


# ---------------------------------------------------------------------------
# proofs built by hand, and the leaves of stored ones


class HandBuiltProof(ProofStore):
    """A proof store for proofs written out by hand.  Each step is validated,
    then appended through the store's unvalidated appenders, and its clause
    kept, so that a resolvent is checked against its premises alone."""

    def __init__(self):
        super().__init__()
        self._derived: dict[int, Clause] = {}

    def add_input(self, clause) -> int:
        norm = normalize_clause(clause)
        if norm and norm[0] == 0:
            raise ProofError(f"literal 0 in input clause {norm}")
        if is_tautology(norm):
            raise ProofError(f"tautological input clause {norm}")
        node_id = self._append_input(norm)
        self._derived[node_id] = norm
        return node_id

    def add_resolvent(self, left: int, right: int, pivot: int) -> int:
        if pivot < 1:
            raise ProofError(f"pivot must be a variable index, got {pivot}")
        if left not in self._derived or right not in self._derived:
            raise ProofError("resolvent children must already exist")
        lc, rc = self._derived[left], self._derived[right]
        if pivot not in lc:
            raise ProofError(f"pivot {pivot} not positive in left clause {lc}")
        if -pivot not in rc:
            raise ProofError(f"pivot {pivot} not negative in right clause {rc}")
        resolvent = frozenset(lc) - {pivot} | (frozenset(rc) - {-pivot})
        if is_tautology(resolvent):
            raise ProofError(f"tautological resolvent from {lc} and {rc} on {pivot}")
        node_id = self._append_resolvent(left, right, pivot)
        self._derived[node_id] = normalize_clause(resolvent)
        return node_id


def input_leaves(proof: ProofStore, root: int) -> list[int]:
    """The input nodes reachable from root, ascending."""
    return [nid for nid in proof.reachable(root) if proof.node(nid)[0] == "I"]


def check_interpolant(rec) -> list[str]:
    """Verify one Interpolant event against the interpolation contract:
    the A side implies it, it contradicts the B side, and it only mentions
    variables common to both sides.  The A side is the input clauses of the
    refutation it was read from, the B side the units of its core.  Returns
    human-readable violations."""
    a_leaves = [rec.proof.node(leaf)[1] for leaf in input_leaves(rec.proof, rec.root)]
    b_leaves = [(a,) for a in rec.core]
    va = {abs(l) for c in a_leaves for l in c}
    vb = {abs(l) for c in b_leaves for l in c}
    problems = []
    ivars = rec.rbc.vars(rec.ref)
    if not ivars <= (va & vb):
        problems.append(f"vars {set(ivars) - (va & vb)} outside shared set")
    all_vars = sorted(va | vb)
    full, tables = make_tables(all_vars)
    itab = rbc_table(rec.rbc, rec.ref, full, tables)
    atab = cnf_table(a_leaves, full, tables)
    if atab & (full ^ itab):
        problems.append("A does not imply interpolant")
    btab = cnf_table(b_leaves, full, tables)
    if itab & btab:
        problems.append("interpolant consistent with B")
    return problems


# ---------------------------------------------------------------------------
# general interpolation over labeled refutations: the reference for
# lazysat.itp, which reads the same interpolants off a refutation under
# assumptions and its core
#
# A labeled refutation is a refutation in a proof store together with the
# set of its input leaves on the B side; every other leaf is on the A side.
# Writing V_A / V_B for the variables of the A- and B-side input leaves,
# each variable is A-local, shared or B-local, and an intermediate
# interpolant is attached to every proof node in one bottom-up pass:
#
# McMillan: A clause, the disjunction of its shared literals; B clause,
#   true.  Resolution on an A-local pivot joins with OR, otherwise with AND.
# HKP (Huang / Krajicek / Pudlak): A clause, false; B clause, true.
#   A-local pivot: OR; B-local pivot: AND; shared pivot x:
#   (x or I_left) and (not x or I_right), the left child holding x positively.
# Dual McMillan: McMillan with A and B swapped, negated at the root.

A_LOCAL, SHARED, B_LOCAL = 0, 1, 2


def var_classes(store: ProofStore, root: int, b_ids) -> dict[int, int]:
    """Classify every variable of the refutation reachable from root, from
    the reachable input leaves only; those in ``b_ids`` are on the B side."""
    return _leaf_classes(store, store.reachable(root), b_ids)[0]


def _leaf_classes(store: ProofStore, nodes, b_ids) -> tuple[dict[int, int], bool]:
    """Classes of the variables of the input leaves among ``nodes``, those
    in ``b_ids`` on the B side, and whether any of those leaves is on the A
    side."""
    va: set[int] = set()
    vb: set[int] = set()
    has_a = False
    for nid in nodes:
        node = store.node(nid)
        if node[0] != "I":
            continue
        if nid in b_ids:
            vb.update(abs(l) for l in node[1])
        else:
            has_a = True
            va.update(abs(l) for l in node[1])
    classes = {}
    for v in va | vb:
        if v in va and v in vb:
            classes[v] = SHARED
        elif v in va:
            classes[v] = A_LOCAL
        else:
            classes[v] = B_LOCAL
    return classes, has_a


def _shared_disjunction(clause, classes, rbc: RbcStore) -> RbcRef:
    ref = FALSE
    for l in clause:
        if classes[abs(l)] == SHARED:
            ref = rbc.mk_or(ref, rbc.mk_lit(l))
    return ref


def initial_interpolant(clause, in_b: bool, system: ItpSystem, classes, rbc) -> RbcRef:
    """The intermediate interpolant attached to an input clause, on the B
    side when ``in_b``."""
    if system is ItpSystem.MCMILLAN:
        return TRUE if in_b else _shared_disjunction(clause, classes, rbc)
    if system is ItpSystem.HKP:
        return TRUE if in_b else FALSE
    if not in_b:  # dual McMillan: McMillan with A and B swapped
        return TRUE
    return _shared_disjunction(clause, classes, rbc)


def resolve_interpolant(system, pivot_class, pivot, i_left, i_right, rbc) -> RbcRef:
    """Combine child interpolants across one resolution step; i_left belongs
    to the child that holds the pivot positively."""
    if system is ItpSystem.MCMILLAN:
        if pivot_class == A_LOCAL:
            return rbc.mk_or(i_left, i_right)
        return rbc.mk_and(i_left, i_right)
    if system is ItpSystem.HKP:
        if pivot_class == A_LOCAL:
            return rbc.mk_or(i_left, i_right)
        if pivot_class == B_LOCAL:
            return rbc.mk_and(i_left, i_right)
        x = rbc.mk_var(pivot)
        return rbc.mk_and(rbc.mk_or(x, i_left), rbc.mk_or(x ^ 1, i_right))
    if pivot_class == B_LOCAL:  # dual McMillan: OR exactly on B-local pivots
        return rbc.mk_or(i_left, i_right)
    return rbc.mk_and(i_left, i_right)


def reference_interpolant(
    store: ProofStore, root: int, b_ids, system: ItpSystem, rbc: RbcStore
) -> RbcRef:
    """Interpolant of the labeled refutation rooted at the empty clause
    ``root`` whose B-side leaves are ``b_ids``, by one memoized pass over
    its reachable nodes.  Raises ValueError when no reachable leaf is on
    the A side."""
    reachable = store.reachable(root)
    classes, has_a = _leaf_classes(store, reachable, b_ids)
    if not has_a:
        raise ValueError("refutation has no A-side inputs to interpolate against")
    memo: dict[int, RbcRef] = {}
    for nid in reachable:
        node = store.node(nid)
        if node[0] == "I":
            memo[nid] = initial_interpolant(node[1], nid in b_ids, system, classes, rbc)
        else:
            _, left, right, pivot = node
            memo[nid] = resolve_interpolant(
                system, classes[pivot], pivot, memo[left], memo[right], rbc
            )
    result = memo[root]
    if system is ItpSystem.DUAL_MCMILLAN:
        result ^= 1
    return result


def labeled_refutation(
    proof: ProofStore, root: int, core
) -> tuple[ProofStore, int, set[int]]:
    """The labeled refutation of (A, core units) in a new store: the subproof
    under ``root``, which derives the negated core from A leaves, copied,
    then resolved with one B-side unit per core literal in core order, as
    Solver.labeled_refutation does.  Returns the store, its root and the
    ids of the units."""
    out = HandBuiltProof()
    remap = {}
    for nid in proof.reachable(root):
        node = proof.node(nid)
        if node[0] == "I":
            remap[nid] = out.add_input(node[1])
        else:
            _, left, right, pivot = node
            remap[nid] = out.add_resolvent(remap[left], remap[right], pivot)
    node = remap[root]
    b_ids = set()
    for a in core:
        unit = out.add_input((a,))
        b_ids.add(unit)
        if a > 0:
            node = out.add_resolvent(unit, node, a)
        else:
            node = out.add_resolvent(node, unit, -a)
    return out, node, b_ids


# ---------------------------------------------------------------------------
# text for fuzzing the parser and the command line


# DIMACS-like text.  Most lines are zero-terminated clauses, so that many
# texts parse; the rest are runs of literals, near-misses of the format and
# free text.
_LITS = [str(i) for i in range(-9, 10) if i]
_TOKENS = _LITS + ["0", "-0", "+3", "00", "1_0", "x", "c", "p", "cnf", "%", "", "\t"]
_HEADERS = ["p cnf 9 3"] * 3 + ["", "p cnf 0 0", "p  cnf  4 x", "p cnf -1 2", "p dnf 2 1"]
_clauses = st.lists(st.sampled_from(_LITS), max_size=4).map(lambda ls: " ".join([*ls, "0"]))
_lines = st.lists(st.sampled_from(_TOKENS), max_size=6).map(" ".join)
dimacs_texts = st.builds(
    lambda head, body, sep: sep.join([head, *body]),
    st.sampled_from(_HEADERS),
    st.lists(st.one_of(_clauses, _clauses, _lines, st.text(max_size=4)), max_size=6),
    st.sampled_from(["\n", "\r\n", "\n\n"]),
)


# ---------------------------------------------------------------------------
# miniature DPLL, used to project a growing clause set onto selected vars


def _assign(clauses: list[frozenset[int]], lit: int) -> list[frozenset[int]] | None:
    """Simplify under lit; None signals an emptied clause (conflict)."""
    out = []
    for c in clauses:
        if lit in c:
            continue
        c2 = c - {-lit}
        if not c2:
            return None
        out.append(c2)
    return out


def _dpll(clauses: list[frozenset[int]]) -> bool:
    if any(not c for c in clauses):
        return False
    while True:
        unit = next((next(iter(c)) for c in clauses if len(c) == 1), None)
        if unit is None:
            break
        clauses = _assign(clauses, unit)
        if clauses is None:
            return False
    if not clauses:
        return True
    lit = min(clauses[0], key=abs)
    for choice in (lit, -lit):
        reduced = _assign(clauses, choice)
        if reduced is not None and _dpll(reduced):
            return True
    return False


def count_projected_models(clauses, on_vars: list[int]) -> int:
    """Count assignments to on_vars extendable to a model of the clauses."""
    base = [frozenset(c) for c in clauses]
    count = 0
    for bits in itertools.product([False, True], repeat=len(on_vars)):
        units = [v if b else -v for v, b in zip(on_vars, bits)]
        if _dpll(base + [frozenset((u,)) for u in units]):
            count += 1
    return count


def holds_under(clauses, assignment: dict[int, bool]) -> bool:
    base = [frozenset(c) for c in clauses]
    units = [frozenset((v if b else -v,)) for v, b in assignment.items()]
    return _dpll(base + units)


# ---------------------------------------------------------------------------
# one-polarity Tseitin lowering, read back from the clauses


def reached_halves(store: RbcStore, ref: RbcRef) -> set[tuple[int, bool]]:
    """The (AND node, polarity) pairs that ref, asserted, reaches: a
    complement edge flips the polarity passed down."""
    out, stack = set(), [(ref >> 1, not ref & 1)]
    while stack:
        n, positive = stack.pop()
        node = store.node(n)
        if node[0] == "A" and (n, positive) not in out:
            out.add((n, positive))
            stack.extend((child >> 1, positive != bool(child & 1)) for child in node[1:])
    return out


def definition_halves(clauses) -> list[tuple[int, bool]]:
    """The (auxiliary, polarity) definition halves among Tseitin clauses: an
    AND node a = x & y reached positively lowers to (-a, x), (-a, y), and
    reached negatively to (a, -x, -y)."""
    pos = [-c[0] for c in clauses if len(c) == 2]
    assert pos[::2] == pos[1::2]  # a positive half's two clauses are adjacent
    return [(a, True) for a in pos[::2]] + [(c[0], False) for c in clauses if len(c) == 3]


# ---------------------------------------------------------------------------
# random circuits with a shadow AST (the independent evaluator for rbc tests)


def random_circuit(store: RbcStore, rng: random.Random, n_vars: int, depth: int):
    """Build a random circuit in the store plus a parallel shadow AST."""
    if depth == 0 or rng.random() < 0.3:
        v = rng.randint(1, n_vars)
        return store.mk_var(v), ("var", v)
    op = rng.choice(["and", "or", "not", "const"])
    if op == "const":
        return (TRUE, ("true",)) if rng.random() < 0.5 else (FALSE, ("false",))
    if op == "not":
        r, sh = random_circuit(store, rng, n_vars, depth - 1)
        return r ^ 1, ("not", sh)
    a, sa = random_circuit(store, rng, n_vars, depth - 1)
    b, sb = random_circuit(store, rng, n_vars, depth - 1)
    if op == "and":
        return store.mk_and(a, b), ("and", sa, sb)
    return store.mk_or(a, b), ("or", sa, sb)


def shadow_eval(sh, a) -> bool:
    kind = sh[0]
    if kind == "var":
        return a[sh[1]]
    if kind == "true":
        return True
    if kind == "false":
        return False
    if kind == "not":
        return not shadow_eval(sh[1], a)
    if kind == "and":
        return shadow_eval(sh[1], a) and shadow_eval(sh[2], a)
    return shadow_eval(sh[1], a) or shadow_eval(sh[2], a)
