"""Craig interpolants of a partition that refuses the shared model.

The loop interpolates (partition, m): the A side is the partition's
clauses, the B side the cube of the shared model's units.  A refusal
comes as a refutation under assumptions, which derives the clause of the
negated conflict assumptions (the core) from A clauses alone.  Resolving
that clause with the core's units would give the labeled refutation of
(A, B); only those units are reached, so exactly the core's variables are
shared and none is B-local.  Over that refutation each system reduces to a
construction from (refutation, core):

McMillan
    Each step that resolves a core unit in is on a shared pivot, so it
    ANDs with the unit's interpolant, true, and leaves the one below it.
    What remains is McMillan's rule on the refutation under assumptions:
    an A clause gives the disjunction of its shared literals, a resolution
    step AND on a shared pivot and OR on any other.

HKP and dual McMillan
    HKP is false on every A-side node: its A leaves are false, and on an
    A-local or shared pivot two false children give false.  Dual McMillan
    is true there.  Resolving in the core unit a then gives (~a or I) under
    HKP, and (a and I) under dual McMillan, which is negated at the root.
    Both are the disjunction of the negated core, the weakest interpolant,
    and build the same circuit without reading the proof: the chain that
    resolving the units in ascending variable order gives, lowest variable
    innermost.  Assumptions are decided in ascending order, so the core
    comes in descending order; folding it lowest first instead makes every
    chain node the negation of a prefix of the sorted core, and refusals
    that agree on their low shared variables share those nodes, and so
    their Tseitin auxiliaries in G.
"""

from __future__ import annotations

from enum import Enum

from .cnf import Lit
from .proof import ProofStore
from .rbc import FALSE, RbcRef, RbcStore


class ItpSystem(Enum):
    MCMILLAN = "mcmillan"
    HKP = "hkp"
    DUAL_MCMILLAN = "dual-mcmillan"


def interpolant_from_proof(
    store: ProofStore,
    root: int,
    core: tuple[Lit, ...],
    system: ItpSystem,
    rbc: RbcStore,
) -> RbcRef:
    """Interpolant of the A clauses under ``root`` against the cube ``core``.

    ``root`` and ``core`` are an UnsatUnderAssumptions outcome's
    ``refutation`` and ``conflict_assumptions``: root derives the clause of
    the negated core from A-labeled inputs only.  Validity is the caller's
    contract.  The result's variables are within the core's.
    """
    if system is not ItpSystem.MCMILLAN:
        ref = FALSE
        for a in sorted(core, key=abs):
            ref = rbc.mk_or(rbc.mk_lit(-a), ref)
        return ref
    shared = {abs(a) for a in core}
    memo: dict[int, RbcRef] = {}
    for nid in store.reachable(root):
        node = store.node(nid)
        if node[0] == "I":
            ref = FALSE
            for l in node[1]:
                if abs(l) in shared:
                    ref = rbc.mk_or(ref, rbc.mk_lit(l))
        else:
            _, left, right, pivot = node
            if pivot in shared:
                ref = rbc.mk_and(memo[left], memo[right])
            else:
                ref = rbc.mk_or(memo[left], memo[right])
        memo[nid] = ref
    return memo[root]
