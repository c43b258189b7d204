"""Craig interpolants from labeled resolution refutations.

Three systems are supported.  Writing V_A / V_B for the variables of the
refutation's A- and B-labeled input leaves, each variable is classified as
A-local, shared, or B-local, and an intermediate interpolant is attached to
every proof node in one bottom-up pass:

McMillan
    A clause: the disjunction of its shared-variable literals; B clause: true.
    Resolution on an A-local pivot joins with OR, otherwise with AND.

HKP (Huang / Krajicek / Pudlak)
    A clause: false; B clause: true.  A-local pivot: OR; B-local pivot: AND;
    shared pivot x: (x or I_left) and (not x or I_right), where the left
    child is the one holding x positively.

Dual McMillan
    McMillan with the roles of A and B swapped, negated at the root.

The interpolant at the empty clause is returned.  The traversal is a single
memoized pass, linear in the number of reachable proof nodes; the caller is
responsible for handing in a checked refutation.
"""

from __future__ import annotations

from enum import Enum

from .cnf import Clause
from .proof import LABEL_A, ProofStore
from .rbc import RbcRef, RbcStore, mk_not


class ItpSystem(Enum):
    MCMILLAN = "mcmillan"
    HKP = "hkp"
    DUAL_MCMILLAN = "dual-mcmillan"


A_LOCAL, SHARED, B_LOCAL = 0, 1, 2


def var_classes(store: ProofStore, root: int) -> dict[int, int]:
    """Classify every variable of the refutation reachable from root.

    Classes are computed from the reachable input leaves only, so clauses
    that do not contribute to the derivation cannot widen V_A or V_B.
    """
    return _leaf_classes(store, store.reachable(root))[0]


def _leaf_classes(store: ProofStore, nodes) -> tuple[dict[int, int], bool]:
    """Classes of the variables of the input leaves among ``nodes``, and
    whether any of those leaves is A-labeled."""
    va: set[int] = set()
    vb: set[int] = set()
    has_a = False
    for nid in nodes:
        node = store.node(nid)
        if node[0] != "I":
            continue
        if node[2] == LABEL_A:
            has_a = True
            va.update(abs(l) for l in node[1])
        else:
            vb.update(abs(l) for l in node[1])
    classes = {}
    for v in va | vb:
        if v in va and v in vb:
            classes[v] = SHARED
        elif v in va:
            classes[v] = A_LOCAL
        else:
            classes[v] = B_LOCAL
    return classes, has_a


def _shared_disjunction(clause: Clause, classes, rbc: RbcStore) -> RbcRef:
    ref = rbc.mk_false()
    for l in clause:
        if classes[abs(l)] == SHARED:
            ref = rbc.mk_or(ref, rbc.mk_lit(l))
    return ref


def initial_interpolant(
    clause: Clause, label: str, system: ItpSystem, classes, rbc: RbcStore
) -> RbcRef:
    """The intermediate interpolant attached to an input clause."""
    if system is ItpSystem.MCMILLAN:
        if label == LABEL_A:
            return _shared_disjunction(clause, classes, rbc)
        return rbc.mk_true()
    if system is ItpSystem.HKP:
        return rbc.mk_false() if label == LABEL_A else rbc.mk_true()
    # Dual McMillan: McMillan with A and B swapped.
    if label == LABEL_A:
        return rbc.mk_true()
    return _shared_disjunction(clause, classes, rbc)


def resolve_interpolant(
    system: ItpSystem,
    pivot_class: int,
    pivot: int,
    i_left: RbcRef,
    i_right: RbcRef,
    rbc: RbcStore,
) -> RbcRef:
    """Combine child interpolants across one resolution step.

    i_left belongs to the child that holds the pivot positively (the proof
    store's orientation convention); the HKP shared case depends on it.
    """
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
        return rbc.mk_and(rbc.mk_or(x, i_left), rbc.mk_or(mk_not(x), i_right))
    # Dual McMillan: swapped classes, i.e. OR exactly on B-local pivots.
    if pivot_class == B_LOCAL:
        return rbc.mk_or(i_left, i_right)
    return rbc.mk_and(i_left, i_right)


def interpolant_from_proof(
    store: ProofStore, root: int, system: ItpSystem, rbc: RbcStore
) -> RbcRef:
    """Interpolant of the refutation rooted at the empty clause ``root``.

    Requires a valid refutation with at least one A-labeled leaf; validity is
    the caller's contract (check_refutation recomputes it when wanted).  The
    result's variables are always within the shared set.
    """
    reachable = store.reachable(root)
    classes, has_a = _leaf_classes(store, reachable)
    if not has_a:
        raise ValueError("refutation has no A-labeled inputs to interpolate against")
    memo: dict[int, RbcRef] = {}
    for nid in reachable:
        node = store.node(nid)
        if node[0] == "I":
            memo[nid] = initial_interpolant(node[1], node[2], system, classes, rbc)
        else:
            _, left, right, pivot = node
            memo[nid] = resolve_interpolant(
                system, classes[pivot], pivot, memo[left], memo[right], rbc
            )
    result = memo[root]
    if system is ItpSystem.DUAL_MCMILLAN:
        result = mk_not(result)
    return result
