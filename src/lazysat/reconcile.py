"""Model reconciliation across lazy partitions via Craig interpolants.

The loop maintains a global formula G over the decomposition's shared
variables (plus Tseitin auxiliaries).  Each round: solve G and read off a
total shared-variable model m (unconstrained variables default to false);
try to extend m into every partition by solving it under m as assumptions;
for every partition that refuses, interpolate (partition, m) from its
refutation and the assumption core it rests on, and conjoin the
interpolant to G.  A round with no refusals assembles and verifies a full
model; G becoming unsatisfiable proves the input unsatisfiable.

A refusing partition is then probed for further cores of m without a
search (disjoint cores, as core-guided MaxSAT takes them): the literals of
its cores so far are dropped from the assumptions, and the rest are placed
again with unit propagation alone.  An assumption that comes out false
gives a new core, disjoint from the earlier ones, whose refutation derives
its negated clause from the partition's clauses alone; it is interpolated
and conjoined to G like the first.  Probing stops when the rest places
with nothing false or propagation conflicts, which learns nothing.  Each
probe drops at least one assumption, so it ends.  Several cores in one
round save G the rounds that would have proposed each in turn.

A partition whose clauses alone are contradictory refutes the input
itself: its interpolant could only be false, so the run ends there with
UNSAT and that partition's own refutation, whose leaves are input clauses
of f, is the certificate.  No interpolant is built and G is not solved
again.  At k=1 every UNSAT verdict is reached this way, in round 1.

Each partition has a candidate model in every round: m on its shared
variables plus the private values of its last Sat model, all false before
the first.  A refusal keeps them, since it says nothing against them.  A
partition is solved under m only when its candidate falsifies one of its
clauses; otherwise the candidate is its model for the round.  The check is
skipped while the partition's shared values are those under which its
candidate last passed.  Its input clauses suffice for the check: every
learnt clause follows from them, so a model of the inputs satisfies the
learnts too.  A partition with no private variable is thus solved only
when m falsifies it, and then it refuses.
Interpolants from all failing partitions of a round are conjoined before G
is re-solved, in ascending partition order and then core order, and all
solvers are incremental across rounds.
Everything is deterministic unless a seeded random completion for
unconstrained shared variables is requested.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from itertools import count
from typing import Callable, Iterable

from .cnf import Clause, Formula, Lit, eval_formula
from .decomp import Decomposition, decompose_lazy
from .itp import ItpSystem, interpolant_from_proof
from .proof import LABEL_A, ProofStore
from .rbc import RbcRef, RbcStore
from .solver import BudgetExceeded, Sat, Solver, Unsat

DEFAULT_MAX_ROUNDS = 100_000


@dataclass(frozen=True)
class Round:
    """G's model of round ``index`` has been read into the shared model m."""

    index: int
    m: dict[int, bool]


@dataclass(frozen=True)
class Interpolant:
    """One interpolant conjoined to G, one per core of a refusal.

    ``root`` is the partition's refutation in ``proof`` it was read from,
    which derives the clause of the negated ``core`` from the partition's
    clauses alone; ``core`` holds the shared-model units the refusal rests
    on, in conflict order.  The cores of one (round, partition) are
    pairwise disjoint: the first comes from the partition's search, each
    later one from propagating the rest of m.  ``g_clauses`` are the
    clauses it put into G: the halves of Tseitin definitions, one per
    (node, polarity) in which its root reaches a circuit node and no
    earlier interpolant of the run did, followed by the unit asserting its
    root literal.  Nodes lowered before keep their auxiliaries and the
    halves earlier events' clauses defined, so an interpolant whose circuit
    is already in G in the polarities it needs adds only its root unit.
    """

    round: int
    partition: int
    ref: RbcRef
    rbc: RbcStore
    proof: ProofStore
    root: int
    core: tuple[Lit, ...]
    g_clauses: tuple[Clause, ...]


Event = Round | Interpolant


@dataclass
class ReconcileStats:
    rounds: int = 0
    g_clause_count: int = 0
    peak_itp_nodes: int = 0
    interpolants: int = 0
    refusals: int = 0  # partition solves that refused m; each gives 1+ interpolants
    partition_solves: int = 0  # partition solve calls; probes for further cores not counted


@dataclass
class ReconcileResult:
    verdict: str  # "SAT" | "UNSAT" | "UNKNOWN"
    model: dict[int, bool] | None
    stats: ReconcileStats
    exhausted: str | None = None  # "rounds" | "time" when verdict is UNKNOWN
    # The refutation that decided UNSAT: G's, or that of a partition whose
    # clauses alone are contradictory, whose leaves are then clauses of f.
    # check_refutation verifies either as it stands.
    g_proof: ProofStore | None = None
    g_refutation: int | None = None


def assemble_model(
    m: dict[int, bool],
    extensions: dict[int, dict[int, bool]],
    decomposition: Decomposition,
    variables: Iterable[int],
) -> dict[int, bool]:
    """Merge the shared model with each partition's private extension.

    Extensions must agree with m on shared variables (the assumption
    mechanism guarantees it; disagreement means a bug, not an input error).
    The model covers ``variables``, the variables occurring in the input;
    those in no partition, which occur only in tautological clauses, are
    false.
    """
    model = dict.fromkeys(variables, False)
    model.update(m)
    for i, ext in extensions.items():
        part = decomposition.partitions[i]
        for v in part.vars:
            if v in m:
                if ext[v] != m[v]:
                    raise RuntimeError(
                        f"internal: partition {i} extension disagrees on shared var {v}"
                    )
            else:
                model[v] = ext[v]
    return model


def reconcile(
    f: Formula,
    k: int,
    system: ItpSystem = ItpSystem.MCMILLAN,
    max_rounds: int = DEFAULT_MAX_ROUNDS,
    timeout: float | None = None,
    completion_seed: int | None = None,
    on_event: Callable[[Event], None] | None = None,
) -> ReconcileResult:
    """Decide f by reconciling k lazy partitions; see the module docstring.

    A SAT model covers the variables occurring in f, tautological clauses
    included, and no others: a variable the header declares but no clause
    uses has no value.  A formula with no clauses is satisfiable for any k,
    with the empty model.

    ``on_event``, when given, is called synchronously with each event of
    the loop, in order:

    * ``Round(index, m)`` once per round in which G is satisfiable, after
      G's model has been read into the shared model m and before any
      partition is asked to extend it;
    * ``Interpolant(...)`` for each core of m that a refusing partition
      yields, after its interpolant has been conjoined to G, in ascending
      partition order and then core order.

    A run that ends on G's refutation, on a self-refuting partition or on
    an exhausted budget emits nothing more.
    """
    deadline = time.monotonic() + timeout if timeout is not None else None
    stats = ReconcileStats()
    if not f.clauses:
        return ReconcileResult("SAT", {}, stats)
    decomposition = decompose_lazy(f, k)

    def exhausted(kind: str) -> ReconcileResult:
        return ReconcileResult("UNKNOWN", None, stats, exhausted=kind)

    def refuted(proof: ProofStore, root: int) -> ReconcileResult:
        return ReconcileResult("UNSAT", None, stats, g_proof=proof, g_refutation=root)

    rbc = RbcStore()
    # G keeps every learnt clause: those over Tseitin auxiliaries are the
    # extension steps that keep its refutation short.
    g = Solver(keep_learnts=True)
    parts: list[Solver] = []
    for part in decomposition.partitions:
        s = Solver()
        for c in part.clauses:
            s.add_clause(c, LABEL_A)
        parts.append(s)
    # Auxiliaries follow the largest variable in use, not the header's count,
    # so a header that overstates it does not size G's arrays.
    f_vars = f.vars()
    fresh = count(max(f_vars, default=0) + 1)
    shared_sorted = sorted(decomposition.shared_vars)
    part_shared = [
        sorted(part.vars & decomposition.shared_vars)
        for part in decomposition.partitions
    ]
    part_private = [
        sorted(part.vars - decomposition.shared_vars)
        for part in decomposition.partitions
    ]
    rng = random.Random(completion_seed) if completion_seed is not None else None
    # A partition's candidate model is m on its shared variables plus the
    # true literals of its private ones in ``private``, from its last Sat
    # model and all false before the first.  ``passed`` holds the shared
    # assumptions under which its candidate last satisfied its clauses; a
    # refusal changes neither.
    private = [{-v for v in vs} for vs in part_private]
    passed: list[list[Lit] | None] = [None] * len(parts)

    for round_idx in range(max_rounds):
        stats.rounds = round_idx + 1
        try:
            g_out = g.solve(deadline=deadline)
        except BudgetExceeded:
            return exhausted("time")
        if not isinstance(g_out, Sat):
            return refuted(g.proof, g_out.refutation)
        g_model = g_out.model
        m = {}
        for v in shared_sorted:
            if v in g_model:
                m[v] = g_model[v]
            elif rng is None:
                m[v] = False
            else:
                m[v] = rng.random() < 0.5
        if on_event is not None:
            on_event(Round(round_idx, m))

        any_failed = False
        for i, part_solver in enumerate(parts):
            assumptions = [v if m[v] else -v for v in part_shared[i]]
            if assumptions == passed[i]:
                continue
            true_lits = private[i].union(assumptions)
            if not any(map(true_lits.isdisjoint, decomposition.partitions[i].clauses)):
                passed[i] = assumptions
                continue
            if deadline is not None and time.monotonic() > deadline:
                return exhausted("time")
            stats.partition_solves += 1
            try:
                out = part_solver.solve(assumptions, deadline=deadline)
            except BudgetExceeded:
                return exhausted("time")
            if isinstance(out, Sat):
                model = out.model
                private[i] = {v if model[v] else -v for v in part_private[i]}
                passed[i] = assumptions
                continue
            if isinstance(out, Unsat):
                # The partition's clauses alone are contradictory: its own
                # refutation, over input clauses of f only, decides the run.
                return refuted(part_solver.proof, out.refutation)
            any_failed = True
            stats.refusals += 1
            proof = part_solver.proof
            while out is not None:
                root, core = out.refutation, out.conflict_assumptions
                ref = interpolant_from_proof(proof, root, core, system, rbc)
                stats.interpolants += 1
                stats.peak_itp_nodes = max(stats.peak_itp_nodes, rbc.dag_size(ref))
                lowered, root_lit = rbc.to_cnf_tseitin(ref, fresh)
                lowered.append((root_lit,))
                for c in lowered:
                    g.add_clause(c, LABEL_A)
                stats.g_clause_count += len(lowered)
                if on_event is not None:
                    lowered = tuple(lowered)
                    on_event(Interpolant(round_idx, i, ref, rbc, proof, root, core, lowered))
                # The rest of m may hold a further core, disjoint from this
                # one; propagation alone finds it or stops.
                dropped = set(core)
                assumptions = [a for a in assumptions if a not in dropped]
                out = part_solver.propagate_assumptions(assumptions)
        if not any_failed:
            extensions = {
                i: {**m, **{abs(l): l > 0 for l in lits}} for i, lits in enumerate(private)
            }
            model = assemble_model(m, extensions, decomposition, f_vars)
            if not eval_formula(f, model):
                raise RuntimeError("internal: assembled model fails the input formula")
            return ReconcileResult("SAT", model, stats)
    return exhausted("rounds")
