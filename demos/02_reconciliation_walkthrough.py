#!/usr/bin/env python3
"""Trace the reconciliation loop round by round on a small instance.

The formula is split into two partitions that overlap on a few variables.
Each round proposes a total model over the shared variables, asks every
partition to extend it, and refines the global formula G with an
interpolant for each core of the proposal that a refusing partition
yields: the one its search finds, then any further disjoint ones that
propagation alone finds in the rest of the proposal.  Each core prints a
"refused" line.  Watching the trace shows G growing until either some
proposal extends everywhere (SAT) or G itself becomes contradictory (UNSAT).
"""

from lazysat import Formula, Round, decompose_lazy, normalize_clause, reconcile

# A small unsatisfiable instance: an xor-style chain with contradictory ends.
clauses = [
    (1, 2), (-1, -2),          # x1 xor x2
    (2, 3), (-2, -3),          # x2 xor x3
    (1, 3), (-1, -3),          # x1 xor x3  -> jointly impossible
]
f = Formula(tuple(normalize_clause(c) for c in clauses), 3)

d = decompose_lazy(f, 2)
for p in d.partitions:
    print(f"partition {p.index}: clauses {p.clauses} vars {sorted(p.vars)}")
print(f"shared variables: {sorted(d.shared_vars)}\n")


g_size = 0


def show(event):
    global g_size
    if isinstance(event, Round):
        model = " ".join(f"x{v}={'T' if b else 'F'}" for v, b in sorted(event.m.items()))
        print(f"round {event.index}: G has {g_size} clauses and proposes {model}")
    else:  # an Interpolant
        g_size += len(event.g_clauses)
        core = " ".join(f"x{abs(l)}={'T' if l > 0 else 'F'}" for l in event.core)
        print(
            f"  partition {event.partition} refused {core}: interpolant of"
            f" {event.rbc.dag_size(event.ref)} circuit nodes over vars"
            f" {sorted(event.rbc.vars(event.ref))}, {len(event.g_clauses)} clauses into G"
        )


result = reconcile(f, 2, on_event=show)
print(f"\nverdict: {result.verdict} after {result.stats.rounds} rounds,"
      f" {result.stats.interpolants} interpolants,"
      f" {result.stats.g_clause_count} clauses conjoined to G")
if result.verdict == "UNSAT":
    ok = result.g_proof.check_refutation(result.g_refutation)
    print(f"final refutation of G checks: {ok}")
