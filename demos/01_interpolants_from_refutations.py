#!/usr/bin/env python3
"""Walk through Craig interpolation on a tiny refusal.

The A part ({x}, {~x v y}) is loaded into a solver, and the B part, the
unit {~y}, is imposed as an assumption, as a shared-model literal is in
reconciliation.  The solver refuses it, and an interpolant is read off the
refutation and its assumption core under each of the three supported
systems.  Every interpolant must be implied by A, contradict B, and
mention only shared variables; here all three systems find y.
"""

from itertools import product

from lazysat import (
    ItpSystem,
    RbcStore,
    Solver,
    UnsatUnderAssumptions,
    interpolant_from_proof,
)

X, Y = 1, 2

solver = Solver()
solver.add_clause([X])
solver.add_clause([-X, Y])

out = solver.solve([-Y])
assert isinstance(out, UnsatUnderAssumptions)
print("conflicting assumptions:", out.conflict_assumptions)

# The refutation derives the clause of the negated core, here {y}, from A
# clauses alone; the core's units are the B side it is interpolated against.
print("\nrefutation under assumptions (id, kind, ...):")
print(solver.proof.dump(out.refutation))

rbc = RbcStore()
for system in ItpSystem:
    ref = interpolant_from_proof(
        solver.proof, out.refutation, out.conflict_assumptions, system, rbc
    )
    table = {
        (x, y): rbc.evaluate(ref, {X: x, Y: y})
        for x, y in product([False, True], repeat=2)
    }
    print(f"{system.value:>14}: vars={sorted(rbc.vars(ref))} truth table={table}")

print(f"\ncircuit store holds {len(rbc)} nodes shared across all three systems")
