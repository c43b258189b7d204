"""lazysat: SAT solving over lazy clause partitions reconciled by interpolants."""

from .cnf import (
    Clause,
    DimacsError,
    Formula,
    Lit,
    eval_formula,
    normalize_clause,
    parse_dimacs,
    write_dimacs,
)
from .decomp import Decomposition, Partition, decompose_lazy
from .itp import ItpSystem, interpolant_from_proof
from .proof import ProofError, ProofStore
from .rbc import RbcRef, RbcStore
from .reconcile import (
    Event,
    Interpolant,
    ReconcileResult,
    ReconcileStats,
    Round,
    reconcile,
)
from .solver import (
    BudgetExceeded,
    Sat,
    SolveOutcome,
    Solver,
    Unsat,
    UnsatUnderAssumptions,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetExceeded",
    "Clause",
    "Decomposition",
    "DimacsError",
    "Event",
    "Formula",
    "Interpolant",
    "ItpSystem",
    "Lit",
    "Partition",
    "ProofError",
    "ProofStore",
    "RbcRef",
    "RbcStore",
    "ReconcileResult",
    "ReconcileStats",
    "Round",
    "Sat",
    "SolveOutcome",
    "Solver",
    "Unsat",
    "UnsatUnderAssumptions",
    "decompose_lazy",
    "eval_formula",
    "interpolant_from_proof",
    "normalize_clause",
    "parse_dimacs",
    "reconcile",
    "write_dimacs",
]
