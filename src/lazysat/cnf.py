"""CNF formulas, DIMACS I/O, and assignment evaluation.

Literals are signed integers in the DIMACS convention: variable ``v`` is the
positive literal ``v`` and its negation is ``-v``.  A clause is a tuple of
literals, a formula is an ordered tuple of clauses.  Clause order is
significant: partitioning splits the clause list by position.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

Lit = int
Clause = tuple[Lit, ...]


class DimacsError(ValueError):
    """Malformed DIMACS input; carries the 1-based source line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def normalize_clause(lits: Iterable[Lit]) -> Clause:
    """Drop duplicate literals and sort by variable index, positive first."""
    # Built from C-level builtins only; the stable sort by abs keeps the
    # descending order, and so the positive literal, within a variable.
    return tuple(sorted(sorted(set(lits), reverse=True), key=abs))


def is_tautology(clause: Iterable[Lit]) -> bool:
    """True iff the clause holds some literal and its negation."""
    s = set(clause)
    return len(set(map(abs, s))) != len(s)


@dataclass(frozen=True)
class Formula:
    """A CNF formula: clauses in input order over variables 1..num_vars.

    Tautological input clauses are kept in place (they count as always true)
    so clause positions match the source file.
    """

    clauses: tuple[Clause, ...]
    num_vars: int

    def vars(self) -> frozenset[int]:
        return frozenset(abs(l) for c in self.clauses for l in c)


def parse_dimacs(text: str | bytes) -> Formula:
    """Parse DIMACS CNF text into a Formula.

    Comment lines start with 'c'; a line starting with '%' ends the input
    (a convention of several benchmark suites).  Clauses are zero-terminated
    and may span lines.  num_vars is the max of the header value and the
    largest index actually used, since benchmark headers are not always
    accurate.
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8", errors="replace")
    header: tuple[int, int] | None = None
    clauses: list[Clause] = []
    pending: list[int] = []
    max_var = 0
    last_line = 0
    for line_no, line in enumerate(text.splitlines(), start=1):
        last_line = line_no
        stripped = line.strip()
        if not stripped or stripped.startswith("c"):
            continue
        if stripped.startswith("%"):
            break
        if stripped.startswith("p"):
            if header is not None:
                raise DimacsError(line_no, "duplicate header")
            fields = stripped.split()
            if len(fields) != 4 or fields[1] != "cnf":
                raise DimacsError(line_no, f"malformed header: {stripped!r}")
            try:
                header = (int(fields[2]), int(fields[3]))
            except ValueError:
                raise DimacsError(line_no, f"malformed header: {stripped!r}") from None
            if header[0] < 0 or header[1] < 0:
                raise DimacsError(line_no, "negative counts in header")
            continue
        if header is None:
            raise DimacsError(line_no, f"clause before 'p cnf' header: {stripped!r}")
        for tok in stripped.split():
            if tok == "-0":
                raise DimacsError(line_no, "literal index 0 in clause body")
            try:
                lit = int(tok)
            except ValueError:
                raise DimacsError(line_no, f"non-integer token {tok!r}") from None
            if lit == 0:
                clauses.append(normalize_clause(pending))
                pending.clear()
            else:
                pending.append(lit)
                if abs(lit) > max_var:
                    max_var = abs(lit)
    if pending:
        raise DimacsError(last_line, "unterminated clause at end of input")
    if header is None:
        raise DimacsError(last_line or 1, "missing 'p cnf' header")
    return Formula(tuple(clauses), max(header[0], max_var))


def write_dimacs(f: Formula) -> str:
    """Render a Formula as DIMACS text; parse_dimacs(write_dimacs(f)) == f."""
    lines = [f"p cnf {f.num_vars} {len(f.clauses)}"]
    for clause in f.clauses:
        lines.append(" ".join(str(l) for l in clause) + " 0" if clause else "0")
    return "\n".join(lines) + "\n"


def eval_formula(f: Formula, assignment: Mapping[int, bool]) -> bool:
    """True iff every clause has a literal satisfied by the assignment.

    The assignment must cover every variable occurring in the formula
    (tautological clauses included); anything less is a contract violation.
    """
    missing = [v for v in sorted(f.vars()) if v not in assignment]
    if missing:
        raise ValueError(f"assignment leaves occurring variables unassigned: {missing}")
    for clause in f.clauses:
        if not any(assignment[abs(l)] == (l > 0) for l in clause):
            return False
    return True
