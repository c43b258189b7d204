"""CNF formulas, DIMACS I/O, and assignment evaluation.

Literals are signed integers in the DIMACS convention: variable ``v`` is the
positive literal ``v`` and its negation is ``-v``.  A clause is a tuple of
literals, a formula is an ordered tuple of clauses.  Clause order is
significant: partitioning splits the clause list by position.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import chain
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


# A line whose first non-blank character is 'c' (a comment), 'p' (a header)
# or '%' (the end of input); every other line holds clause tokens or nothing.
_MARKED_LINE = re.compile(r"^[^\S\n]*([cp%]).*", re.M)
_OTHER_BREAKS = "\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"  # str.splitlines' but "\n"
_CHUNK = 1 << 14  # characters tokenized at once, extended to a line end


def _rank(lit: Lit) -> int:
    """Sort key of normalize_clause's order: by variable, positive first."""
    return 2 * lit if lit > 0 else 1 - 2 * lit


def _first_error(chunk: str, line_no: int, header: tuple[int, int] | None) -> DimacsError:
    """The error of the first bad line among clause lines known to hold one."""
    for line_no, line in enumerate(chunk.split("\n"), line_no):
        stripped = line.strip()
        if stripped and header is None:
            return DimacsError(line_no, f"clause before 'p cnf' header: {stripped!r}")
        for tok in stripped.split():
            if tok == "-0":
                return DimacsError(line_no, "literal index 0 in clause body")
            try:
                int(tok)
            except ValueError:
                return DimacsError(line_no, f"non-integer token {tok!r}")


def parse_dimacs(text: str | bytes) -> Formula:
    """Parse DIMACS CNF text into a Formula.

    Comment lines start with 'c'; a line starting with '%' ends the input
    (a convention of several benchmark suites).  Clauses are zero-terminated
    and may span lines.  num_vars is the max of the header value and the
    largest index actually used, since benchmark headers are not always
    accurate.  Bytes are decoded as UTF-8 with undecodable bytes replaced,
    so comments may be in any encoding.

    No Python runs per token.  One regex finds the comment, header and '%'
    lines; the clause lines between them are split about 16 KB at a time by
    ``str.split``, each distinct token of a chunk is converted once by
    ``int``, and the literals are cut into clauses at each 0 and normalized
    by one keyed sort each.  Past a few chunks of text, the peak memory is
    below that of holding every line at once.  Formula and errors, message
    and line number alike, are those of reading the text line by line: a
    chunk holding '-0' or a non-integer token is read again line by line to
    find its first bad line, and a text with line breaks other than '\\n' is
    first rejoined with '\\n'.
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8", errors="replace")
    if any(map(text.__contains__, _OTHER_BREAKS)):
        lines = [*text.splitlines(), ""]
        del text  # so that a decoded text is not held beside its copy
        text = "\n".join(lines)
        del lines
    header: tuple[int, int] | None = None
    clauses: list[Clause] = []
    pending: list[int] = []  # literals read but not yet cut into clauses
    find_zero, add = pending.index, clauses.append
    max_var = pos = 0
    for m in chain(_MARKED_LINE.finditer(text), [None]):
        stop = m.start() if m else len(text)
        while pos < stop:
            cut = text.find("\n", pos + _CHUNK, stop) + 1 or stop
            chunk = text[pos:cut]
            toks = chunk.split()
            distinct = set(toks)
            try:
                if "-0" in distinct or header is None and toks:
                    raise ValueError
                lits = list(map(int, distinct))
            except ValueError:
                raise _first_error(chunk, text.count("\n", 0, pos) + 1, header) from None
            # Both maps are the chunk's own, so that memory follows the chunk;
            # the rank map also covers a clause begun in an earlier chunk.
            lit_of = dict(zip(distinct, lits))
            rank = dict(zip(lits, map(_rank, lits)))
            rank.update(zip(pending, map(_rank, pending)))
            max_var = max(max_var, max(map(abs, lits), default=0))
            key = rank.__getitem__
            pending += map(lit_of.__getitem__, toks)
            start = 0
            try:
                while True:
                    end = find_zero(0, start)
                    add(tuple(sorted({*pending[start:end]}, key=key)))
                    start = end + 1
            except ValueError:
                del pending[:start]
            pos = cut
        if m is None or m[1] == "%":
            break
        pos = m.end()
        if m[1] == "p":
            line = text.count("\n", 0, stop) + 1
            if header is not None:
                raise DimacsError(line, "duplicate header")
            stripped = m[0].strip()
            fields = stripped.split()
            try:
                if len(fields) != 4 or fields[1] != "cnf":
                    raise ValueError
                header = (int(fields[2]), int(fields[3]))
            except ValueError:
                raise DimacsError(line, f"malformed header: {stripped!r}") from None
            if min(header) < 0:
                raise DimacsError(line, "negative counts in header")
    if pending or header is None:
        # the line of the '%', or else the text's last line
        line = text.count("\n", 0, stop) + 1 - (m is None and text.endswith("\n"))
        if pending:
            raise DimacsError(line, "unterminated clause at end of input")
        raise DimacsError(line, "missing 'p cnf' header")
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
