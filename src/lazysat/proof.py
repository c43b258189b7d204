"""Append-only resolution proof DAG shared by the solver and the interpolator.

Nodes are either labeled input clauses (label A or B) or binary resolvents
(left child holds the pivot positively, right child negatively).  Resolvent
clauses are not stored, except those validated by add_resolvent; the others
are recomputed on demand, and check_refutation always recomputes them from
the children rather than trusting any cache.
Node ids are dense and children always precede parents.
"""

from __future__ import annotations

from array import array

from .cnf import Clause, is_tautology, normalize_clause

LABEL_A = "A"
LABEL_B = "B"


class ProofError(ValueError):
    pass


class ProofStore:
    def __init__(self):
        # Parallel arrays; pivot < 0 marks an input node.
        self._left = array("i")
        self._right = array("i")
        self._pivot = array("i")
        self._inputs: dict[int, tuple[Clause, str]] = {}
        # Clauses of the resolvents add_resolvent validated, so that proofs
        # built by hand are checked step by step in linear time.
        # check_refutation never reads it.
        self._clauses: dict[int, Clause] = {}

    def __len__(self) -> int:
        return len(self._pivot)

    def is_input(self, node_id: int) -> bool:
        self._check_id(node_id)
        return self._pivot[node_id] < 0

    def node(self, node_id: int):
        """('I', clause, label) for inputs, ('R', left, right, pivot) otherwise."""
        self._check_id(node_id)
        if self._pivot[node_id] < 0:
            clause, label = self._inputs[node_id]
            return ("I", clause, label)
        return ("R", self._left[node_id], self._right[node_id], self._pivot[node_id])

    def _check_id(self, node_id: int):
        if not 0 <= node_id < len(self._pivot):
            raise ProofError(f"dangling proof node id {node_id}")

    def add_input(self, clause, label: str) -> int:
        """Validating construction; use _append_input on trusted paths."""
        norm = normalize_clause(clause)
        if norm and norm[0] == 0:
            raise ProofError(f"literal 0 in input clause {norm}")
        if is_tautology(norm):
            raise ProofError(f"tautological input clause {norm}")
        return self._append_input(norm, label)

    def _append_input(self, norm: Clause, label: str) -> int:
        """Store a clause the caller has already normalized and found free
        of literal 0 and tautologies; only the label is checked here."""
        if label not in (LABEL_A, LABEL_B):
            raise ProofError(f"bad label {label!r}")
        node_id = len(self._pivot)
        self._left.append(-1)
        self._right.append(-1)
        self._pivot.append(-1)
        self._inputs[node_id] = (norm, label)
        return node_id

    def add_resolvent(self, left: int, right: int, pivot: int) -> int:
        """Validating construction; use _append_resolvent on trusted paths."""
        if pivot < 1:
            raise ProofError(f"pivot must be a variable index, got {pivot}")
        lc = self.clause_of(left)
        rc = self.clause_of(right)
        if pivot not in lc:
            raise ProofError(f"pivot {pivot} not positive in left clause {lc}")
        if -pivot not in rc:
            raise ProofError(f"pivot {pivot} not negative in right clause {rc}")
        resolvent = frozenset(lc) - {pivot} | (frozenset(rc) - {-pivot})
        if is_tautology(resolvent):
            raise ProofError(f"tautological resolvent from {lc} and {rc} on {pivot}")
        node_id = self._append_resolvent(left, right, pivot)
        self._clauses[node_id] = normalize_clause(resolvent)
        return node_id

    def _append_resolvent(self, left: int, right: int, pivot: int) -> int:
        node_id = len(self._pivot)
        if not (0 <= left < node_id and 0 <= right < node_id):
            raise ProofError("resolvent children must already exist")
        self._left.append(left)
        self._right.append(right)
        self._pivot.append(pivot)
        return node_id

    def clause_of(self, node_id: int) -> Clause:
        """The clause a node derives: stored for inputs, cached for
        resolvents built by add_resolvent, recomputed otherwise."""
        self._check_id(node_id)
        if self._pivot[node_id] < 0:
            return self._inputs[node_id][0]
        cached = self._clauses.get(node_id)
        if cached is None:
            cached = normalize_clause(self._derive(self.reachable(node_id))[node_id])
        return cached

    def _derive(self, ids) -> dict[int, frozenset]:
        """The clause of every node in ``ids``, which must be ascending and
        hold the children of each resolvent in it, recomputed bottom-up."""
        pivot, left, right, inputs = self._pivot, self._left, self._right, self._inputs
        clauses: dict[int, frozenset] = {}
        for nid in ids:
            p = pivot[nid]
            if p < 0:
                clauses[nid] = frozenset(inputs[nid][0])
            else:
                clauses[nid] = clauses[left[nid]] - {p} | (clauses[right[nid]] - {-p})
        return clauses

    def reachable(self, root: int) -> list[int]:
        """Node ids reachable from root, ascending (children before parents)."""
        return self._reach(root)[0]

    def _reach(self, root: int) -> tuple[list[int], array]:
        """reachable(root), and for every stored node the number of edges
        into it from reachable resolvents (0 for root and unreached nodes).

        Only the nodes reached are visited and sorted; the counts, which
        also serve as the marks, are one zeroed int per stored node, filled
        in C, which takes less memory than a set of the reached ids.
        """
        self._check_id(root)
        pivot, left, right = self._pivot, self._left, self._right
        uses = array("i", [0]) * len(pivot)
        reached = [root]
        stack = [root]
        while stack:
            nid = stack.pop()
            if pivot[nid] >= 0:
                for child in (left[nid], right[nid]):
                    if not uses[child]:
                        reached.append(child)
                        stack.append(child)
                    uses[child] += 1
        reached.sort()
        return reached, uses

    def reachable_inputs(self, root: int) -> list[int]:
        return [i for i in self.reachable(root) if self._pivot[i] < 0]

    def check_refutation(self, root: int) -> bool:
        """True iff root derives the empty clause and every reachable
        resolvent is a genuine non-tautological resolution of its children.

        Clauses are recomputed bottom-up from the input clauses; nothing
        stored is trusted.  Each reachable node's uses by reachable parents
        are counted first, and its clause is dropped once the last of them
        has read it, so memory follows the proof's live frontier, not its
        size.
        """
        order, uses = self._reach(root)
        pivot, left, right, inputs = self._pivot, self._left, self._right, self._inputs
        clauses: dict[int, frozenset] = {}
        for nid in order:
            p = pivot[nid]
            if p < 0:
                clauses[nid] = frozenset(inputs[nid][0])
                continue
            l, r = left[nid], right[nid]
            lc, rc = clauses[l], clauses[r]
            if p not in lc or -p not in rc:
                return False
            resolvent = lc - {p} | (rc - {-p})
            if is_tautology(resolvent):
                return False
            clauses[nid] = resolvent
            uses[l] -= 1
            if not uses[l]:
                del clauses[l]
            uses[r] -= 1
            if not uses[r]:
                del clauses[r]
        return not clauses[root]

    def dump(self, root: int | None = None) -> str:
        """Debug listing, one node per line:
        ``<id> I <label> <lits> 0`` or ``<id> R <left> <right> <pivot> <lits> 0``.
        """
        ids = self.reachable(root) if root is not None else range(len(self._pivot))
        clauses = self._derive(ids)
        lines = []
        for nid in ids:
            p = self._pivot[nid]
            if p < 0:
                head = [str(nid), "I", self._inputs[nid][1]]
            else:
                head = [str(nid), "R", str(self._left[nid]), str(self._right[nid]), str(p)]
            lits = [str(l) for l in normalize_clause(clauses[nid])]
            lines.append(" ".join([*head, *lits, "0"]))
        return "\n".join(lines) + ("\n" if lines else "")
