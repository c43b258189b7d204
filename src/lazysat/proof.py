"""Append-only resolution proof DAG shared by the solver and the interpolator.

Nodes are either input clauses or binary resolvents (left child holds the
pivot positively, right child negatively).  Resolvent clauses are not
stored: they are recomputed on demand, and check_refutation recomputes them
from the input clauses rather than trusting anything stored.  Nodes are
appended without validation by their one caller, the solver, whose proofs
check_refutation verifies.
Node ids are dense and children always precede parents.
"""

from __future__ import annotations

from array import array

from .cnf import Clause, is_tautology, normalize_clause


class ProofError(ValueError):
    pass


class ProofStore:
    def __init__(self):
        # Parallel arrays; pivot < 0 marks an input node.
        self._left = array("i")
        self._right = array("i")
        self._pivot = array("i")
        self._inputs: dict[int, Clause] = {}

    def __len__(self) -> int:
        return len(self._pivot)

    def node(self, node_id: int):
        """('I', clause) for inputs, ('R', left, right, pivot) otherwise."""
        self._check_id(node_id)
        if self._pivot[node_id] < 0:
            return ("I", self._inputs[node_id])
        return ("R", self._left[node_id], self._right[node_id], self._pivot[node_id])

    def _check_id(self, node_id: int):
        if not 0 <= node_id < len(self._pivot):
            raise ProofError(f"dangling proof node id {node_id}")

    def _append_input(self, norm: Clause) -> int:
        """Store a clause the caller has already normalized and found free
        of literal 0 and tautologies."""
        node_id = len(self._pivot)
        self._left.append(-1)
        self._right.append(-1)
        self._pivot.append(-1)
        self._inputs[node_id] = norm
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
        """The clause a node derives: stored for inputs, recomputed from
        them for resolvents."""
        self._check_id(node_id)
        if self._pivot[node_id] < 0:
            return self._inputs[node_id]
        return normalize_clause(self._derive(self.reachable(node_id))[node_id])

    def _derive(self, ids) -> dict[int, frozenset]:
        """The clause of every node in ``ids``, which must be ascending and
        hold the children of each resolvent in it, recomputed bottom-up."""
        pivot, left, right, inputs = self._pivot, self._left, self._right, self._inputs
        clauses: dict[int, frozenset] = {}
        for nid in ids:
            p = pivot[nid]
            if p < 0:
                clauses[nid] = frozenset(inputs[nid])
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
                clauses[nid] = frozenset(inputs[nid])
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
        ``<id> I <lits> 0`` or ``<id> R <left> <right> <pivot> <lits> 0``.
        """
        ids = self.reachable(root) if root is not None else range(len(self._pivot))
        clauses = self._derive(ids)
        lines = []
        for nid in ids:
            p = self._pivot[nid]
            if p < 0:
                head = [str(nid), "I"]
            else:
                head = [str(nid), "R", str(self._left[nid]), str(self._right[nid]), str(p)]
            lits = [str(l) for l in normalize_clause(clauses[nid])]
            lines.append(" ".join([*head, *lits, "0"]))
        return "\n".join(lines) + ("\n" if lines else "")
