"""Hash-consed boolean circuits for compact interpolant storage.

The store keeps binary AND nodes with complement edges (AIG style), which is
all the interpolation rules need: AND, OR via De Morgan, and negation as an
O(1) edge flip.  A reference is ``node_id * 2 + negated``, so structurally
equal constructions always return the identical integer, and recurring
substructure across interpolants is shared.

Constructor-level simplifications (and their OR duals via the encoding):
And(x, true) = x, And(x, false) = false, And(x, x) = x, And(x, ~x) = false.
"""

from __future__ import annotations

from itertools import count
from typing import Iterator, Mapping

from .cnf import Clause, Lit

RbcRef = int

TRUE = 0  # reference to the constant-true node
FALSE = 1  # its complement edge


def mk_not(ref: RbcRef) -> RbcRef:
    return ref ^ 1


def is_negated(ref: RbcRef) -> bool:
    return bool(ref & 1)


class RbcStore:
    def __init__(self):
        # Node 0 is the true constant; kinds are 'T', 'V' (var), 'A' (and).
        self._kind: list[str] = ["T"]
        self._a: list[int] = [0]  # var index for 'V', left child ref for 'A'
        self._b: list[int] = [0]  # right child ref for 'A'
        self._var_node: dict[int, int] = {}
        self._and_node: dict[tuple[int, int], int] = {}
        # Lowering state, see to_cnf_tseitin: the CNF variable of every node
        # lowered so far (a leaf's own variable, an AND node's auxiliary),
        # the halves of each AND node's definition emitted so far (bit 1 the
        # positive half, bit 2 the negative one), and the largest variable
        # lowering has met.
        self._lit: dict[int, int] = {}
        self._halves: dict[int, int] = {}
        self._fresh_floor = 0

    def __len__(self) -> int:
        return len(self._kind)

    def node(self, node_id: int):
        """('T',) | ('V', var) | ('A', left_ref, right_ref)."""
        kind = self._kind[node_id]
        if kind == "T":
            return ("T",)
        if kind == "V":
            return ("V", self._a[node_id])
        return ("A", self._a[node_id], self._b[node_id])

    def mk_true(self) -> RbcRef:
        return TRUE

    def mk_false(self) -> RbcRef:
        return FALSE

    def mk_var(self, var: int) -> RbcRef:
        if var < 1:
            raise ValueError(f"variable index must be positive, got {var}")
        node = self._var_node.get(var)
        if node is None:
            node = len(self._kind)
            self._kind.append("V")
            self._a.append(var)
            self._b.append(0)
            self._var_node[var] = node
        return node << 1

    def mk_lit(self, lit: Lit) -> RbcRef:
        ref = self.mk_var(abs(lit))
        return ref if lit > 0 else ref ^ 1

    def mk_and(self, a: RbcRef, b: RbcRef) -> RbcRef:
        if a == FALSE or b == FALSE or a == (b ^ 1):
            return FALSE
        if a == TRUE:
            return b
        if b == TRUE or a == b:
            return a
        if a > b:
            a, b = b, a
        node = self._and_node.get((a, b))
        if node is None:
            node = len(self._kind)
            self._kind.append("A")
            self._a.append(a)
            self._b.append(b)
            self._and_node[(a, b)] = node
        return node << 1

    def mk_or(self, a: RbcRef, b: RbcRef) -> RbcRef:
        return self.mk_and(a ^ 1, b ^ 1) ^ 1

    def evaluate(self, ref: RbcRef, assignment: Mapping[int, bool]) -> bool:
        """Standard boolean semantics; every variable under ref must be assigned."""
        values: dict[int, bool] = {0: True}
        stack = [ref >> 1]
        while stack:
            node = stack[-1]
            if node in values:
                stack.pop()
                continue
            kind = self._kind[node]
            if kind == "V":
                var = self._a[node]
                if var not in assignment:
                    raise ValueError(f"variable {var} unassigned during evaluation")
                values[node] = assignment[var]
                stack.pop()
                continue
            la, lb = self._a[node], self._b[node]
            missing = [c >> 1 for c in (la, lb) if (c >> 1) not in values]
            if missing:
                stack.extend(missing)
                continue
            va = values[la >> 1] ^ bool(la & 1)
            vb = values[lb >> 1] ^ bool(lb & 1)
            values[node] = va and vb
            stack.pop()
        return values[ref >> 1] ^ bool(ref & 1)

    def _reachable(self, ref: RbcRef) -> list[int]:
        seen = {ref >> 1}
        stack = [ref >> 1]
        order = []
        while stack:
            node = stack.pop()
            order.append(node)
            if self._kind[node] == "A":
                for child in (self._a[node] >> 1, self._b[node] >> 1):
                    if child not in seen:
                        seen.add(child)
                        stack.append(child)
        return order

    def vars(self, ref: RbcRef) -> frozenset[int]:
        return frozenset(
            self._a[n] for n in self._reachable(ref) if self._kind[n] == "V"
        )

    def dag_size(self, ref: RbcRef) -> int:
        """Number of distinct store nodes reachable from ref."""
        return len(self._reachable(ref))

    def to_cnf_tseitin(
        self, ref: RbcRef, fresh: Iterator[int]
    ) -> tuple[list[Clause], Lit]:
        """Lower a circuit to clauses plus a root literal, one polarity at a
        time (Plaisted & Greenbaum).

        An AND node ``a = x & y`` has two halves of its definition: the
        positive ``(-a, x), (-a, y)`` and the negative ``(a, -x, -y)``.  A
        call emits, for every AND node, only the halves in the polarities in
        which the asserted root reaches it: the root is reached positively
        unless ``ref`` is a complement edge, and a complement edge flips the
        polarity passed down to the child.  Each node costs one auxiliary
        from ``fresh``, taken the first time any call reaches it, and each
        half is emitted once for the lifetime of the store: a later call
        that reaches a node in a polarity it already has reuses its literal
        and emits nothing for it or anything under it, and one that reaches
        it in the other polarity emits only the missing half.  A call
        returns the halves it emits for the first time, in ascending node
        order, and the root literal; new auxiliaries are also taken in
        ascending node order.  So every call on one store must feed one
        target formula, which keeps every clause returned so far, and draw
        from one ``fresh``, which yields indices strictly above every
        variable in use.  Leaves short-circuit to their own literal with no
        clauses; a constant gets a new auxiliary and a unit clause on every
        call.

        The conjunction of all clauses returned so far, with every root
        literal returned asserted, is equisatisfiable with the conjunction
        of the circuits: giving each auxiliary its node's value satisfies
        both halves of every definition, and every model of the clauses with
        the roots asserted satisfies every circuit.
        """
        top = ref >> 1
        kind = self._kind
        if kind[top] == "T":
            aux = self._take_fresh(fresh, 0)
            return [(aux if ref == TRUE else -aux,)], aux
        a_, b_ = self._a, self._b
        if kind[top] == "V":
            return [], (-a_[top] if ref & 1 else a_[top])
        lits = self._lit
        done = self._halves
        want = 2 if ref & 1 else 1
        if done.get(top, 0) & want:
            return [], (-lits[top] if ref & 1 else lits[top])
        # One walk over the (node, half) pairs not emitted yet.  It stops at
        # emitted ones, which were walked below when they were emitted, so
        # every leaf under them was checked against ``fresh`` then.
        floor = self._fresh_floor
        new = {top: want}
        leaves = set()
        stack = [(top, want)]
        while stack:
            n, half = stack.pop()
            for edge in (a_[n], b_[n]):
                child = edge >> 1
                if kind[child] == "A":
                    h = half ^ 3 if edge & 1 else half
                    have = new.get(child, 0)
                    if (have | done.get(child, 0)) & h:
                        continue
                    new[child] = have | h
                    stack.append((child, h))
                elif child not in lits and child not in leaves:
                    leaves.add(child)
                    floor = max(floor, a_[child])
        nodes = sorted(new)  # a node is made after its children
        unlowered = [n for n in nodes if n not in lits]
        auxes = []
        for _ in unlowered:
            floor = self._take_fresh(fresh, floor)
            auxes.append(floor)
        for leaf in leaves:
            lits[leaf] = a_[leaf]
        lits.update(zip(unlowered, auxes))
        self._fresh_floor = floor

        clauses: list[Clause] = []
        for n in nodes:
            a = lits[n]
            x, y = a_[n], b_[n]
            x = -lits[x >> 1] if x & 1 else lits[x >> 1]
            y = -lits[y >> 1] if y & 1 else lits[y >> 1]
            half = new[n]
            if half & 1:
                clauses.append((-a, x))
                clauses.append((-a, y))
            if half & 2:
                clauses.append((a, -x, -y))
            done[n] = done.get(n, 0) | half
        return clauses, (-lits[top] if ref & 1 else lits[top])

    @staticmethod
    def _take_fresh(fresh: Iterator[int], floor: int) -> int:
        aux = next(fresh)
        if aux <= floor:
            raise ValueError(
                f"fresh variable {aux} collides with variables in use (max {floor})"
            )
        return aux

    def to_dot(self, ref: RbcRef) -> str:
        """Graphviz rendering of the circuit under ref, for debugging."""
        lines = ["digraph rbc {"]
        lines.append(f'  root [shape=point]; root -> n{ref >> 1}'
                     f'{" [style=dotted]" if ref & 1 else ""};')
        for n in sorted(self._reachable(ref)):
            kind = self._kind[n]
            if kind == "T":
                lines.append(f'  n{n} [label="1" shape=box];')
            elif kind == "V":
                lines.append(f'  n{n} [label="x{self._a[n]}"];')
            else:
                lines.append(f'  n{n} [label="and"];')
                for child in (self._a[n], self._b[n]):
                    style = " [style=dotted]" if child & 1 else ""
                    lines.append(f"  n{n} -> n{child >> 1}{style};")
        lines.append("}")
        return "\n".join(lines) + "\n"
