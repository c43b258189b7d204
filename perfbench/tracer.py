"""Outside-in tracer: spans around lazysat's public calls, from the outside.

Nothing under ``src/`` changes.  While installed, the tracer replaces

* methods on the classes: ``Solver.solve``, ``Solver.add_clause``,
  ``Solver.labeled_refutation``, ``RbcStore.to_cnf_tseitin``,
  ``RbcStore.dag_size`` and ``ProofStore.check_refutation``;
* ``parse_dimacs`` in ``lazysat.cnf``;
* the names ``lazysat/reconcile.py`` bound at import:
  ``interpolant_from_proof``, ``decompose_lazy``, ``eval_formula``,
  ``assemble_model`` and ``Solver``.

The reconcile module is reached through ``sys.modules["lazysat.reconcile"]``
because in the package namespace ``lazysat.reconcile`` is the function.
G is the first ``Solver`` each ``reconcile`` call constructs; every later
one is a partition solver.

Spans (name, start, end, parent, solve id) are kept in flat arrays and
written out by ``write_spans``.  A span's self time is its duration minus
the durations of its direct children, so the self times of all spans under
one ``reconcile`` span add up to that span's duration.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager

perf = time.perf_counter

NO_SOLVE = -1


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.solve_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._solve = NO_SOLVE
        self._roles: dict[int, str] = {}  # id(Solver) -> "g" | "part"
        self._solvers: list = []
        self._lowered: set[int] = set()
        self.counts: Counter = Counter()  # counters of the solve in progress
        self._saved: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # spans

    def _open(self, name: str) -> int:
        nid = self._name_id.get(name)
        if nid is None:
            nid = self._name_id[name] = len(self.names)
            self.names.append(name)
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.solve_of.append(self._solve)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(perf())
        return i

    def _close(self, i: int):
        self.end[i] = perf()
        self._stack.pop()

    def span(self, name: str, fn, *args, **kwargs):
        i = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(i)

    def self_times(self, first: int = 0) -> dict[str, float]:
        """Self seconds per span name over the spans from index ``first`` on."""
        child = array("d", bytes(8 * (len(self.name) - first)))
        out: Counter = Counter()
        for i in range(len(self.name) - 1, first - 1, -1):
            dur = self.end[i] - self.start[i]
            out[self.names[self.name[i]]] += dur - child[i - first]
            p = self.parent[i]
            if p >= first:
                child[p - first] += dur
        return dict(out)

    # ------------------------------------------------------------------
    # one traced reconcile call

    def solve(self, solve_id: int, reconcile, *args, **kwargs):
        """Run ``reconcile(*args, **kwargs)`` as one traced solve.  Returns
        (result, first span index, per-solve counters).  Spans opened later,
        such as a proof check, keep this solve's id until the next solve."""
        self._solve = solve_id
        self._roles.clear()
        self._solvers = []
        self._lowered = set()
        self.counts = Counter()
        first = len(self.name)
        try:
            result = self.span("reconcile", reconcile, *args, **kwargs)
        finally:
            counts = self.counts
            for s in self._solvers:
                counts["proof.nodes"] += len(s.proof)
            if self._solvers:
                counts["solver.g.vars"] = self._solvers[0].num_vars
            self._roles.clear()
            self._solvers = []
        return result, first, counts

    # ------------------------------------------------------------------
    # installation

    def _patch(self, owner, attr: str, new):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        import lazysat.cnf as cnf_mod
        from lazysat.proof import ProofStore
        from lazysat.rbc import RbcStore
        from lazysat.solver import Sat, Solver

        rec = sys.modules["lazysat.reconcile"]
        tr = self

        def plain(name, fn):
            def wrapper(*args, **kwargs):
                return tr.span(name, fn, *args, **kwargs)
            return wrapper

        real_solver = rec.Solver

        def make_solver(*args, **kwargs):
            s = real_solver(*args, **kwargs)
            tr._roles[id(s)] = "part" if tr._solvers else "g"
            tr._solvers.append(s)
            return s

        orig_solve = Solver.solve

        def solve(s, *args, **kwargs):
            role = tr._roles.get(id(s))
            if role is None:
                return orig_solve(s, *args, **kwargs)
            c0 = s.n_conflicts
            i = tr._open(f"solver.{role}.solve")
            try:
                out = orig_solve(s, *args, **kwargs)
            finally:
                tr._close(i)
                tr.counts[f"solver.{role}.calls"] += 1
                tr.counts[f"solver.{role}.conflicts"] += s.n_conflicts - c0
            if not isinstance(out, Sat):
                tr.counts[f"solver.{role}.refusals"] += 1
            return out

        orig_add = Solver.add_clause
        add_span = {"g": "solver.g.add_clause", "part": "solver.part.load"}

        def add_clause(s, *args, **kwargs):
            role = tr._roles.get(id(s))
            if role is None:
                return orig_add(s, *args, **kwargs)
            return tr.span(add_span[role], orig_add, s, *args, **kwargs)

        orig_refute = Solver.labeled_refutation

        def labeled_refutation(s, *args, **kwargs):
            return tr.span("solver.part.refute", orig_refute, s, *args, **kwargs)

        orig_itp = rec.interpolant_from_proof

        def interpolant_from_proof(*args, **kwargs):
            tr.counts["itp.count"] += 1
            return tr.span("itp.interpolate", orig_itp, *args, **kwargs)

        orig_dag = RbcStore.dag_size

        def dag_size(store, ref):
            n = tr.span("rbc.dag_size", orig_dag, store, ref)
            tr.counts["itp.nodes_sum"] += n
            if n > tr.counts["itp.nodes_peak"]:
                tr.counts["itp.nodes_peak"] = n
            return n

        orig_tseitin = RbcStore.to_cnf_tseitin

        def to_cnf_tseitin(store, ref, fresh):
            clauses, root = tr.span("rbc.tseitin", orig_tseitin, store, ref, fresh)
            tr.span("trace.bookkeeping", tr._note_lowering, store, ref, len(clauses))
            return clauses, root

        orig_decomp = rec.decompose_lazy

        def decompose_lazy(*args, **kwargs):
            d = tr.span("decomp.split", orig_decomp, *args, **kwargs)
            tr.counts["decomp.shared_vars"] = len(d.shared_vars)
            return d

        orig_check = ProofStore.check_refutation

        def check_refutation(store, root):
            return tr.span("proof.check", orig_check, store, root)

        self._patch(rec, "Solver", make_solver)
        self._patch(Solver, "solve", solve)
        self._patch(Solver, "add_clause", add_clause)
        self._patch(Solver, "labeled_refutation", labeled_refutation)
        self._patch(rec, "interpolant_from_proof", interpolant_from_proof)
        self._patch(rec, "decompose_lazy", decompose_lazy)
        self._patch(rec, "eval_formula", plain("cnf.eval", rec.eval_formula))
        self._patch(rec, "assemble_model", plain("reconcile.assemble", rec.assemble_model))
        self._patch(RbcStore, "dag_size", dag_size)
        self._patch(RbcStore, "to_cnf_tseitin", to_cnf_tseitin)
        self._patch(ProofStore, "check_refutation", check_refutation)
        self._patch(cnf_mod, "parse_dimacs", plain("cnf.parse", cnf_mod.parse_dimacs))

    def uninstall(self):
        while self._saved:
            owner, attr, old = self._saved.pop()
            setattr(owner, attr, old)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def _note_lowering(self, store, ref: int, n_clauses: int):
        """Count the AND nodes under ref, and those already lowered earlier in
        this solve.  A reference is node_id * 2 + negated (see lazysat.rbc)."""
        nodes = set()
        stack = [ref >> 1]
        while stack:
            n = stack.pop()
            node = store.node(n)
            if node[0] == "A" and n not in nodes:
                nodes.add(n)
                stack.append(node[1] >> 1)
                stack.append(node[2] >> 1)
        c = self.counts
        c["rbc.tseitin_clauses"] += n_clauses
        c["rbc.and_lowered"] += len(nodes)
        c["rbc.and_relowered"] += len(nodes & self._lowered)
        self._lowered |= nodes

    # ------------------------------------------------------------------
    # output

    def write_spans(self, path, t0: float):
        """One tab-separated line per span: solve id, name, parent index,
        start and end in microseconds after t0."""
        with gzip.open(path, "wt", compresslevel=3) as out:
            out.write("# solve\tname\tparent\tstart_us\tend_us\n")
            names = self.names
            for i in range(len(self.name)):
                out.write(
                    f"{self.solve_of[i]}\t{names[self.name[i]]}\t{self.parent[i]}\t"
                    f"{(self.start[i] - t0) * 1e6:.1f}\t{(self.end[i] - t0) * 1e6:.1f}\n"
                )
