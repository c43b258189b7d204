"""CDCL solver with watched literals, assumptions, and resolution proof logging.

Design notes, fixed for reproducibility:

* branching is activity-driven (VSIDS style) with ties broken on the lowest
  variable index, default polarity false, no phase saving;
* the decision heap holds at most one live entry per variable, keyed by
  the variable's current activity, and every unassigned variable has one;
  entries made stale by a bump are skipped when popped, and the heap is
  rebuilt from the unassigned variables once it grows past twice the
  active ones, so its size does not grow with the number of incremental
  calls;
* restarts follow the Luby sequence with a unit of 100 conflicts;
* learnt clauses are reduced Glucose style (Audemard & Simon, IJCAI 2009),
  unless the solver is built with ``keep_learnts``: at decision level 0,
  once 1,000 conflicts have passed and then after gaps of 1,300, 1,600 and
  so on, the worse half of the learnt clauses that may go is deleted,
  highest LBD (the number of distinct decision levels among a clause's
  literals when it was learnt) first, ties to the lower clause index.
  Binary clauses, clauses of LBD at most 2 and reasons of level-0
  literals stay.  A deleted clause is implied by the clauses that derived
  it: it leaves the watch lists and the model check, and its slot in
  ``clauses`` becomes None, so clause indices stay stable.  Its proof node
  stays in the append-only store, so every proof stays valid across
  incremental calls;
* every learnt clause carries a proof chain built only from clause nodes,
  never from assumption literals, which is what keeps learnt clauses sound
  premises under any future assumptions;
* every Sat answer comes from a search and is checked against all
  clauses, inputs and the learnts not deleted, before it is returned;
* the value array stores an assignment made at decision level 0 as +-2 and
  any other as +-1, so one load tells a fact that holds for good, since
  level 0 is never undone.  A clause satisfied at level 0 can never
  propagate or conflict again: ``add_clause`` attaches no watches to it, and
  ``_propagate`` drops the watch through which it meets one.  Detaching only
  removes such clauses from watch lists, keeping the order of the others,
  so the search is the same as with them attached; they stay in
  ``clauses``, so analysis and the model check see them.

Conflict analysis is First-UIP.  One backward walk resolves literals out
of a clause, latest on the trail first: the level-0 literals of each learnt
clause, whose reason chains are then part of its logged derivation, so each
learnt clause's proof node derives exactly that clause; every literal of a
conflict at level 0, which derives the empty clause; and every literal of
the reason of a falsified assumption except that assumption's negation, whose
decisions left over are the assumptions responsible.  The walk pops a heap
keyed on trail position, so its cost follows the literals resolved, not the
length of the trail.

One placement loop serves ``solve`` and ``propagate_assumptions``: it opens
one decision level per assumption, an empty one for an assumption already
true, and calls ``_propagate`` only when the placed literal's negation
watches a clause or something else is pending on the trail; otherwise it
advances ``qhead``, which is all that call would do.  The trail, reasons
and levels are those of propagating after every assumption.
``propagate_assumptions`` places assumptions with unit propagation alone,
so a caller can look for a further core without a search and without
learning anything.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from operator import neg

from .cnf import Lit, normalize_clause
from .proof import ProofStore

SENTINEL = -1  # returned by add_clause for ignored clauses

_RESCALE = 1e100
_RESTART_UNIT = 100  # conflicts per unit of the Luby sequence
_ACT_DECAY = 0.95
_REDUCE_FIRST = 1000  # conflicts before the first learnt-clause reduction
_REDUCE_INC = 300  # growth of the gap between reductions, in conflicts


@dataclass(frozen=True)
class Sat:
    model: dict[int, bool]


@dataclass(frozen=True)
class Unsat:
    refutation: int


@dataclass(frozen=True)
class UnsatUnderAssumptions:
    conflict_assumptions: tuple[Lit, ...]
    refutation: int


SolveOutcome = Sat | Unsat | UnsatUnderAssumptions


class BudgetExceeded(Exception):
    """Raised when a solve call overruns its deadline."""


def luby(i: int) -> int:
    """The i-th term of the Luby restart sequence (1-indexed)."""
    while True:
        k = 1
        while (1 << k) - 1 < i:
            k += 1
        if i == (1 << k) - 1:
            return 1 << (k - 1)
        i -= (1 << (k - 1)) - 1


class Solver:
    def __init__(self, keep_learnts: bool = False):
        """``keep_learnts`` turns learnt-clause reduction off: every learnt
        clause stays for the solver's life."""
        self.proof = ProofStore()
        # positions 0/1 are the watched pair; None marks a deleted learnt
        self.clauses: list[list[Lit] | None] = []
        self.clause_node: list[int] = []
        self.unsat_node: int | None = None
        self.trail: list[Lit] = []
        self.trail_lim: list[int] = []
        self.qhead = 0
        self.n_conflicts = 0
        cap = 64
        self._cap = cap
        # index _cap + lit: 1 true, -1 false; +-2 when assigned at level 0
        self._vals = [0] * (2 * cap + 1)
        self._watches: list[list[int]] = [[] for _ in range(2 * cap + 1)]
        self._level = [0] * (cap + 1)
        self._reason = [-1] * (cap + 1)
        self._tpos = [0] * (cap + 1)
        self._activity = [0.0] * (cap + 1)
        self._seen = bytearray(cap + 1)
        self._active = bytearray(cap + 1)
        self._active_list: list[int] = []
        self._heap: list[tuple[float, int]] = []
        self._in_heap = bytearray(cap + 1)  # 1: has an entry at its current activity
        self._var_inc = 1.0
        self._last: SolveOutcome | None = None
        # LBD of each learnt clause a reduction may delete: 3+ literals,
        # LBD above 2, not deleted yet.  Keyed by clause index.
        self._lbd: dict[int, int] = {}
        self._reduce_gap = _REDUCE_FIRST
        self._next_reduce = None if keep_learnts else _REDUCE_FIRST

    # ------------------------------------------------------------------
    # variable bookkeeping

    def _grow(self, var: int):
        cap = self._cap
        new_cap = max(2 * cap, var)
        old_vals, off = self._vals, cap
        vals = [0] * (2 * new_cap + 1)
        watches: list[list[int]] = [[] for _ in range(2 * new_cap + 1)]
        for lit in range(-cap, cap + 1):
            vals[new_cap + lit] = old_vals[off + lit]
            watches[new_cap + lit] = self._watches[off + lit]
        extra = new_cap - cap
        self._vals = vals
        self._watches = watches
        self._level.extend([0] * extra)
        self._reason.extend([-1] * extra)
        self._tpos.extend([0] * extra)
        self._activity.extend([0.0] * extra)
        self._seen.extend(bytes(extra))
        self._active.extend(bytes(extra))
        self._in_heap.extend(bytes(extra))
        self._cap = new_cap

    def _activate(self, var: int):
        if var > self._cap:
            self._grow(var)
        if not self._active[var]:
            self._active[var] = 1
            self._active_list.append(var)
            self._in_heap[var] = 1
            heappush(self._heap, (-self._activity[var], var))

    @property
    def num_vars(self) -> int:
        return len(self._active_list)

    # ------------------------------------------------------------------
    # clause input

    def add_clause(self, lits) -> int:
        """Register a clause (at decision level 0) and propagate its units.

        Tautologies are ignored; adding to an already-refuted solver is a
        no-op.  Both return the sentinel id.  A clause already satisfied at
        level 0 is stored but not watched.  Literal 0 raises ValueError.
        """
        if self.unsat_node is not None:
            return SENTINEL
        if self.trail_lim:
            raise ValueError("clauses may only be added at decision level 0")
        norm = normalize_clause(lits)
        if norm and norm[0] == 0:
            raise ValueError(f"literal 0 in clause {norm}")
        if len(set(map(abs, norm))) != len(norm):  # normalized, so x and -x: a tautology
            return SENTINEL
        active = self._active
        for l in norm:
            v = l if l > 0 else -l
            if v > self._cap or not active[v]:
                self._activate(v)
        node = self.proof._append_input(norm)  # checked just above
        ci = len(self.clauses)
        off = self._cap
        vals = self._vals
        nonfalse = [l for l in norm if vals[off + l] >= 0]
        if len(nonfalse) == len(norm):
            ordered = nonfalse
        else:
            ordered = nonfalse + [l for l in norm if vals[off + l] < 0]
        self.clauses.append(ordered)
        self.clause_node.append(node)
        if not norm:
            self.unsat_node = node
        elif not nonfalse:
            self._refute_at_level0(ci)
        elif len(nonfalse) == 1:
            l = nonfalse[0]
            if vals[off + l] == 0:
                self._enqueue(l, ci)
                confl = self._propagate()
                if confl >= 0:
                    self._refute_at_level0(confl)
        elif not any(vals[off + l] for l in nonfalse):
            self._watches[off + ordered[0]].append(ci)
            self._watches[off + ordered[1]].append(ci)
        return ci

    # ------------------------------------------------------------------
    # trail

    def _enqueue(self, lit: Lit, reason: int):
        v = lit if lit > 0 else -lit
        off = self._cap
        dl = len(self.trail_lim)
        tval = 1 if dl else 2
        self._vals[off + lit] = tval
        self._vals[off - lit] = -tval
        self._level[v] = dl
        self._reason[v] = reason
        self._tpos[v] = len(self.trail)
        self.trail.append(lit)

    def _backtrack(self, level: int):
        if len(self.trail_lim) <= level:
            return
        limit = self.trail_lim[level]
        off = self._cap
        vals = self._vals
        heap = self._heap
        activity = self._activity
        in_heap = self._in_heap
        for lit in self.trail[limit:]:
            v = lit if lit > 0 else -lit
            vals[off + lit] = 0
            vals[off - lit] = 0
            if not in_heap[v]:
                in_heap[v] = 1
                heappush(heap, (-activity[v], v))
        del self.trail[limit:]
        del self.trail_lim[level:]
        self.qhead = limit
        if len(heap) > 2 * len(self._active_list):
            self._rebuild_heap()

    def _propagate(self) -> int:
        """Unit propagation; returns the index of a falsified clause, or -1."""
        vals = self._vals
        off = self._cap
        watches = self._watches
        clauses = self.clauses
        trail = self.trail
        level = self._level
        reason = self._reason
        tpos = self._tpos
        dl = len(self.trail_lim)
        tval = 1 if dl else 2
        qhead = self.qhead
        while qhead < len(trail):
            p = trail[qhead]
            qhead += 1
            ws = watches[off - p]
            if not ws:
                continue
            np = -p
            i = j = 0
            end = len(ws)
            while i < end:
                ci = ws[i]
                i += 1
                lits = clauses[ci]
                if lits[0] == np:
                    lits[0] = lits[1]
                    lits[1] = np
                w0 = lits[0]
                val0 = vals[off + w0]
                if val0 > 0:  # satisfied; at level 0 for good, so unwatched
                    if val0 == 1:
                        ws[j] = ci
                        j += 1
                    continue
                n = len(lits)
                k = 2
                while k < n:
                    if vals[off + lits[k]] >= 0:
                        break
                    k += 1
                if k < n:
                    lk = lits[k]
                    lits[1] = lk
                    lits[k] = np
                    watches[off + lk].append(ci)
                    continue
                ws[j] = ci
                j += 1
                if val0 < 0:
                    while i < end:
                        ws[j] = ws[i]
                        j += 1
                        i += 1
                    del ws[j:]
                    self.qhead = qhead
                    return ci
                v = w0 if w0 > 0 else -w0
                vals[off + w0] = tval
                vals[off - w0] = -tval
                level[v] = dl
                reason[v] = ci
                tpos[v] = len(trail)
                trail.append(w0)
            del ws[j:]
        self.qhead = qhead
        return -1

    # ------------------------------------------------------------------
    # activity

    def _bump(self, var: int):
        act = self._activity[var] + self._var_inc
        self._activity[var] = act
        if act > _RESCALE:
            scale = 1.0 / _RESCALE
            for v in self._active_list:
                self._activity[v] *= scale
            self._var_inc *= scale
            self._rebuild_heap()
        elif self._vals[self._cap + var] == 0:
            self._in_heap[var] = 1
            heappush(self._heap, (-act, var))
        else:
            self._in_heap[var] = 0  # its entry, if any, is stale now

    def _rebuild_heap(self):
        """One entry per unassigned variable, at its current activity."""
        off = self._cap
        vals = self._vals
        activity = self._activity
        in_heap = self._in_heap
        heap = []
        for v in self._active_list:
            free = vals[off + v] == 0
            in_heap[v] = free
            if free:
                heap.append((-activity[v], v))
        heapify(heap)
        self._heap = heap

    def _pick_branch_var(self) -> int:
        vals = self._vals
        off = self._cap
        activity = self._activity
        in_heap = self._in_heap
        heap = self._heap
        while heap:
            negact, v = heappop(heap)
            if activity[v] == -negact:
                in_heap[v] = 0
                if vals[off + v] == 0:
                    return v
        raise RuntimeError("internal: decision heap exhausted with unassigned vars")

    # ------------------------------------------------------------------
    # conflict analysis

    def _chain_to_node(self, start_clause: int, steps) -> int:
        """Materialize a recorded resolution chain as proof nodes.

        Each step is (antecedent clause index, trail literal t); the running
        clause contains -t and the antecedent contains t, so the orientation
        (pivot positive on the left) follows from the sign of t.
        """
        proof = self.proof
        append = proof._append_resolvent
        clause_node = self.clause_node
        node = clause_node[start_clause]
        for ci, t in steps:
            rnode = clause_node[ci]
            if t > 0:
                node = append(rnode, node, t)
            else:
                node = append(node, rnode, -t)
        return node

    def _resolve_back(self, start: int, steps, lits):
        """Extend the chain that begins at clause ``start`` and goes on
        through ``steps``, resolving ``lits`` out latest on the trail first.

        ``lits`` are falsified literals of the chain's clause, repeats
        allowed.  A literal with a reason is resolved against it; one
        without is a decision and stays.  A reason clause holds only
        literals earlier on the trail than the one it implies, so a heap on
        trail position gives the order of a backward walk of the trail, at a
        cost that follows the literals resolved.  Returns the proof node and
        the decisions met, latest first.
        """
        seen = self._seen
        trail = self.trail
        reason = self._reason
        clauses = self.clauses
        tpos = self._tpos
        touched: list[int] = []
        heap: list[int] = []
        for q in lits:
            v = q if q > 0 else -q
            if not seen[v]:
                seen[v] = 1
                touched.append(v)
                heap.append(-tpos[v])
        heapify(heap)
        decisions: list[Lit] = []
        while heap:
            t = trail[-heappop(heap)]
            rci = reason[t if t > 0 else -t]
            if rci < 0:
                decisions.append(t)
                continue
            steps.append((rci, t))
            for q in clauses[rci]:
                if q != t:
                    u = q if q > 0 else -q
                    if not seen[u]:
                        seen[u] = 1
                        touched.append(u)
                        heappush(heap, -tpos[u])
        for v in touched:
            seen[v] = 0
        return self._chain_to_node(start, steps), decisions

    def _refute_at_level0(self, confl: int):
        """Derive the empty clause from a conflict at decision level 0."""
        self.unsat_node = self._resolve_back(confl, [], self.clauses[confl])[0]

    def _analyze(self, confl: int):
        """First-UIP analysis; returns (learnt lits, backjump level, proof node).

        learnt[0] is the asserting literal; learnt[1] (when present) is a
        literal from the backjump level, so the pair is watchable as-is.
        """
        clauses = self.clauses
        level = self._level
        reason = self._reason
        trail = self.trail
        seen = self._seen
        cur_level = len(self.trail_lim)
        learnt: list[Lit] = []
        level0: list[Lit] = []
        steps: list[tuple[int, int]] = []
        touched: list[int] = []
        path = 0
        p = 0
        idx = len(trail) - 1
        ci = confl
        while True:
            if p:
                steps.append((ci, p))
            for q in clauses[ci]:
                if q == p:
                    continue
                v = q if q > 0 else -q
                if not seen[v]:
                    lv = level[v]
                    if not lv:
                        level0.append(q)  # the walk drops repeats
                        continue
                    seen[v] = 1
                    touched.append(v)
                    if lv >= cur_level:
                        path += 1
                    else:
                        learnt.append(q)
                    self._bump(v)
            while True:
                t = trail[idx]
                v = t if t > 0 else -t
                if seen[v] and level[v] >= cur_level:
                    break
                idx -= 1
            p = t
            ci = reason[v]
            seen[v] = 0
            path -= 1
            idx -= 1
            if path == 0:
                break
        learnt.insert(0, -p)
        for v in touched:
            seen[v] = 0
        node = self._resolve_back(confl, steps, level0)[0]
        if len(learnt) == 1:
            bt = 0
        else:
            best = 1
            for k in range(2, len(learnt)):
                if level[abs(learnt[k])] > level[abs(learnt[best])]:
                    best = k
            learnt[1], learnt[best] = learnt[best], learnt[1]
            bt = level[abs(learnt[1])]
        return learnt, bt, node

    def _analyze_final(self, p: Lit) -> UnsatUnderAssumptions:
        """Assumption p is falsified: derive the clause over the negations of
        the assumptions responsible (p's own negation included)."""
        rci = self._reason[abs(p)]
        if rci < 0:
            raise RuntimeError("internal: falsified assumption without a reason")
        lits = [q for q in self.clauses[rci] if q != -p]
        node, decisions = self._resolve_back(rci, [], lits)
        return UnsatUnderAssumptions((p, *decisions), node)

    # ------------------------------------------------------------------
    # search

    def _install_learnt(self, lits: list[Lit], node: int) -> int:
        ci = len(self.clauses)
        self.clauses.append(lits)
        self.clause_node.append(node)
        if len(lits) >= 2:
            off = self._cap
            self._watches[off + lits[0]].append(ci)
            self._watches[off + lits[1]].append(ci)
        return ci

    def _reduce_learnts(self):
        """Delete the worse half of the learnt clauses that may go, highest
        LBD first, ties to the lower index; at decision level 0 only, where
        the reasons of the trail's literals are the only locked clauses."""
        reason = self._reason
        locked = {reason[l if l > 0 else -l] for l in self.trail}
        lbd = self._lbd
        cands = sorted(
            (ci for ci in lbd if ci not in locked), key=lambda ci: (-lbd[ci], ci)
        )
        dead = set(cands[: len(cands) // 2])
        clauses = self.clauses
        for ci in dead:
            clauses[ci] = None
            del lbd[ci]
        if dead:
            for ws in self._watches:
                if ws and not dead.isdisjoint(ws):
                    ws[:] = [ci for ci in ws if ci not in dead]
        self._reduce_gap += _REDUCE_INC
        self._next_reduce = self.n_conflicts + self._reduce_gap

    def _take_assumptions(self, assumptions) -> list[Lit]:
        """Check an assumption list, activate its variables and return to
        level 0, where placing it starts."""
        assumptions = list(assumptions)
        aset = set(assumptions)
        if 0 in aset or not aset.isdisjoint(map(neg, aset)):
            raise ValueError(f"inconsistent assumption list {assumptions}")
        active = self._active
        for l in assumptions:
            v = l if l > 0 else -l
            if v > self._cap or not active[v]:
                self._activate(v)
        self._backtrack(0)
        return assumptions

    def _place_assumptions(self, assumptions: list[Lit]) -> int | UnsatUnderAssumptions:
        """Open one decision level per assumption not yet placed, an empty
        one for each already true, and propagate each new one when that can
        imply anything (see the module docstring).  Returns -1 once every
        assumption has its level, the index of a clause that propagation
        falsified, or the core of an assumption that comes out false."""
        trail = self.trail
        trail_lim = self.trail_lim
        vals = self._vals
        off = self._cap
        watches = self._watches
        level = self._level
        reason = self._reason
        tpos = self._tpos
        while (dl := len(trail_lim)) < len(assumptions):
            a = assumptions[dl]
            va = vals[off + a]
            if va < 0:
                return self._analyze_final(a)
            pos = len(trail)
            trail_lim.append(pos)
            if va:
                continue  # already true: an empty level
            v = a if a > 0 else -a
            vals[off + a] = 1
            vals[off - a] = -1
            level[v] = dl + 1
            reason[v] = -1
            tpos[v] = pos
            trail.append(a)
            if watches[off - a] or self.qhead != pos:
                confl = self._propagate()
                if confl >= 0:
                    return confl
            else:
                self.qhead = pos + 1
        return -1

    def propagate_assumptions(self, assumptions) -> UnsatUnderAssumptions | None:
        """Place the assumptions as ``solve`` does, one decision level each,
        but with unit propagation alone: no decision of its own, no search,
        no learning.  Returns the refusal of the first assumption that comes
        out false, with its core and refutation in ``solve``'s shape, or None
        when every assumption places or a propagation conflict stops it.

        Starts and ends at level 0.  ``n_conflicts``, ``clauses``, the
        level-0 trail and the branching order stay as they were; the proof
        store gains only the resolvents of a returned refutation.
        """
        if self.unsat_node is not None:
            return None
        out = self._place_assumptions(self._take_assumptions(assumptions))
        self._backtrack(0)
        return out if isinstance(out, UnsatUnderAssumptions) else None

    def solve(self, assumptions=(), deadline: float | None = None) -> SolveOutcome:
        """Decide the clause database under the given assumption literals.

        Returns Sat with a model over all solver variables, Unsat if the
        database alone is contradictory, or UnsatUnderAssumptions with a
        conflicting subset of the assumptions.  A Sat model is checked
        against every clause before it is returned.  Learnt clauses not
        deleted by a reduction, and every proof node, persist across calls.
        Raises BudgetExceeded past ``deadline`` (a time.monotonic()
        timestamp).
        """
        if self.unsat_node is not None:
            self._last = Unsat(self.unsat_node)
            return self._last
        assumptions = self._take_assumptions(assumptions)
        reducing = self._next_reduce is not None
        if reducing and self.n_conflicts >= self._next_reduce:
            self._reduce_learnts()
        level = self._level
        restart_idx = 1
        restart_limit = _RESTART_UNIT * luby(restart_idx)
        conflicts_here = 0
        decisions = 0
        n_active = len(self._active_list)
        while True:
            confl = self._propagate()
            if confl < 0 and len(self.trail_lim) < len(assumptions):
                confl = self._place_assumptions(assumptions)
                if isinstance(confl, UnsatUnderAssumptions):
                    self._backtrack(0)
                    self._last = confl
                    return confl
            if confl >= 0:
                self.n_conflicts += 1
                conflicts_here += 1
                if deadline is not None and time.monotonic() > deadline:
                    self._backtrack(0)
                    raise BudgetExceeded
                if not self.trail_lim:
                    self._refute_at_level0(confl)
                    self._last = Unsat(self.unsat_node)
                    return self._last
                learnt, bt, node = self._analyze(confl)
                lbd = 0
                if reducing and len(learnt) > 2:
                    lbd = len({level[q if q > 0 else -q] for q in learnt})
                self._backtrack(bt)
                ci = self._install_learnt(learnt, node)
                if lbd > 2:
                    self._lbd[ci] = lbd
                self._enqueue(learnt[0], ci)
                self._var_inc /= _ACT_DECAY
                if conflicts_here >= restart_limit:
                    conflicts_here = 0
                    restart_idx += 1
                    restart_limit = _RESTART_UNIT * luby(restart_idx)
                    self._backtrack(0)
                    if reducing and self.n_conflicts >= self._next_reduce:
                        self._reduce_learnts()
                continue
            if len(self.trail) == n_active:
                model = self._snapshot_model()
                self._verify_model(model)
                self._backtrack(0)
                self._last = Sat(model)
                return self._last
            decisions += 1
            if deadline is not None and not decisions & 511 and time.monotonic() > deadline:
                self._backtrack(0)
                raise BudgetExceeded
            self.trail_lim.append(len(self.trail))
            self._enqueue(-self._pick_branch_var(), -1)  # default polarity false

    def _snapshot_model(self) -> dict[int, bool]:
        off = self._cap
        vals = self._vals
        return {v: vals[off + v] > 0 for v in self._active_list}

    def _verify_model(self, model: dict[int, bool]):
        """Raise unless the model satisfies every clause, inputs and the
        learnts not deleted."""
        true_lits = {v if b else -v for v, b in model.items()}
        # filter(None) skips deleted slots, and an empty clause, which
        # refutes the solver, so no model is ever checked against it.
        falsified = next(filter(true_lits.isdisjoint, filter(None, self.clauses)), None)
        if falsified is not None:
            raise RuntimeError(f"internal: model fails clause {sorted(falsified)}")

    # ------------------------------------------------------------------
    # a refusal as a refutation of its clauses and its core's units

    def labeled_refutation(self, b_units) -> int:
        """Extend the last unsatisfiable outcome to an empty-clause proof
        whose leaves are this solver's inputs and, appended as new inputs,
        unit clauses over ``b_units``.  The loop does not call it;
        perfbench's tracer wraps it by name.

        The refutation under assumptions derives the clause of the negated
        conflict assumptions, so resolving it with each assumption's unit
        is sound by construction and is appended unvalidated."""
        last = self._last
        if last is None or isinstance(last, Sat):
            raise ValueError("labeled_refutation requires a preceding unsat solve")
        if isinstance(last, Unsat):
            return last.refutation
        missing = set(last.conflict_assumptions) - set(b_units)
        if missing:
            raise ValueError(f"conflict assumptions {missing} not among b_units")
        proof = self.proof
        node = last.refutation
        for a in last.conflict_assumptions:
            unit = proof._append_input((a,))
            if a > 0:
                node = proof._append_resolvent(unit, node, a)
            else:
                node = proof._append_resolvent(node, unit, -a)
        return node
