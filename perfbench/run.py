"""Time-to-verdict benchmark for lazysat.

    python3 perfbench/run.py --workload php-kcurve --seed 1 --seconds 40 --trace 0

``--workload all`` runs every workload, each in its own process.  Run from
the root of a source checkout; lazysat is imported from ``src/``.

One process runs one workload as a closed loop: one caller, one
``reconcile()`` at a time.  A pass solves every (instance, k, system) of the
workload once; passes repeat until ``--seconds`` have gone by, and the
first pass always runs to its end.  Each solve's time is the median of its
repeats.

Times are reported at a fixed reference speed of the host.  Right before
each solve the benchmark times a speed gauge, a short fixed pure-Python
loop that runs no lazysat code; a solve's seconds are scaled by the
reference gauge time over the mean of the gauges just before and just
after it.  On a shared host whose speed drifts for seconds to minutes at
a time, this takes most of the drift out of the figures; the raw figures
are printed as diagnostics.  Every verdict is
checked against an answer that does not come from lazysat: SAT models are
evaluated against the generated clauses by the benchmark's own code, and
G's refutation behind each UNSAT verdict is re-checked as
``lazysat solve --check-proofs`` does, outside the timed region.

``--trace 0`` reports the end-to-end metrics from an untraced run.
``--trace 1`` runs one pass in which every solve runs twice, back to back
and in alternating order: untraced, and with the outside-in tracer
installed.  It reports the per-layer metrics plus the tracing overhead
between the two.

The last line of standard output is one JSON object: correct, attempted,
failed, metrics.  Per-solve records, the environment and (when traced) the
spans go to ``.perfbench_out/`` in the checkout.  The exit code is 1 when a
verdict, model or refutation is wrong.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from itertools import count
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

sys.path.insert(0, str(HERE))

import instances  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

perf = time.perf_counter

SETUP_REPEATS = 7  # fresh interpreters per run; setup_s is their median
HARD_STOP_S = 140.0  # no solve starts later than this into the run
LAST_DEADLINE_S = 165.0  # and none may run past this

# Fields of a solve that must repeat exactly whenever the same
# (instance, k, system) is solved again, in this run or a later one.
UNTRACED_COUNTS = ("verdict", "reconcile.rounds", "reconcile.g_clauses", "itp.count")
TRACED_COUNTS = UNTRACED_COUNTS + (
    "solver.g.conflicts",
    "solver.part.conflicts",
    "itp.nodes_sum",
)


def import_lazysat():
    if not (SRC / "lazysat" / "__init__.py").is_file():
        sys.exit(f"error: no lazysat package at {SRC / 'lazysat'}")
    sys.path.insert(0, str(SRC))
    import lazysat

    return lazysat


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "lazysat").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def git_rev() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def calibrate(iterations: int = 2_000_000) -> float:
    """Seconds for a fixed pure-Python loop, a gauge of the host's speed."""
    t0 = perf()
    x = 0
    for i in range(iterations):
        x = (x * 31 + i) & 0xFFFF
    return perf() - t0


# The speed gauge is a short run of the calibration loop.  Reported times
# are scaled to the speed at which it takes REFERENCE_GAUGE_S, about the
# host's fast state on the 2-vCPU machine the baseline was measured on.
# The benchmark's DPLL was tried as a gauge too: its time jumped between
# two levels 1.5x apart with the heap the solves left behind, whatever the
# host's speed.
GAUGE_ITERATIONS = 80_000
REFERENCE_GAUGE_S = 0.0065


def gauge() -> float:
    return calibrate(GAUGE_ITERATIONS)


class SetupProbe:
    """``import lazysat`` plus parsing every text, each time in a fresh
    interpreter.  Probes are spread evenly over the run's seconds so their
    median averages over the host's speed drift."""

    def __init__(self, texts: list[str], seconds: float):
        self.blob = "\0".join(texts).encode()
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.samples: list[float] = []
        self.interval = seconds / SETUP_REPEATS
        self.due = perf()

    def maybe(self):
        """Take a sample if one is due."""
        if len(self.samples) < SETUP_REPEATS and perf() >= self.due:
            self()
            self.due += self.interval

    def __call__(self):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py")],
            input=self.blob,
            capture_output=True,
            env=self.env,
            timeout=60,
            check=True,
        )
        self.samples.append(float(proc.stdout))


def solve_key(inst: workloads.Instance, solve: workloads.Solve) -> str:
    digest = hashlib.sha256(inst.text.encode()).hexdigest()[:16]
    return f"{digest}/k{solve.k}/{solve.system}"


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks."""
    xs = sorted(values)
    pos = q / 100 * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(pass_size: int) -> int:
    """Highest whole percentile with at least 10 of one pass's solves above
    it (fixed per workload, whatever the number of passes)."""
    return max(0, 100 * (pass_size - 11) // (pass_size - 1)) if pass_size > 1 else 0


class Runner:
    def __init__(self, lazysat, wl: workloads.Workload, t_start: float):
        from lazysat.itp import ItpSystem

        self.lazysat = lazysat
        self.cnf = sys.modules["lazysat.cnf"]
        self.systems = {s.value: s for s in ItpSystem}
        self.wl = wl
        self.t_start = t_start
        self.formulas = [self.cnf.parse_dimacs(i.text) for i in wl.instances]
        self.seen: dict[str, dict] = {}  # solve key -> counts first seen
        self.failed = 0
        self.wrong = 0
        self.attempted = 0
        self.passes = 0

    def run_timed(self, seconds: float, probe: SetupProbe) -> list[dict]:
        """Untraced passes until ``seconds`` have gone by, the first one
        whole; ``probe`` takes its set-up samples between solves.  Each
        record gets ``gauge_after``, the next gauge after its solve."""
        records: list[dict] = []
        n = len(self.wl.solves)
        t_loop = perf()
        for i in count():
            now = perf()
            if now - self.t_start > HARD_STOP_S or (i >= n and now - t_loop > seconds):
                break
            records.append(self.run_solve(i % n, self.wl.solves[i % n], None))
            probe.maybe()
        for rec, nxt in zip(records, records[1:]):
            rec["gauge_after"] = nxt["gauge"]
        gc.collect()
        records[-1]["gauge_after"] = gauge()
        self.passes = len(records) // n
        return records

    def run_paired(self, tracer: Tracer) -> tuple[list[dict], list[dict]]:
        """One pass in which each solve runs untraced and traced back to
        back, so both see the same host speed; which goes first alternates.
        Returns (untraced, traced) records."""
        with tracer.installed():  # parse again so the parse layer has spans
            for inst in self.wl.instances:
                self.cnf.parse_dimacs(inst.text)
        plain, traced = [], []
        for sid, solve in enumerate(self.wl.solves):
            if perf() - self.t_start > HARD_STOP_S:
                break
            for with_trace in ((False, True) if sid % 2 == 0 else (True, False)):
                if with_trace:
                    with tracer.installed():
                        traced.append(self.run_solve(sid, solve, tracer))
                else:
                    plain.append(self.run_solve(sid, solve, None))
        self.passes = 1
        return plain, traced

    def run_solve(self, sid: int, solve, tracer: Tracer | None) -> dict:
        inst = self.wl.instances[solve.instance]
        f = self.formulas[solve.instance]
        system = self.systems[solve.system]
        budget = min(workloads.BUDGET_S, LAST_DEADLINE_S - (perf() - self.t_start))
        rec = {
            "key": solve_key(inst, solve),
            "instance": inst.name,
            "k": solve.k,
            "system": solve.system,
            "answer": inst.answer,
        }
        self.attempted += 1
        reconcile = self.lazysat.reconcile
        gc.collect()
        rec["gauge"] = gauge()
        t0 = perf()
        try:
            if tracer is None:
                result = reconcile(f, solve.k, system, timeout=budget)
                rec["seconds"] = perf() - t0
            else:
                result, first, counts = tracer.solve(
                    sid, reconcile, f, solve.k, system, timeout=budget
                )
                rec["seconds"] = tracer.end[first] - tracer.start[first]
        except Exception as exc:  # a crashing solve is a failed solve, not a crashed run
            rec["seconds"] = perf() - t0
            rec["failure"] = f"exception: {exc!r}"
            self.failed += 1
            return rec
        stats = result.stats
        rec["verdict"] = result.verdict
        rec["reconcile.rounds"] = stats.rounds
        rec["reconcile.g_clauses"] = stats.g_clause_count
        rec["itp.count"] = stats.interpolants
        if tracer is not None:
            rec.update(counts)
        failure = self.check(inst, result, rec, tracer is not None)
        if tracer is not None:
            rec["self"] = tracer.self_times(first)
        if failure is None:
            failure = self.check_repeat(rec, TRACED_COUNTS if tracer else UNTRACED_COUNTS)
        if failure is not None:
            rec["failure"] = failure
            self.failed += 1
        return rec

    def check(self, inst, result, rec: dict, traced: bool) -> str | None:
        verdict = result.verdict
        if verdict == "UNKNOWN":
            return f"unknown: budget exhausted ({result.exhausted})"
        if verdict != inst.answer:
            self.wrong += 1
            return f"wrong verdict {verdict}, expected {inst.answer}"
        if verdict == "SAT":
            if not instances.satisfies(list(inst.clauses), result.model):
                self.wrong += 1
                return "SAT model fails the generated clauses"
            return None
        t0 = perf()
        ok = result.g_proof is not None and result.g_proof.check_refutation(result.g_refutation)
        rec["check_s"] = perf() - t0
        if traced:
            rec["proof.check_nodes"] = len(result.g_proof.reachable(result.g_refutation))
        if not ok:
            self.wrong += 1
            return "G refutation fails its check"
        return None

    def check_repeat(self, rec: dict, fields) -> str | None:
        counts = {f: rec.get(f, 0) for f in fields}
        prior = self.seen.setdefault(rec["key"], counts)
        diff = {f: (prior[f], counts[f]) for f in fields if f in prior and prior[f] != counts[f]}
        if diff:
            return f"counts differ from an earlier solve: {diff}"
        prior.update(counts)
        return None


def check_across_runs(runner: Runner, digest: str) -> set[str]:
    """Compare this run's counts with those stored by earlier runs of the
    same source in this checkout, then store the union.  Returns the keys
    of the solves whose counts differ."""
    OUT.mkdir(exist_ok=True)
    path = OUT / "counts.json"
    stored = {}
    try:
        data = json.loads(path.read_text())
        if data.get("source") == digest:
            stored = data["solves"]
    except (OSError, ValueError, KeyError):
        pass
    mismatches = set()
    for key, counts in runner.seen.items():
        prior = stored.setdefault(key, dict(counts))
        if any(prior[f] != v for f, v in counts.items() if f in prior):
            mismatches.add(key)
            print(f"# determinism: {key} was {prior}, now {counts}")
        prior.update(counts)
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps({"source": digest, "solves": stored}))
    os.replace(tmp, path)
    return mismatches


def median_of_repeats(records: list[dict], bad_keys: set[str],
                      field: str) -> tuple[list[float], int]:
    """Each (instance, k, system)'s median ``field`` over its repeats, and
    the number of them whose every repeat succeeded."""
    times: dict[str, list[float]] = {}
    for r in records:
        times.setdefault(r["key"], []).append(r[field])
        if "failure" in r:
            bad_keys.add(r["key"])
    return [statistics.median(v) for v in times.values()], len(times.keys() - bad_keys)


def end_to_end(records: list[dict], runner: Runner, bad_keys: set[str],
               tail_q: int, setup: list[float], scaled: bool) -> dict:
    """Timings are over the median of each solve's repeats, at the
    reference speed if ``scaled`` (``ref_seconds``; ``setup_s`` by the
    run's median gauge), else as measured; ``ok_frac`` is over all
    attempts.  ``bad_keys`` names solves that failed a check made after
    the run, such as the cross-run determinism check."""
    for r in records:
        r["ref_seconds"] = r["seconds"] * REFERENCE_GAUGE_S / ((r["gauge"] + r["gauge_after"]) / 2)
    secs, good = median_of_repeats(records, set(bad_keys), "ref_seconds" if scaled else "seconds")
    setup_scale = REFERENCE_GAUGE_S / statistics.median(r["gauge"] for r in records) if scaled else 1.0
    return {
        "setup_s": (statistics.median(setup) * setup_scale, "s"),
        "verdict_s_p50": (statistics.median(secs), "s"),
        "verdict_s_tail": (percentile(secs, tail_q), "s"),
        "verdicts_per_s": (good / sum(secs), "1/s"),
        "ok_frac": (1 - runner.failed / runner.attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def family(name: str) -> str:
    head, _, tail = name.rpartition("-")
    return head if head and tail.isdigit() else name


def diagnostics(records: list[dict], tail_q: int) -> dict:
    """Where the tail comes from, and the median seconds per (family, k)."""
    secs = [r["seconds"] for r in records]
    cut = percentile(secs, tail_q)
    tail = Counter(f"k={r['k']}" for r in records if r["seconds"] > cut)
    groups: dict[str, list[float]] = {}
    for r in records:
        groups.setdefault(f"{family(r['instance'])} k={r['k']}", []).append(r["seconds"])
    return {
        "tail_by_k": dict(sorted(tail.items())),
        "median_s_by_family_k": {g: statistics.median(v) for g, v in sorted(groups.items())},
    }


MEAN_SELF = {
    "cnf.eval_s": "cnf.eval",
    "decomp.split_s": "decomp.split",
    "reconcile.assemble_s": "reconcile.assemble",
    "reconcile.self_s": "reconcile",
    "solver.g.solve_s": "solver.g.solve",
    "solver.g.add_clause_s": "solver.g.add_clause",
    "solver.part.load_s": "solver.part.load",
    "solver.part.solve_s": "solver.part.solve",
    "solver.part.refute_s": "solver.part.refute",
    "itp.interpolate_s": "itp.interpolate",
    "rbc.tseitin_s": "rbc.tseitin",
    "rbc.dag_size_s": "rbc.dag_size",
    "proof.check_s": "proof.check",
    "trace.bookkeeping_s": "trace.bookkeeping",
}
MEAN_COUNT = (
    "decomp.shared_vars",
    "reconcile.rounds",
    "reconcile.g_clauses",
    "solver.g.calls",
    "solver.g.conflicts",
    "solver.g.vars",
    "solver.part.calls",
    "solver.part.conflicts",
    "solver.part.refusals",
    "proof.nodes",
    "proof.check_nodes",
    "itp.count",
    "itp.nodes_sum",
    "rbc.tseitin_clauses",
    "rbc.and_lowered",
)


def per_layer(traced: list[dict], untraced: list[dict], tracer: Tracer) -> dict:
    """Per-solve means over the traced pass, plus ratios of pass totals."""
    n = len(traced)
    total: Counter = Counter()
    for r in traced:
        for name, v in r["self"].items():
            total["self:" + name] += v
        for f in MEAN_COUNT:
            total[f] += r.get(f, 0)
        total["seconds"] += r["seconds"]
        total["rbc.and_relowered"] += r.get("rbc.and_relowered", 0)
    out = {}
    for metric, span in MEAN_SELF.items():
        out[metric] = (total["self:" + span] / n, "s")
    for f in MEAN_COUNT:
        out[f] = (total[f] / n, "count")
    out["cnf.parse_s"] = (
        sum(tracer.end[i] - tracer.start[i] for i in range(len(tracer.name))
            if tracer.names[tracer.name[i]] == "cnf.parse"),
        "s",
    )
    out["itp.nodes_peak"] = (max((r.get("itp.nodes_peak", 0) for r in traced), default=0), "count")
    out["solver.g.share"] = (total["self:solver.g.solve"] / total["seconds"], "ratio")
    calls = total["solver.part.calls"]
    out["solver.part.refusal_frac"] = (total["solver.part.refusals"] / calls if calls else 0.0, "ratio")
    lowered = total["rbc.and_lowered"]
    out["rbc.and_relowered_frac"] = (total["rbc.and_relowered"] / lowered if lowered else 0.0, "ratio")
    verdict_self = sum(v for k, v in total.items() if k.startswith("self:") and k != "self:proof.check")
    out["trace.verdict_s"] = (total["seconds"] / n, "s")
    out["trace.self_sum_s"] = (verdict_self / n, "s")
    base = sum(r["seconds"] for r in untraced)
    out["trace.overhead_frac"] = (total["seconds"] / base - 1.0, "ratio")
    return out


def run_all(args) -> int:
    """Every workload, each in its own process, reported together; metric
    names get the workload as a prefix."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in workloads.BUILDERS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True,
            text=True,
        )
        lines = proc.stdout.splitlines()
        if proc.returncode not in (0, 1) or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        for line in lines[:-1]:
            print(f"{name}: {line}")
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
        code = max(code, proc.returncode)
    print(json.dumps(combined))
    return code


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    t_start = perf()
    lazysat = import_lazysat()
    digest = source_digest()
    calib_before = calibrate()
    t0 = perf()
    wl = workloads.build(args.workload, args.seed)
    generate_s = perf() - t0
    probe = SetupProbe([i.text for i in wl.instances], args.seconds)

    runner = Runner(lazysat, wl, t_start)
    tail_q = tail_percentile(len(wl.solves))
    traced: list[dict] = []
    t_loop = perf()
    if args.trace:
        tracer = Tracer()
        records, traced = runner.run_paired(tracer)
    else:
        records = runner.run_timed(args.seconds, probe)
    loop_s = perf() - t_loop
    while not args.trace and len(probe.samples) < SETUP_REPEATS:
        probe()
    calib_after = calibrate()
    mismatches = check_across_runs(runner, digest)
    runner.failed += len(mismatches)

    if args.trace:
        metrics = per_layer(traced, records, tracer)
        raw = {}
    else:
        metrics = end_to_end(records, runner, mismatches, tail_q, probe.samples, True)
        raw = end_to_end(records, runner, mismatches, tail_q, probe.samples, False)
        raw = {name: raw[name] for name in ("setup_s", "verdict_s_p50", "verdict_s_tail",
                                            "verdicts_per_s")}

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    env = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "interpreter": f"{platform.python_implementation()} {platform.python_version()}",
        "cpu_count": os.cpu_count(),
        "git_rev": git_rev(),
        "source_digest": digest,
        "calibration_s": [calib_before, calib_after],
        "generate_s": generate_s,
        "setup_s": probe.samples,
        "loop_s": loop_s,
        "passes": runner.passes,
        "solves_timed": len(records),
        "gauge_s": [r["gauge"] for r in records] + [records[-1]["gauge_after"]] if raw else [],
        "raw": {name: value for name, (value, _) in raw.items()},
        "pass_size": len(wl.solves),
        "tail_percentile": tail_q,
        "cross_run_mismatches": sorted(mismatches),
        **diagnostics(records, tail_q),
    }
    (OUT / f"{stem}.json").write_text(
        json.dumps({"env": env, "metrics": metrics, "solves": records, "traced": traced}, indent=1)
    )
    if args.trace:
        tracer.write_spans(OUT / f"{args.workload}.spans.tsv.gz", t_start)

    for key in ("interpreter", "cpu_count", "git_rev", "source_digest", "seed",
                "passes", "solves_timed", "pass_size", "tail_percentile", "generate_s",
                "calibration_s", "tail_by_k"):
        print(f"# {key}: {env[key]}")
    if env["gauge_s"]:
        g = env["gauge_s"]
        print(f"# gauge_s: {len(g)} samples, min {min(g):.6f}, median "
              f"{statistics.median(g):.6f}, max {max(g):.6f}")
    for name, (value, unit) in raw.items():
        print(f"# raw {name} {value:.6g} {unit}")
    attempted = runner.attempted
    print(f"# failed_frac: {runner.failed / attempted:.4f} ({runner.failed} of {attempted})")
    for r in records + traced:
        if "failure" in r:
            print(f"# FAILED {r['instance']} k={r['k']} {r['system']}: {r['failure']}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": runner.wrong == 0,
        "attempted": attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 1 if runner.wrong else 0


if __name__ == "__main__":
    sys.exit(main())
