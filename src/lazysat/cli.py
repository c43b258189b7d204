"""Command-line front end.

Subcommands:

* ``solve``  one file, SAT-competition style output and exit codes
  (10 satisfiable, 20 unsatisfiable, 0 unknown, 1 errors);
* ``sweep``  one file across a range of partition counts, CSV out;
* ``bench``  every ``.cnf`` file in a directory across partition-count and
  interpolation-system lists, CSV out plus a best-k summary row per
  (file, system).

CSV schema is fixed: ``file,k,system,verdict,seconds,rounds,g_clauses,
itp_nodes``.  Timeouts are reported as UNKNOWN with seconds equal to the
budget.  Summary rows carry verdict BEST, the winning k, and its time.
"""

from __future__ import annotations

import argparse
import csv
import io
import sys
import time
from dataclasses import astuple, dataclass
from pathlib import Path

from .cnf import Formula, parse_dimacs
from .itp import ItpSystem
from .reconcile import DEFAULT_MAX_ROUNDS, ReconcileResult, reconcile

CSV_FIELDS = ("file", "k", "system", "verdict", "seconds", "rounds", "g_clauses", "itp_nodes")

_EXIT_BY_VERDICT = {"SAT": 10, "UNSAT": 20, "UNKNOWN": 0}


@dataclass
class RunRecord:
    file: str
    k: int | str
    system: str
    verdict: str  # SAT | UNSAT | UNKNOWN | ERROR | BEST
    seconds: float | str
    rounds: int | str
    g_clauses: int | str
    itp_nodes: int | str


def run_one(
    f: Formula,
    name: str,
    k: int,
    system: ItpSystem,
    timeout: float | None,
    seed: int | None,
    max_rounds: int = DEFAULT_MAX_ROUNDS,
    on_interpolant=None,
) -> tuple[RunRecord, ReconcileResult | None]:
    """One reconciliation run distilled into a CSV row (plus the raw result)."""
    t0 = time.monotonic()
    try:
        result = reconcile(
            f, k, system,
            max_rounds=max_rounds,
            timeout=timeout,
            completion_seed=seed,
            on_interpolant=on_interpolant,
        )
    except ValueError as exc:
        record = RunRecord(name, k, system.value, "ERROR", round(time.monotonic() - t0, 3), "", "", "")
        record.error = str(exc)  # type: ignore[attr-defined]
        return record, None
    elapsed = time.monotonic() - t0
    if result.exhausted == "time" and timeout is not None:
        seconds = float(timeout)
    else:
        seconds = elapsed
    record = RunRecord(
        name,
        k,
        system.value,
        result.verdict,
        round(seconds, 3),
        result.stats.rounds,
        result.stats.g_clause_count,
        result.stats.peak_itp_nodes,
    )
    return record, result


def _write_csv(records: list[RunRecord], out: str | None):
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(CSV_FIELDS)
    for r in records:
        writer.writerow(astuple(r))
    text = buf.getvalue()
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _parse_system(name: str) -> ItpSystem:
    try:
        return ItpSystem(name)
    except ValueError:
        valid = ", ".join(s.value for s in ItpSystem)
        raise SystemExit(f"error: unknown interpolation system {name!r} (choose from {valid})")


def _load(path: str) -> Formula:
    return parse_dimacs(Path(path).read_text())


def cmd_solve(args) -> int:
    try:
        f = _load(args.file)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    system = _parse_system(args.itp)
    if args.partitions < 1 or (f.clauses and args.partitions > len(f.clauses)):
        print(
            f"error: --partitions {args.partitions} outside 1..{len(f.clauses)}",
            file=sys.stderr,
        )
        return 1
    dump_hook = None
    if args.dump_itp:
        dump_dir = Path(args.dump_itp)
        dump_dir.mkdir(parents=True, exist_ok=True)

        def dump_hook(rec):
            path = dump_dir / f"itp_r{rec.round}_p{rec.partition}.dot"
            path.write_text(rec.rbc.to_dot(rec.ref))

    record, result = run_one(
        f, args.file, args.partitions, system, args.timeout, args.seed,
        on_interpolant=dump_hook,
    )
    if result is None:
        print(f"error: {getattr(record, 'error', 'run failed')}", file=sys.stderr)
        return 1
    if args.stats:
        print(f"c rounds {result.stats.rounds}")
        print(f"c g_clauses {result.stats.g_clause_count}")
        print(f"c interpolants {result.stats.interpolants}")
        print(f"c peak_itp_nodes {result.stats.peak_itp_nodes}")
        print(f"c seconds {record.seconds}")
    if result.verdict == "SAT":
        model = result.model
        print("s SATISFIABLE")
        lits = [v if model[v] else -v for v in sorted(model)]
        for i in range(0, len(lits), 12):
            chunk = lits[i : i + 12]
            end = " 0" if i + 12 >= len(lits) else ""
            print("v " + " ".join(str(l) for l in chunk) + end)
        if not lits:
            print("v 0")
    elif result.verdict == "UNSAT":
        if args.check_proofs:
            ok = result.g_proof is not None and result.g_proof.check_refutation(
                result.g_refutation
            )
            print(f"c proof check: {'ok' if ok else 'FAILED'}")
            if not ok:
                return 1
        print("s UNSATISFIABLE")
    else:
        print("s UNKNOWN")
    return _EXIT_BY_VERDICT[result.verdict]


def _parse_range(spec: str) -> tuple[int, int]:
    lo, _, hi = spec.partition("..")
    try:
        a, b = int(lo), int(hi if hi else lo)
    except ValueError:
        raise SystemExit(f"error: bad partition range {spec!r}, expected A..B")
    if a < 1 or b < a:
        raise SystemExit(f"error: bad partition range {spec!r}")
    return a, b


def cmd_sweep(args) -> int:
    try:
        f = _load(args.file)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    system = _parse_system(args.itp)
    lo, hi = _parse_range(args.partitions)
    records = []
    for k in range(lo, hi + 1):
        record, _ = run_one(f, args.file, k, system, args.timeout, args.seed)
        records.append(record)
    _write_csv(records, args.csv)
    return 0


def cmd_bench(args) -> int:
    bench_dir = Path(args.dir)
    if not bench_dir.is_dir():
        print(f"error: {args.dir} is not a directory", file=sys.stderr)
        return 1
    ks = [int(x) for x in args.partitions.split(",") if x]
    systems = [_parse_system(s) for s in args.itp.split(",") if s]
    files = sorted(bench_dir.glob("*.cnf"))
    records: list[RunRecord] = []
    best: dict[tuple[str, str], tuple[float, int]] = {}
    for path in files:
        name = path.name
        try:
            f = _load(str(path))
        except (OSError, ValueError):
            for system in systems:
                for k in ks:
                    records.append(RunRecord(name, k, system.value, "ERROR", "", "", "", ""))
            continue
        for system in systems:
            for k in ks:
                record, _ = run_one(f, name, k, system, args.timeout, args.seed)
                records.append(record)
                key = (name, system.value)
                if record.verdict in ("SAT", "UNSAT"):
                    t = float(record.seconds)
                    if key not in best or t < best[key][0]:
                        best[key] = (t, k)
    for path in files:
        for system in systems:
            key = (path.name, system.value)
            if key in best:
                t, k = best[key]
                records.append(RunRecord(path.name, k, system.value, "BEST", t, "", "", ""))
            else:
                records.append(RunRecord(path.name, "", system.value, "BEST", "", "", "", ""))
    _write_csv(records, args.csv)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lazysat",
        description="SAT solving over lazy clause partitions reconciled by interpolants",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--itp", default="mcmillan", help="interpolation system: mcmillan, hkp, dual-mcmillan")
        p.add_argument("--timeout", type=float, default=3600.0, help="wall-clock budget in seconds")
        p.add_argument("--seed", type=int, default=None, help="seed random completion of unconstrained shared vars")

    p_solve = sub.add_parser("solve", help="solve one DIMACS file")
    p_solve.add_argument("file")
    p_solve.add_argument("--partitions", "-k", type=int, default=1, help="number of partitions")
    common(p_solve)
    p_solve.add_argument("--check-proofs", action="store_true", help="validate the refutation behind UNSAT verdicts")
    p_solve.add_argument("--stats", action="store_true", help="print a stats block as comment lines")
    p_solve.add_argument("--dump-itp", metavar="DIR", default=None, help="write every interpolant as a DOT file into DIR")
    p_solve.set_defaults(func=cmd_solve)

    p_sweep = sub.add_parser("sweep", help="solve one file for each partition count in a range")
    p_sweep.add_argument("file")
    p_sweep.add_argument("--partitions", required=True, metavar="A..B", help="partition range, inclusive")
    common(p_sweep)
    p_sweep.add_argument("--csv", default=None, help="CSV output path (default stdout)")
    p_sweep.set_defaults(func=cmd_sweep)

    p_bench = sub.add_parser("bench", help="run every .cnf file in a directory")
    p_bench.add_argument("dir")
    p_bench.add_argument("--partitions", required=True, metavar="LIST", help="comma-separated partition counts")
    p_bench.add_argument("--itp", default="mcmillan", metavar="LIST", help="comma-separated systems")
    p_bench.add_argument("--timeout", type=float, default=3600.0)
    p_bench.add_argument("--seed", type=int, default=None)
    p_bench.add_argument("--csv", default=None, help="CSV output path (default stdout)")
    p_bench.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
