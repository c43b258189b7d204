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
budget.  A file that does not parse, or has fewer clauses than k, gives an
ERROR row.  Summary rows carry verdict BEST, the winning k, and its time.
Bad arguments print an ``error:`` line and exit 1 before anything is solved.
"""

from __future__ import annotations

import argparse
import csv
import io
import sys
import time
from collections import Counter
from dataclasses import astuple, dataclass
from pathlib import Path

from .cnf import Formula, parse_dimacs
from .itp import ItpSystem
from .reconcile import Interpolant, ReconcileResult, reconcile

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
    on_event=None,
) -> tuple[RunRecord, ReconcileResult]:
    """One reconciliation run distilled into a CSV row (plus the raw result).

    Raises ValueError, as ``reconcile`` does, when k is outside
    1..len(f.clauses) for a formula with clauses.
    """
    t0 = time.monotonic()
    result = reconcile(
        f, k, system, timeout=timeout, completion_seed=seed, on_event=on_event
    )
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


def _error_row(name: str, k: int, system: ItpSystem) -> RunRecord:
    return RunRecord(name, k, system.value, "ERROR", "", "", "", "")


def _csv_row(f: Formula, name: str, k: int, system: ItpSystem, args) -> RunRecord:
    """run_one's row, or an ERROR row when f has fewer clauses than k."""
    try:
        return run_one(f, name, k, system, args.timeout, args.seed)[0]
    except ValueError:
        return _error_row(name, k, system)


def _write_csv(rows: list[RunRecord], out: str | None):
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(CSV_FIELDS)
    for r in rows:
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
    return parse_dimacs(Path(path).read_bytes())


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
    dump_itp = None
    if args.dump_itp:
        dump_dir = Path(args.dump_itp)
        try:
            dump_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            print(f"error: --dump-itp: {exc}", file=sys.stderr)
            return 1

        cores = Counter()  # interpolants so far per (round, partition)

        def dump_itp(event):
            if isinstance(event, Interpolant):
                key = (event.round, event.partition)
                path = dump_dir / f"itp_r{event.round}_p{event.partition}_{cores[key]}.dot"
                cores[key] += 1
                path.write_text(event.rbc.to_dot(event.ref))

    record, result = run_one(
        f, args.file, args.partitions, system, args.timeout, args.seed,
        on_event=dump_itp,
    )
    if args.stats:
        print(f"c rounds {result.stats.rounds}")
        print(f"c g_clauses {result.stats.g_clause_count}")
        print(f"c partition_solves {result.stats.partition_solves}")
        print(f"c refusals {result.stats.refusals}")
        print(f"c interpolants {result.stats.interpolants}")
        print(f"c peak_itp_nodes {result.stats.peak_itp_nodes}")
        print(f"c seconds {record.seconds}")
        if result.exhausted is not None:
            print(f"c exhausted {result.exhausted}")
    if result.verdict == "SAT":
        model = result.model
        print("s SATISFIABLE")
        # Every declared variable, 12 to a line; one that occurs in no
        # clause is absent from the model and printed false.
        n = f.num_vars
        for lo in range(1, n + 1, 12):
            hi = min(lo + 12, n + 1)
            lits = " ".join(str(v if model.get(v) else -v) for v in range(lo, hi))
            print("v " + lits + (" 0" if hi > n else ""))
        if not n:
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


def _parse_counts(spec: str) -> list[int]:
    try:
        ks = [int(x) for x in spec.split(",") if x]
    except ValueError:
        ks = []
    if not ks or min(ks) < 1:
        raise SystemExit(f"error: bad partition list {spec!r}, expected counts >= 1 like 1,10,50")
    return ks


def cmd_sweep(args) -> int:
    try:
        f = _load(args.file)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    system = _parse_system(args.itp)
    lo, hi = _parse_range(args.partitions)
    rows = [_csv_row(f, args.file, k, system, args) for k in range(lo, hi + 1)]
    _write_csv(rows, args.csv)
    return 0


def cmd_bench(args) -> int:
    bench_dir = Path(args.dir)
    if not bench_dir.is_dir():
        print(f"error: {args.dir} is not a directory", file=sys.stderr)
        return 1
    ks = _parse_counts(args.partitions)
    systems = [_parse_system(s) for s in args.itp.split(",") if s]
    if not systems:
        raise SystemExit(f"error: bad system list {args.itp!r}, expected systems like mcmillan,hkp")
    files = sorted(bench_dir.glob("*.cnf"))
    rows: list[RunRecord] = []
    best: dict[tuple[str, str], tuple[float, int]] = {}
    for path in files:
        name = path.name
        try:
            f = _load(str(path))
        except (OSError, ValueError):
            for system in systems:
                for k in ks:
                    rows.append(_error_row(name, k, system))
            continue
        for system in systems:
            for k in ks:
                record = _csv_row(f, name, k, system, args)
                rows.append(record)
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
                rows.append(RunRecord(path.name, k, system.value, "BEST", t, "", "", ""))
            else:
                rows.append(RunRecord(path.name, "", system.value, "BEST", "", "", "", ""))
    _write_csv(rows, args.csv)
    return 0


class _Parser(argparse.ArgumentParser):
    """argparse whose usage errors exit 1, as every other refusal does."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    if not args.timeout >= 0:  # NaN fails this comparison too
        print(f"error: --timeout {args.timeout} is not a number of seconds >= 0", file=sys.stderr)
        return 1
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
