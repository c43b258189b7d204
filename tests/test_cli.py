import contextlib
import csv
import io
import os
import random
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lazysat import Formula, parse_dimacs, write_dimacs
from lazysat.cli import CSV_FIELDS, main
from tests.helpers import (
    brute_force,
    dimacs_texts,
    naive_brute_force,
    pigeonhole,
    random_formula,
)

UNSAT_3CLAUSE = "p cnf 2 3\n1 2 0\n-1 0\n-2 0\n"
SRC = Path(__file__).resolve().parent.parent / "src"


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_brute_force_examples():
    assert brute_force(Formula(((1,), (-1,)), 1)) is None
    model = brute_force(Formula(((1, 2),), 2))
    assert model == {1: False, 2: True}  # lexicographically first model
    with pytest.raises(ValueError):
        brute_force(Formula((), 27))


def test_brute_force_matches_naive_enumeration():
    rng = random.Random(201)
    for _ in range(150):
        f = random_formula(rng, rng.randint(1, 11), rng.randint(0, 40))
        assert brute_force(f) == naive_brute_force(f)


def test_brute_force_handles_tautologies_and_empty():
    assert brute_force(Formula(((1, -1),), 1)) == {1: False}
    assert brute_force(Formula((), 0)) == {}


def test_solve_sat_exit_and_output(tmp_path, capsys):
    path = _write(tmp_path, "sat.cnf", "p cnf 2 1\n1 2 0\n")
    code = main(["solve", path, "--partitions", "1"])
    out = capsys.readouterr().out
    assert code == 10
    assert "s SATISFIABLE" in out
    vline = [l for l in out.splitlines() if l.startswith("v ")]
    assert vline and vline[-1].endswith(" 0")
    lits = [int(x) for l in vline for x in l[2:].split()]
    assert lits[-1] == 0
    model = {abs(l): l > 0 for l in lits[:-1]}
    assert model[1] or model[2]


def test_solve_unsat_exit(tmp_path, capsys):
    path = _write(tmp_path, "unsat.cnf", UNSAT_3CLAUSE)
    code = main(["solve", path, "--partitions", "2", "--itp", "mcmillan", "--check-proofs"])
    out = capsys.readouterr().out
    assert code == 20
    assert "s UNSATISFIABLE" in out
    assert "c proof check: ok" in out


def test_solve_timeout_unknown(tmp_path, capsys):
    path = _write(tmp_path, "hard.cnf", write_dimacs(pigeonhole(8, 7)))
    code = main(["solve", path, "--partitions", "1", "--timeout", "0.001"])
    out = capsys.readouterr().out
    assert code == 0
    assert "s UNKNOWN" in out


def test_solve_empty_formula_trivially_sat(tmp_path, capsys):
    path = _write(tmp_path, "empty.cnf", "p cnf 3 0\n")
    code = main(["solve", path])
    out = capsys.readouterr().out
    assert code == 10 and "s SATISFIABLE" in out
    assert "v -1 -2 -3 0" in out


def test_solve_prints_every_declared_variable_on_an_overstated_header(tmp_path, capsys):
    # The model holds variables 1 and 2 only; the v lines still cover 1..30,
    # 12 literals to a line, with the variables in no clause false.
    path = _write(tmp_path, "wide.cnf", "p cnf 30 2\n1 2 0\n-1 0\n")
    code = main(["solve", path, "--partitions", "2"])
    vlines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("v ")]
    assert code == 10
    assert vlines[0] == "v -1 2 -3 -4 -5 -6 -7 -8 -9 -10 -11 -12"
    assert vlines[-1] == "v -25 -26 -27 -28 -29 -30 0"
    lits = [int(x) for l in vlines for x in l[2:].split()]
    assert lits == [-1, 2] + [-v for v in range(3, 31)] + [0]


def test_solve_parse_error_exit(tmp_path, capsys):
    path = _write(tmp_path, "bad.cnf", "p cnf x 1\n")
    assert main(["solve", path]) == 1
    assert "error" in capsys.readouterr().err


def test_solve_reads_a_comment_in_any_encoding(tmp_path, capsys):
    # A Latin-1 comment is not UTF-8; the clauses around it still parse.
    path = tmp_path / "latin1.cnf"
    path.write_bytes(b"c \xdcberpr\xfcfung\r\np cnf 2 2\r\n1 2 0\r\n-1 0\r\n")
    assert main(["solve", str(path)]) == 10
    assert capsys.readouterr().out.splitlines()[:2] == ["s SATISFIABLE", "v -1 2 0"]


def test_solve_bad_partition_count(tmp_path, capsys):
    path = _write(tmp_path, "sat.cnf", "p cnf 2 1\n1 2 0\n")
    assert main(["solve", path, "--partitions", "9"]) == 1


def test_solve_stats_block(tmp_path, capsys):
    path = _write(tmp_path, "unsat.cnf", UNSAT_3CLAUSE)
    main(["solve", path, "--partitions", "2", "--stats"])
    out = capsys.readouterr().out
    assert "c rounds" in out and "c g_clauses" in out


def _read_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == list(CSV_FIELDS)
    return rows[1:]


def test_sweep_rows_and_verdict_stability(tmp_path, capsys):
    path = _write(tmp_path, "unsat.cnf", UNSAT_3CLAUSE)
    code = main(["sweep", path, "--partitions", "2..3", "--itp", "hkp"])
    assert code == 0
    rows = _read_csv(capsys.readouterr().out)
    assert [r[1] for r in rows] == ["2", "3"]
    assert all(r[3] == "UNSAT" for r in rows)
    # stability: the k=1 verdict agrees
    code = main(["sweep", path, "--partitions", "1..1"])
    rows1 = _read_csv(capsys.readouterr().out)
    assert rows1[0][3] == "UNSAT"


def test_sweep_single_point_and_csv_roundtrip(tmp_path):
    path = _write(tmp_path, "unsat.cnf", UNSAT_3CLAUSE)
    out_csv = tmp_path / "out.csv"
    code = main(["sweep", path, "--partitions", "2..2", "--csv", str(out_csv)])
    assert code == 0
    rows = _read_csv(out_csv.read_text())
    assert len(rows) == 1
    reparsed = _read_csv(out_csv.read_text())
    assert reparsed == rows


def test_sweep_bad_range(tmp_path):
    path = _write(tmp_path, "unsat.cnf", UNSAT_3CLAUSE)
    with pytest.raises(SystemExit):
        main(["sweep", path, "--partitions", "3..2"])


@pytest.fixture
def bench_dir(tmp_path):
    d = tmp_path / "bench"
    d.mkdir()
    (d / "a_sat.cnf").write_text("p cnf 2 2\n1 2 0\n-1 2 0\n")
    (d / "b_unsat.cnf").write_text(UNSAT_3CLAUSE)
    (d / "c_broken.cnf").write_text("p cnf nonsense\n")
    return d


def test_bench_cross_product_plus_summary(bench_dir, tmp_path, capsys):
    out_csv = tmp_path / "bench.csv"
    code = main(
        ["bench", str(bench_dir), "--partitions", "1,2", "--itp", "mcmillan", "--csv", str(out_csv)]
    )
    assert code == 0
    rows = _read_csv(out_csv.read_text())
    data = [r for r in rows if r[3] not in ("BEST",)]
    summary = [r for r in rows if r[3] == "BEST"]
    assert len(data) == 6  # 3 files x 2 ks x 1 system
    assert len(summary) == 3
    broken = [r for r in data if r[0] == "c_broken.cnf"]
    assert broken and all(r[3] == "ERROR" for r in broken)
    best_by_file = {r[0]: r for r in summary}
    assert best_by_file["a_sat.cnf"][1] in ("1", "2")
    assert best_by_file["c_broken.cnf"][1] == ""  # nothing solved: empty best k


def test_bench_deterministic_rerun(bench_dir, tmp_path):
    outs = []
    for name in ("one.csv", "two.csv"):
        out_csv = tmp_path / name
        main(
            [
                "bench",
                str(bench_dir),
                "--partitions",
                "1,2",
                "--itp",
                "mcmillan,hkp",
                "--seed",
                "5",
                "--csv",
                str(out_csv),
            ]
        )
        rows = _read_csv(out_csv.read_text())
        # best-k summary rows depend on wall time, so compare them loosely
        stable = [
            (r[0], r[2], r[3]) if r[3] == "BEST" else (r[0], r[1], r[2], r[3], r[5], r[6], r[7])
            for r in rows
        ]
        outs.append(stable)
    assert outs[0] == outs[1]


def test_bench_golden_stable_columns(bench_dir, tmp_path):
    out_csv = tmp_path / "golden.csv"
    main(["bench", str(bench_dir), "--partitions", "1", "--itp", "mcmillan", "--csv", str(out_csv)])
    rows = _read_csv(out_csv.read_text())
    stable = [(r[0], r[1], r[2], r[3], r[5], r[6], r[7]) for r in rows]
    assert stable == [
        ("a_sat.cnf", "1", "mcmillan", "SAT", "1", "0", "0"),
        ("b_unsat.cnf", "1", "mcmillan", "UNSAT", "1", "0", "0"),
        ("c_broken.cnf", "1", "mcmillan", "ERROR", "", "", ""),
        ("a_sat.cnf", "1", "mcmillan", "BEST", "", "", ""),
        ("b_unsat.cnf", "1", "mcmillan", "BEST", "", "", ""),
        ("c_broken.cnf", "", "mcmillan", "BEST", "", "", ""),
    ]


def test_cmd_solve_agrees_with_brute_force_on_random_files(tmp_path, capsys):
    rng = random.Random(207)
    for i in range(25):
        f = random_formula(rng, rng.randint(1, 8), rng.randint(1, 20))
        path = _write(tmp_path, f"r{i}.cnf", write_dimacs(f))
        k = min(rng.choice([1, 2, 3]), len(f.clauses))
        code = main(["solve", path, "--partitions", str(k)])
        capsys.readouterr()
        want = 10 if brute_force(f) is not None else 20
        assert code == want


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(st.one_of(dimacs_texts, st.text(max_size=40), st.binary(max_size=40)))
def test_solve_exit_code_on_arbitrary_file_contents(content):
    # The file either parses, and solving it exits 10 or 20 with the verdict
    # of an oracle, or it exits 1 with an error: line; main never raises.
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "in.cnf"
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["solve", str(path)])
        try:
            f = parse_dimacs(path.read_bytes())
        except ValueError:
            f = None
    if f is None:
        assert code == 1 and err.getvalue().startswith("error: "), (code, err.getvalue())
    else:
        assert code == (10 if brute_force(f) is not None else 20), code
        assert out.getvalue().startswith("s SATISFIABLE" if code == 10 else "s UNSATISFIABLE")


_BAD_ARGS = {
    "bench-partitions-not-numbers": ["bench", "{bench}", "--partitions", "a,b"],
    "bench-partitions-zero": ["bench", "{bench}", "--partitions", "0"],
    "solve-dump-itp-under-a-file": ["solve", "{cnf}", "-k", "2", "--dump-itp", "{cnf}/itp"],
    "solve-timeout-nan": ["solve", "{cnf}", "--timeout", "nan"],
    "sweep-timeout-negative": ["sweep", "{cnf}", "--partitions", "1..2", "--timeout", "-1"],
    "bench-timeout-nan": ["bench", "{bench}", "--partitions", "1", "--timeout", "nan"],
    "bench-itp-empty": ["bench", "{bench}", "--partitions", "1", "--itp", ","],
    "solve-seed-not-a-number": ["solve", "{cnf}", "--seed", "x"],
    "sweep-partitions-missing": ["sweep", "{cnf}"],
}


@pytest.mark.parametrize("case", sorted(_BAD_ARGS))
def test_bad_arguments_give_a_clean_error_and_exit_1(tmp_path, case):
    cnf = _write(tmp_path, "unsat.cnf", UNSAT_3CLAUSE)
    bench = tmp_path / "bench"
    bench.mkdir()
    (bench / "unsat.cnf").write_text(UNSAT_3CLAUSE)
    argv = [a.format(cnf=cnf, bench=bench) for a in _BAD_ARGS[case]]
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-m", "lazysat.cli", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 1, proc.stderr
    assert "error:" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""  # refused before anything was solved


@pytest.mark.parametrize("argv", [["--help"], ["solve", "--help"], ["bench", "--help"]])
def test_help_exits_0(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert "usage:" in capsys.readouterr().out


def test_dump_itp_writes_one_dot_file_per_interpolant(tmp_path, capsys):
    path = _write(tmp_path, "php.cnf", write_dimacs(pigeonhole(4, 3)))
    dump_dir = tmp_path / "itp"
    code = main(["solve", path, "-k", "2", "--stats", "--dump-itp", str(dump_dir)])
    out = capsys.readouterr().out
    assert code == 20
    interpolants = int(re.search(r"^c interpolants (\d+)$", out, re.M).group(1))
    names = sorted(p.name for p in dump_dir.iterdir())
    assert interpolants >= 2 and len(names) == interpolants
    cores = {}  # (round, partition) -> that refusal's core indices
    for name in names:
        match = re.fullmatch(r"itp_r(\d+)_p([01])_(\d+)\.dot", name)
        assert match, name
        cores.setdefault(match.group(1, 2), []).append(int(match.group(3)))
        assert (dump_dir / name).read_text().startswith("digraph")
    # j counts each partition's cores in a round from 0
    assert all(sorted(js) == list(range(len(js))) for js in cores.values())


def test_stats_count_refusals_and_the_interpolants_they_give(tmp_path, capsys):
    path = _write(tmp_path, "php.cnf", write_dimacs(pigeonhole(4, 3)))
    assert main(["solve", path, "-k", "2", "--stats"]) == 20
    out = capsys.readouterr().out
    refusals = int(re.search(r"^c refusals (\d+)$", out, re.M).group(1))
    interpolants = int(re.search(r"^c interpolants (\d+)$", out, re.M).group(1))
    assert 1 <= refusals <= interpolants
    # every refusal is a partition solve; a partition is solved only when
    # the round's shared model fails it, and not every failure refuses
    solves = int(re.search(r"^c partition_solves (\d+)$", out, re.M).group(1))
    assert refusals <= solves
    assert "c exhausted" not in out  # a verdict, not a spent budget


def test_stats_say_which_budget_an_unknown_run_exhausted(tmp_path, capsys, monkeypatch):
    path = _write(tmp_path, "php.cnf", write_dimacs(pigeonhole(8, 7)))
    assert main(["solve", path, "-k", "4", "--timeout", "0", "--stats"]) == 0
    out = capsys.readouterr().out
    assert re.search(r"^c exhausted time$", out, re.M) and "s UNKNOWN" in out
    assert re.search(r"^c partition_solves \d+$", out, re.M)

    import lazysat.cli as cli

    real = cli.reconcile
    monkeypatch.setattr(cli, "reconcile", lambda *a, **kw: real(*a, max_rounds=1, **kw))
    assert main(["solve", path, "-k", "4", "--stats"]) == 0
    out = capsys.readouterr().out
    assert re.search(r"^c exhausted rounds$", out, re.M) and "s UNKNOWN" in out
    assert re.search(r"^c rounds 1$", out, re.M)
    assert re.search(r"^c partition_solves [1-4]$", out, re.M)  # at most each partition once
