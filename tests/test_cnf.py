import itertools
import random
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lazysat import (
    DimacsError,
    Formula,
    eval_formula,
    normalize_clause,
    parse_dimacs,
    write_dimacs,
)
from lazysat import cnf
from lazysat.cnf import is_tautology
from tests.helpers import dimacs_documents, dimacs_texts, random_formula, reference_parse_dimacs


def test_parse_basic():
    f = parse_dimacs("p cnf 2 2\n1 -2 0\n2 0\n")
    assert f == Formula(((1, -2), (2,)), 2)


def test_parse_empty_formula():
    assert parse_dimacs("p cnf 1 0\n") == Formula((), 1)


def test_parse_keeps_tautology_marked():
    f = parse_dimacs("p cnf 2 1\n1 1 -1 0\n")
    assert f.num_vars == 2
    assert len(f.clauses) == 1
    assert f.clauses[0] == (1, -1)  # duplicate dropped, tautology kept in place
    assert is_tautology(f.clauses[0])


def test_parse_accepts_comments_multiline_clauses_and_bytes():
    text = "c hello\np cnf 3 2\n1 2\n3 0 -1 0\n"
    f = parse_dimacs(text.encode())
    assert f.clauses == ((1, 2, 3), (-1,))


def test_parse_num_vars_takes_max_of_header_and_seen():
    assert parse_dimacs("p cnf 1 1\n5 0\n").num_vars == 5
    assert parse_dimacs("p cnf 9 1\n1 0\n").num_vars == 9


def test_parse_percent_terminates():
    f = parse_dimacs("p cnf 2 1\n1 2 0\n%\n0\n")
    assert f.clauses == ((1, 2),)


@pytest.mark.parametrize(
    "text, line",
    [
        ("p dnf 2 2\n1 0\n", 1),
        ("p cnf x 2\n", 1),
        ("p cnf 2 1\n1 a 0\n", 2),
        ("p cnf 2 1\n1 -0 2 0\n", 2),
        ("p cnf 2 1\n1 2\n", 2),
        ("1 0\n", 1),
        ("p cnf 1 0\np cnf 1 0\n", 2),
    ],
)
def test_parse_errors_carry_line_numbers(text, line):
    with pytest.raises(DimacsError) as exc:
        parse_dimacs(text)
    assert exc.value.line_no == line


def test_write_single_clause():
    assert write_dimacs(Formula(((1,),), 1)) == "p cnf 1 1\n1 0\n"


def test_write_empty():
    assert write_dimacs(Formula((), 3)) == "p cnf 3 0\n"


def test_roundtrip_random_formulas():
    rng = random.Random(42)
    for _ in range(100):
        f = random_formula(rng, rng.randint(1, 15), rng.randint(0, 40))
        assert parse_dimacs(write_dimacs(f)) == f


def test_normalize_sorts_and_dedupes():
    assert normalize_clause([3, -2, 3, 1]) == (1, -2, 3)
    assert normalize_clause([2, -2]) == (2, -2)
    lit = -7
    assert -(-lit) == lit  # negation is an involution on int literals


def _normalize_spec(lits):
    return tuple(sorted(set(lits), key=lambda l: (abs(l), l < 0)))


def _is_tautology_spec(clause):
    s = set(clause)
    return any(-l in s for l in s)


def _check_normalize_and_tautology(lits):
    assert normalize_clause(lits) == _normalize_spec(lits)
    assert normalize_clause(iter(lits)) == _normalize_spec(lits)
    assert is_tautology(lits) == _is_tautology_spec(lits)
    assert is_tautology(frozenset(lits)) == _is_tautology_spec(lits)


def test_normalize_and_tautology_match_their_reference_definitions():
    # every literal list of length <= 4 over variables 1..3: 1,555 lists
    lits = (1, -1, 2, -2, 3, -3)
    n = 0
    for size in range(5):
        for clause in itertools.product(lits, repeat=size):
            _check_normalize_and_tautology(list(clause))
            n += 1
    assert n == 1555


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(st.lists(st.integers(1, 12).flatmap(lambda v: st.sampled_from((v, -v))), max_size=10))
def test_normalize_and_tautology_match_their_reference_definitions_on_longer_lists(lits):
    _check_normalize_and_tautology(lits)


def test_eval_examples():
    assert eval_formula(Formula(((1, -2),), 2), {1: False, 2: False}) is True
    assert eval_formula(Formula(((1,), (-1,)), 1), {1: True}) is False
    assert eval_formula(Formula((), 0), {}) is True


def test_eval_tautologies_always_true():
    f = Formula(((1, -1),), 1)
    assert eval_formula(f, {1: True}) and eval_formula(f, {1: False})


def test_eval_unassigned_var_is_contract_violation():
    with pytest.raises(ValueError):
        eval_formula(Formula(((1, 2),), 2), {1: False})


def test_eval_matches_clause_by_clause_exhaustively():
    rng = random.Random(9)
    for _ in range(25):
        n = rng.randint(1, 10)
        f = random_formula(rng, n, rng.randint(1, 3 * n))
        for bits in itertools.product([False, True], repeat=n):
            a = dict(zip(range(1, n + 1), bits))
            expect = all(
                any(a[abs(l)] == (l > 0) for l in c) for c in f.clauses
            )
            assert eval_formula(f, a) == expect


@settings(derandomize=True, deadline=None, database=None, max_examples=400)
@given(dimacs_texts)
def test_parse_dimacs_rejects_cleanly_or_round_trips(text):
    try:
        f = parse_dimacs(text)
    except DimacsError:
        return
    assert all(0 not in c and c == normalize_clause(c) for c in f.clauses)
    assert all(abs(l) <= f.num_vars for c in f.clauses for l in c)
    assert parse_dimacs(write_dimacs(f)) == f


def _outcome(parse, doc):
    try:
        return parse(doc)
    except DimacsError as exc:
        return str(exc), exc.line_no


@settings(derandomize=True, deadline=None, database=None, max_examples=600)
@given(dimacs_documents())
def test_parse_dimacs_matches_the_line_by_line_reference(doc):
    # Same Formula, or the same error message and line, as reading the text
    # line by line; also with chunks cut at every line end, inside clauses
    # that span lines.
    want = _outcome(reference_parse_dimacs, doc)
    chunk = cnf._CHUNK
    try:
        for size in (chunk, 0, 5):
            cnf._CHUNK = size
            assert _outcome(parse_dimacs, doc) == want
    finally:
        cnf._CHUNK = chunk


def test_parse_dimacs_memory_follows_the_text_not_its_largest_index():
    # The sort's ranks are kept for the literals a chunk uses, so a short
    # text with a huge variable index parses in little memory.
    tracemalloc.start()
    try:
        f = parse_dimacs("p cnf 1 2\n1000000 0\n-3 0\n")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert f == Formula(((1000000,), (-3,)), 1000000)
    assert peak < 100_000


def _peak_bytes(parse, text):
    tracemalloc.start()
    try:
        parse(text)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _random_3cnf_bytes(num_vars, num_clauses, newline):
    rng = random.Random(5)
    lines = [b"c \xdcberpr\xfcfung", b"p cnf %d %d" % (num_vars, num_clauses)]
    for _ in range(num_clauses):
        lits = rng.sample(range(1, num_vars + 1), 3)
        lines.append(b" ".join(b"%d" % (l if rng.random() < 0.5 else -l) for l in lits) + b" 0")
    return newline.join(lines) + newline


def test_parse_dimacs_peak_memory_is_at_most_the_line_by_line_parsers():
    # Each chunk's tokens and maps are dropped before the next, so a text of
    # many chunks peaks below holding all of its lines, read as bytes or as
    # str, and also when it is first rejoined with '\n'.
    data = _random_3cnf_bytes(15000, 20000, b"\r\n")
    for text in (data, data.decode("latin-1")):
        assert parse_dimacs(text) == reference_parse_dimacs(text)
        assert _peak_bytes(parse_dimacs, text) <= _peak_bytes(reference_parse_dimacs, text)


def test_parse_dimacs_rejoins_crlf_without_holding_the_decoded_text():
    # Rejoining holds the lines and one copy; were the decoded text kept
    # too, this text would peak about 9 % above its '\n' twin.
    lf = _peak_bytes(parse_dimacs, _random_3cnf_bytes(50, 20000, b"\n"))
    assert _peak_bytes(parse_dimacs, _random_3cnf_bytes(50, 20000, b"\r\n")) <= 1.02 * lf


def test_parse_dimacs_matches_the_reference_on_the_benchmark_texts(monkeypatch):
    # The texts perfbench solves, up to a few hundred lines each.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    import workloads

    for name in ("php-kcurve", "rand3-threshold", "k1-cdcl"):
        for inst in workloads.build(name, 77).instances:
            assert parse_dimacs(inst.text) == reference_parse_dimacs(inst.text)
