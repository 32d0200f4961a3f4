"""Signed bracket tables: reads at any ordering against the sort-per-read
oracle, memoization without eager expansion, and the empty table."""

import random
from itertools import product
from pathlib import Path

import pytest
from catalog import conjugated_cases, identity_pair_deformation
from oracles import oracle_basis

from nliecoh import jsonio, tables
from nliecoh.algebra import NLieAlgebra
from nliecoh.cli import main
from nliecoh.corpus import ALGEBRA_FILES, DEFORMATION_FILES, algebra, deformation
from nliecoh.deformations import DeformedAlgebra, nambu_residual
from nliecoh.tables import SignedTable, _bracket, int_table

ROOT = Path(__file__).resolve().parents[1]


def _fresh_tables():
    """New tables of the corpus algebras and their dense conjugates, none
    read yet, and every order of the corpus deformations, with the algebra.
    Order 0 of a deformation is its base algebra's own table, shared and so
    possibly read already, when no term has a larger denominator."""
    algs = [*(algebra(k) for k in ALGEBRA_FILES), *conjugated_cases(per_base=2)]
    out = [pytest.param(a, int_table(a.structure, a.den), id=a.name) for a in algs]
    dms = [deformation(k) for k in DEFORMATION_FILES] + [identity_pair_deformation()]
    for dm in dms:
        for side, da in (("src", dm.src_def), ("tgt", dm.tgt_def)):
            fresh = DeformedAlgebra(da.base, da.order, da.terms).tables
            out += [
                pytest.param(da.base, t, id=f"{dm.name}-{side}-{s}") for s, t in enumerate(fresh)
            ]
    return out


def _snapshot(table):
    return {k: dict(v) for k, v in table.items()}


@pytest.mark.parametrize("alg,table", _fresh_tables())
def test_every_ordering_reads_the_signed_oracle_value(alg, table):
    stored = _snapshot(table)
    shared = dict(table)
    for _ in range(2):  # the first read stores the ordering, the second hits
        for idxs in product(range(alg.dim), repeat=alg.arity):
            assert table[idxs] == oracle_basis(stored, idxs), idxs
    # reads leave every increasing key's value as it was, the same object
    assert all(dict.__getitem__(table, k) is v for k, v in shared.items())
    assert _snapshot({k: table[k] for k in stored}) == stored


def _random_table(rng, n, d):
    keys = [tuple(sorted(rng.sample(range(d), n))) for _ in range(rng.randint(1, 6))]
    values = ([rng.randint(-3, 3) if rng.random() < 0.5 else 0 for _ in range(d)] for _ in keys)
    return int_table(zip(set(keys), values), 1)


@pytest.mark.parametrize("seed", range(20))
def test_random_orderings_with_repeats_and_absent_keys(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 6)
    d = n + rng.randint(0, 3)
    table = _random_table(rng, n, d)
    stored = _snapshot(table)
    for _ in range(300):
        idxs = tuple(rng.randrange(d) for _ in range(n))  # repeats and absent keys
        if rng.random() < 0.3 and stored:  # an ordering of a stored key
            idxs = tuple(rng.sample(rng.choice(list(stored)), n))
        assert table[idxs] == oracle_basis(stored, idxs), idxs
    assert {k: table[k] for k in stored} == stored


def test_a_hit_never_sorts(monkeypatch):
    calls = []
    sort_sign = tables.sort_sign

    def counted(idxs):
        calls.append(idxs)
        return sort_sign(idxs)

    monkeypatch.setattr(tables, "sort_sign", counted)
    table = int_table([((0, 1, 2), (1, 0, 0, 5))], 1)
    assert table[(0, 1, 2)] == {0: 1, 3: 5} and not calls
    assert table[(2, 1, 0)] == {0: -1, 3: -5} and calls == [(2, 1, 0)]
    assert table[(2, 1, 0)] is table[(2, 1, 0)] and calls == [(2, 1, 0)]
    assert table[(1, 1, 0)] == {} and table[(0, 1, 3)] == {} and len(calls) == 3
    assert table[(1, 1, 0)] == {} and table[(0, 1, 3)] == {} and len(calls) == 3


def test_empty_table_stays_empty_after_reads():
    empty_tables = [SignedTable(), int_table((), 1)]
    trivial = DeformedAlgebra.trivial(algebra("a1"), 2)
    empty_tables += trivial.tables[1:]
    abelian = NLieAlgebra.abelian("ab", 3, 4)
    assert abelian.report.is_valid
    empty_tables.append(abelian.ints)
    nambu_residual(trivial, 2)
    for table in empty_tables:
        for idxs in [(0, 1, 2), (2, 1, 0), (1, 1, 0)]:
            assert table[idxs] == {}
        assert _bracket(table, [{0: 1}, {1: 1}, {2: 1}]) == {}
        assert not table and len(table) == 0


@pytest.mark.parametrize("seed", range(12))
def test_scaled_reads_f_times_every_ordering_of_a_read_table(seed):
    """A table already read at non-increasing and repeated-index orderings,
    scaled by f, reads f times the signed value at every ordering of every
    key, and leaves the table it was scaled from as it was; f = 1 gives the
    table itself."""
    rng = random.Random(seed)
    n = rng.randint(2, 4)
    d = n + rng.randint(0, 2)
    table = _random_table(rng, n, d)
    stored = _snapshot(table)
    orderings = list(product(range(d), repeat=n))
    for idxs in rng.sample(orderings, len(orderings) // 2) + [(0,) * n, tuple(range(n))[::-1]]:
        table[idxs]
    read = _snapshot(table)
    assert any(len(set(k)) < n for k in read) and any(k != tuple(sorted(k)) for k in read)
    assert tables.scaled(table, 1) is table
    f = rng.choice([-3, 2, 5, 12])
    out = tables.scaled(table, f)
    for idxs in orderings:
        assert out[idxs] == {t: f * x for t, x in oracle_basis(stored, idxs).items()}, idxs
    assert _snapshot(table) == read


def test_scaled_empty_table_stays_falsy():
    for empty in (SignedTable(), int_table((), 1), NLieAlgebra.abelian("ab", 3, 4).ints):
        assert tables.scaled(empty, 1) is empty
        out = tables.scaled(empty, 7)
        assert out[(2, 1, 0)] == {} and out[(1, 1, 0)] == {} and not out


# An arity-10 algebra on 11 basis vectors, [e1, ..., e10] = e11, valid since
# e11 is central: storing all 10! orderings of its one bracket would take
# about 3.6 million entries.  The reports were recorded before the tables
# were signed.
_ARITY10 = "tests/golden/inputs/alg_arity10.json"


@pytest.mark.parametrize(
    "argv,golden",
    [
        (["validate", _ARITY10], "validate_alg_arity10.json"),
        (["cohomology", "--algebra", _ARITY10, "--degree", "2"], "cohomology_alg_arity10_h2.json"),
    ],
)
def test_high_arity_table_grows_with_reads_only(argv, golden, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    built = []
    parse = jsonio.algebra_from_json

    def keep(*args):
        built.append(parse(*args))
        return built[-1]

    monkeypatch.setattr(jsonio, "algebra_from_json", keep)
    assert main(["--output", "json", *argv]) == 0
    assert capsys.readouterr().out == (ROOT / "tests" / "golden" / golden).read_text()
    assert built and all(0 < len(alg.ints) < 1000 for alg in built)
