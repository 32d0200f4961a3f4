import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nliecoh import jsonio
from nliecoh.cli import build_parser, main
from nliecoh.corpus import algebra, deformation
from nliecoh.deformations import FormalAutomorphism
from nliecoh.errors import ParseError
from nliecoh.linalg import Matrix

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "src" / "nliecoh" / "data"


def run_cli(*args, cwd=ROOT):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return subprocess.run(
        [sys.executable, "-m", "nliecoh", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=env,
    )


# -- rationals ----------------------------------------------------------------


@pytest.mark.parametrize(
    "text,value",
    [("3", Fraction(3)), ("-4/6", Fraction(-2, 3)), ("+5/10", Fraction(1, 2)), ("0", 0)],
)
def test_parse_rational_accepts(text, value):
    assert jsonio.parse_rational(text) == value


@pytest.mark.parametrize("text", ["1/0", "3.5", "a", "1/-2", "", "1 /2"])
def test_parse_rational_rejects(text):
    with pytest.raises(ParseError):
        jsonio.parse_rational(text)


def test_format_rational_roundtrip():
    for q in (Fraction(3), Fraction(-2, 7), Fraction(0), Fraction(10, 4)):
        assert jsonio.parse_rational(jsonio.format_rational(q)) == q


# -- object round-trips ---------------------------------------------------------


def test_algebra_roundtrip():
    for key in ("a1", "b1", "b2", "a3", "b3"):
        alg = algebra(key)
        assert jsonio.algebra_from_json(jsonio.algebra_to_json(alg)) == alg


def test_morphism_roundtrip(phi_a3_b3):
    obj = jsonio.morphism_to_json(phi_a3_b3)
    back = jsonio.morphism_from_json(obj, name=phi_a3_b3.name)
    assert back.matrix == phi_a3_b3.matrix
    assert back.source == phi_a3_b3.source
    assert back.target == phi_a3_b3.target


def test_cochain_roundtrip(alg_a1):
    from nliecoh.corpus import degree1_cochain

    c = degree1_cochain(alg_a1, {(1, 2, 3): {1: 1, 3: -1}, (2, 3, 4): {4: 1}})
    obj = jsonio.cochain_to_json(c)
    back = jsonio.cochain_from_json(obj, alg_a1, 4)
    assert back == c


def test_degree0_cochain_roundtrip(alg_a1):
    from nliecoh.deformations import linear_map_cochain
    from nliecoh.cochains import CochainSpace

    c = linear_map_cochain(
        CochainSpace(alg_a1, 0, 4), Matrix.from_rows([[1, 0, 0, 2]] + [[0] * 4] * 3)
    )
    back = jsonio.cochain_from_json(jsonio.cochain_to_json(c), alg_a1, 4)
    assert back == c


def test_deformation_roundtrip(def_order2):
    obj = jsonio.deformation_to_json(def_order2)
    back = jsonio.deformation_from_json(obj, name=def_order2.name)
    assert back.phi_terms == def_order2.phi_terms
    assert back.src_def.terms == def_order2.src_def.terms
    assert back.tgt_def.terms == def_order2.tgt_def.terms


def test_automorphism_roundtrip():
    psi = FormalAutomorphism(3, 2, (Matrix.identity(3), Matrix.zero(3, 3)))
    back = jsonio.automorphism_from_json(jsonio.automorphism_to_json(psi))
    assert back == psi


def test_triple_roundtrip(def_order1):
    from nliecoh.deformations import infinitesimal

    theta, _ = infinitesimal(def_order1)
    phi = def_order1.base_morphism
    obj = jsonio.triple_to_json(theta)
    back = jsonio.triple_from_json(obj, phi)
    assert back.c1 == theta.c1 and back.c2 == theta.c2 and back.c3 == theta.c3


# -- the report writer ------------------------------------------------------------


class _Dict(dict):
    pass


class _List(list):
    pass


_TEXT = st.text(st.characters() | st.sampled_from('"\\/\x00\x1f\x7f\u00e9\u2028\U0001f600'))
_JSON_LEAVES = (
    _TEXT
    | st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=2**64, max_value=2**200).flatmap(lambda n: st.sampled_from([n, -n]))
    | st.floats()
)
_JSON_TREES = st.recursive(
    _JSON_LEAVES,
    lambda kids: st.lists(kids)
    | st.lists(kids).map(tuple)
    | st.lists(kids).map(_List)
    | st.dictionaries(_TEXT, kids)
    | st.dictionaries(_TEXT | st.integers() | st.booleans() | st.none(), kids).map(_Dict),
    max_leaves=20,
)


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(_JSON_TREES)
def test_dump_json_equals_stdlib_indent_2(obj):
    assert jsonio.dump_json(obj) == json.dumps(obj, indent=2) + "\n"


@pytest.mark.parametrize("path", sorted((ROOT / "tests" / "golden").glob("*.json")), ids=lambda p: p.stem)
def test_dump_json_rewrites_goldens_byte_for_byte(path):
    text = path.read_text()
    assert jsonio.dump_json(json.loads(text)) == text


@pytest.mark.parametrize("obj", [{"a": object()}, [{1.5: {(1,): 2}}], {"s": {1, 2}}])
def test_dump_json_rejects_what_stdlib_rejects(obj):
    with pytest.raises(TypeError):
        json.dumps(obj, indent=2)
    with pytest.raises(TypeError):
        jsonio.dump_json(obj)


# -- parse failures --------------------------------------------------------------


def base_algebra_obj():
    return json.loads(json.dumps(jsonio.algebra_to_json(algebra("a1"))))


def test_rejects_non_increasing_args():
    obj = base_algebra_obj()
    obj["brackets"][0]["args"] = [2, 1, 3]
    with pytest.raises(ParseError):
        jsonio.algebra_from_json(obj)


def test_rejects_duplicate_args():
    obj = base_algebra_obj()
    obj["brackets"].append(dict(obj["brackets"][0]))
    with pytest.raises(ParseError):
        jsonio.algebra_from_json(obj)


def test_rejects_out_of_range_value_key():
    obj = base_algebra_obj()
    obj["brackets"][0]["value"] = {"9": "1"}
    with pytest.raises(ParseError):
        jsonio.algebra_from_json(obj)


def test_rejects_zero_denominator():
    obj = base_algebra_obj()
    obj["brackets"][0]["value"] = {"1": "1/0"}
    with pytest.raises(ParseError):
        jsonio.algebra_from_json(obj)


@pytest.mark.parametrize(
    "mutate,key",
    [
        (lambda obj: obj.update(arity=True), "'arity'"),
        (lambda obj: obj.update(dimension=True), "'dimension'"),
        (lambda obj: obj["brackets"][0].update(args=[True, 2, 3]), "brackets[0].args"),
        (lambda obj: obj["brackets"][0].update(value={"1": True}), "value key '1'"),
    ],
    ids=["arity", "dimension", "index-list", "rational"],
)
def test_cli_rejects_json_booleans(tmp_path, mutate, key):
    obj = base_algebra_obj()
    mutate(obj)
    p = tmp_path / "bool.json"
    p.write_text(json.dumps(obj))
    out = run_cli("validate", str(p))
    assert out.returncode == 2
    assert key in out.stdout


# -- CLI -------------------------------------------------------------------------


@pytest.mark.parametrize("command", ["cohomology", "morphism-cohomology"])
@pytest.mark.parametrize("degree", ["0", "-1"])
def test_cli_rejects_degree_below_one(command, degree, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--morphism", str(DATA / "mor_a1_b1.json"), "--degree", degree])
    assert exc.value.code == 2
    assert "at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("subcommand", ["check", "infinitesimal", "obstruction", "extend", "transform"])
@pytest.mark.parametrize("order", ["-1", "-7"])
def test_cli_rejects_negative_order(subcommand, order, capsys):
    psi = ["--psi-source", str(DATA / "aut_a3_scaling.json"),
           "--psi-target", str(DATA / "aut_b3_identity.json")]
    with pytest.raises(SystemExit) as exc:
        main(["deform", subcommand, str(DATA / "def_a3_b3_order2.json"), "--order", order]
             + (psi if subcommand == "transform" else []))
    assert exc.value.code == 2
    assert "order must be nonnegative" in capsys.readouterr().err


def test_cli_accepts_order_zero():
    assert main(["deform", "check", str(DATA / "def_a3_b3_order2.json"), "--order", "0"]) == 0


def test_cli_validate_exit_codes(tmp_path):
    ok = run_cli("validate", str(DATA / "alg_a1.json"))
    assert ok.returncode == 0

    bad = dict(jsonio.algebra_to_json(algebra("a1")))
    bad["brackets"] = bad["brackets"] + [
        {"args": [1, 2, 4], "value": {"1": "1"}}
    ]
    p = tmp_path / "invalid_algebra.json"
    p.write_text(jsonio.dump_json(bad))
    invalid = run_cli("validate", str(p))
    assert invalid.returncode == 1
    assert "failures" in invalid.stdout

    q = tmp_path / "broken.json"
    q.write_text('{"name": "x", "arity": 3')
    parse_fail = run_cli("validate", str(q))
    assert parse_fail.returncode == 2


def test_cli_cohomology_values():
    out = run_cli(
        "--output",
        "json",
        "cohomology",
        "--algebra",
        str(DATA / "alg_a3.json"),
        "--degree",
        "2",
    )
    assert out.returncode == 0
    report = json.loads(out.stdout)
    assert report["dimensions"]["dim H^2"] == 9

    out = run_cli(
        "--output",
        "json",
        "cohomology",
        "--morphism",
        str(DATA / "mor_a1_b1.json"),
        "--degree",
        "1",
    )
    report = json.loads(out.stdout)
    assert report["dimensions"]["dim H^1"] == 8


def test_cli_reports_are_deterministic():
    args = (
        "--output",
        "json",
        "morphism-cohomology",
        "--morphism",
        str(DATA / "mor_a3_b3.json"),
        "--degree",
        "2",
        "--basis",
    )
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout


def test_cli_deform_subcommands(tmp_path):
    check = run_cli("deform", "check", str(DATA / "def_a3_b3_1.json"))
    assert check.returncode == 0

    inf = run_cli(
        "--output", "json", "deform", "infinitesimal", str(DATA / "def_a3_b3_1.json")
    )
    report = json.loads(inf.stdout)
    assert report["verdict"]["cocycle"] is True

    emit = tmp_path / "transformed.json"
    tr = run_cli(
        "--output",
        "json",
        "deform",
        "transform",
        str(DATA / "def_a3_b3_1.json"),
        "--psi-source",
        str(DATA / "aut_a3_scaling.json"),
        "--psi-target",
        str(DATA / "aut_b3_identity.json"),
        "--emit",
        str(emit),
    )
    assert tr.returncode == 0
    assert emit.exists()
    artifact = json.loads(emit.read_text())
    assert artifact["deformation"]["order"] == 1

    ext = run_cli(
        "--output",
        "json",
        "deform",
        "extend",
        str(DATA / "def_a3_b3_order2.json"),
        "--order",
        "1",
    )
    report = json.loads(ext.stdout)
    assert report["verdict"]["extendable"] is True
    assert report["verdict"]["revalidated"] is True

    obs = run_cli(
        "--output",
        "json",
        "deform",
        "obstruction",
        str(DATA / "def_a3_b3_1.json"),
        "--order",
        "1",
    )
    report = json.loads(obs.stdout)
    assert report["artifacts"]["cocycle"] is True


def test_cli_validate_morphism_and_deformation_files():
    for name in ("mor_a1_b1.json", "mor_a3_b3_i2.json", "def_a3_b3_order2.json",
                 "aut_a3_scaling.json"):
        out = run_cli("validate", str(DATA / name))
        assert out.returncode == 0, name


# -- deformation files -------------------------------------------------------------


def _deformation_obj(name="def_a3_b3_1.json"):
    return json.loads((DATA / name).read_text())


@pytest.mark.parametrize("subcommand", ["check", "obstruction", "extend"])
def test_cli_rejects_deformation_arity_mismatch(tmp_path, subcommand):
    obj = _deformation_obj()
    obj["target"] = {"name": "ab2", "arity": 2, "dimension": 4,
                     "basis": ["f1", "f2", "f3", "f4"], "brackets": []}
    obj["target_terms"] = [{"degree": 1, "target": "self", "entries": []}]
    p = tmp_path / "mixed_arity.json"
    p.write_text(json.dumps(obj))
    out = run_cli("deform", subcommand, str(p))
    assert out.returncode == 2
    assert "arity" in out.stdout


def test_cli_rejects_automorphism_of_wrong_dimension(tmp_path, capsys):
    p = tmp_path / "aut3.json"
    p.write_text(json.dumps({"dimension": 3, "order": 1, "terms": [[["0"] * 3] * 3]}))
    status = main(["deform", "transform", str(DATA / "def_a3_b3_1.json"),
                   "--psi-source", str(p), "--psi-target", str(DATA / "aut_b3_identity.json")])
    assert status == 2
    report = capsys.readouterr().out
    assert str(p) in report and "expected 4" in report


def test_cli_rejects_morphism_arity_mismatch(tmp_path):
    ternary = {"name": "t3", "arity": 3, "dimension": 3, "basis": ["e1", "e2", "e3"],
               "brackets": []}
    binary = dict(ternary, name="b3", arity=2)
    eye = [["1" if i == j else "0" for j in range(3)] for i in range(3)]
    p = tmp_path / "mixed_arity_morphism.json"
    p.write_text(json.dumps({"source": ternary, "target": binary, "matrix": eye}))
    out = run_cli("validate", str(p))
    assert out.returncode == 2
    assert "source arity 3 != target arity 2" in out.stdout


@pytest.mark.parametrize("kind", ["morphism", "deformation"])
def test_cli_rejects_non_string_name(tmp_path, kind):
    if kind == "morphism":
        obj = json.loads((DATA / "mor_a3_b3.json").read_text())
        command = ["morphism-cohomology", "--morphism"]
    else:
        obj = _deformation_obj()
        command = ["deform", "check"]
    for side in ("source", "target"):
        if isinstance(obj[side], str):
            obj[side] = str(DATA / obj[side])
    obj["name"] = ["a"]
    p = tmp_path / f"{kind}.json"
    p.write_text(json.dumps(obj))
    out = run_cli(*command, str(p), *(["--degree", "1"] if kind == "morphism" else []))
    assert out.returncode == 2
    assert "key 'name' has wrong type" in out.stdout


def test_cli_rejects_negative_cochain_degree(tmp_path):
    obj = _deformation_obj()
    obj["source_terms"][0]["degree"] = -1
    p = tmp_path / "negative_degree.json"
    p.write_text(json.dumps(obj))
    out = run_cli("deform", "check", str(p))
    assert out.returncode == 2
    assert "source_terms[0]: cochain degree must be nonnegative" in out.stdout


# Every README deform command (the transform without --emit, whose path
# would enter the report), and obstruction/extend/transform at the full
# order of the order-2 family; then cocycle bases and representatives of
# self, module and morphism-complex cohomology.  The golden file is named
# after the subcommand and the key.
DEFORM_GOLDEN = {
    "check_a3_b3_1": ["deform", "check", "def_a3_b3_1.json"],
    "infinitesimal_a3_b3_1": ["deform", "infinitesimal", "def_a3_b3_1.json"],
    "obstruction_a3_b3_order2_o1": ["deform", "obstruction", "def_a3_b3_order2.json",
                                    "--order", "1"],
    "extend_a3_b3_order2_o1": ["deform", "extend", "def_a3_b3_order2.json", "--order", "1"],
    "transform_a3_b3_1": ["deform", "transform", "def_a3_b3_1.json", "--psi-source",
                          "aut_a3_scaling.json", "--psi-target", "aut_b3_identity.json"],
    "obstruction_a3_b3_order2": ["deform", "obstruction", "def_a3_b3_order2.json"],
    "extend_a3_b3_order2": ["deform", "extend", "def_a3_b3_order2.json"],
    "transform_a3_b3_order2": ["deform", "transform", "def_a3_b3_order2.json", "--psi-source",
                               "aut_a3_scaling.json", "--psi-target", "aut_b3_identity.json"],
    "alg_a3_h2_basis": ["cohomology", "--algebra", "alg_a3.json", "--degree", "2", "--basis"],
    "alg_b3_h3_basis": ["cohomology", "--algebra", "alg_b3.json", "--degree", "3", "--basis"],
    "mor_a1_b2_i1_h2_basis": ["cohomology", "--morphism", "mor_a1_b2_i1.json", "--degree", "2",
                              "--basis"],
    "a3_b3_h2_basis": ["morphism-cohomology", "--morphism", "mor_a3_b3.json", "--degree", "2",
                       "--basis"],
    "a3_b3_h3_basis": ["morphism-cohomology", "--morphism", "mor_a3_b3.json", "--degree", "3",
                       "--basis"],
}


@pytest.mark.parametrize("name", DEFORM_GOLDEN)
def test_deform_reports_match_golden(name, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    args = [f"src/nliecoh/data/{a}" if a.endswith(".json") else a for a in DEFORM_GOLDEN[name]]
    assert main(["--output", "json", *args]) == 0
    golden = ROOT / "tests" / "golden" / f"{args[0]}_{name}.json"
    assert capsys.readouterr().out == golden.read_text(), f"golden drift for {name}"


# One process runs each sequence through the shared parser; every step must
# give the report, the stderr and the exit code it gives on a parser built
# afresh.  Paths are relative to the repository root.
_MOR = "src/nliecoh/data/mor_a3_b3.json"
_DEF2 = "src/nliecoh/data/def_a3_b3_order2.json"
_ALG = "src/nliecoh/data/alg_a3.json"
PARSER_SEQUENCES = {
    "basis_then_plain": [
        (["--output", "json", "morphism-cohomology", "--morphism", _MOR, "--degree", "2",
          "--basis"], 0),
        (["--output", "json", "morphism-cohomology", "--morphism", _MOR, "--degree", "2"], 0),
    ],
    "order_then_full": [
        (["--output", "json", "deform", "obstruction", _DEF2, "--order", "1"], 0),
        (["--output", "json", "deform", "obstruction", _DEF2], 0),
    ],
    "usage_error_then_valid": [
        (["--output", "json", "cohomology", "--degree", "2"], 2),
        (["--output", "json", "cohomology", "--algebra", _ALG, "--degree", "0"], 2),
        (["cohomology", "--algebra", _ALG, "--degree", "2", "--basis"], 0),
    ],
    "text_then_json": [
        (["--output", "text", "cohomology", "--algebra", _ALG, "--degree", "2", "--basis"], 0),
        (["--output", "json", "cohomology", "--algebra", _ALG, "--degree", "2"], 0),
        (["cohomology", "--algebra", _ALG, "--degree", "2"], 0),
    ],
}


def _run_main(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.mark.parametrize("name", PARSER_SEQUENCES)
def test_shared_parser_carries_nothing_between_calls(name, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    steps = PARSER_SEQUENCES[name]
    shared = [_run_main(argv, capsys) for argv, _ in steps]
    assert build_parser() is build_parser()
    fresh = []
    for argv, _ in steps:
        build_parser.cache_clear()
        fresh.append(_run_main(argv, capsys))
    assert shared == fresh
    assert [code for code, _, _ in shared] == [code for _, code in steps]


# -- fuzzing the deformation and automorphism files ------------------------------------


def _set(path, value):
    def mutate(obj):
        *head, last = path
        for step in head:
            obj = obj[step]
        obj[last] = value
    return mutate


def _resize(path, count):
    """Truncate or repeat the list at ``path`` to ``count`` items."""
    def mutate(obj):
        *head, last = path
        for step in head:
            obj = obj[step]
        items = obj[last]
        obj[last] = [items[i % len(items)] for i in range(count)] if items else [[]] * count
    return mutate


_small = st.integers(-1, 6)
_index_list = st.lists(_small, max_size=5)
_entry = st.integers(0, 3)
_rational = st.sampled_from(["1", "-1", "2/3", "1/0"])
_DEF_MUTATIONS = st.one_of(
    st.builds(_set, st.sampled_from([("source", "arity"), ("target", "arity")]), _small),
    st.builds(_set, st.sampled_from([("source", "dimension"), ("target", "dimension")]), _small),
    st.builds(_set, st.just(("order",)), st.integers(-2, 4)),
    st.builds(
        _resize,
        st.sampled_from([("source_terms",), ("target_terms",), ("morphism_terms",)]),
        st.integers(0, 4),
    ),
    st.builds(_set, st.sampled_from([("source", "brackets", 0, "args"),
                                     ("target", "brackets", 0, "args")]), _index_list),
    st.builds(_set, st.sampled_from([("source_terms", 0, "entries", 0, "last"),
                                     ("source_terms", 0, "entries", 0, "blocks")]),
              st.one_of(_index_list, st.lists(_index_list, max_size=2))),
    st.builds(_resize, st.sampled_from([("morphism_terms", 0), ("morphism_terms", 1, 2)]),
              st.integers(0, 6)),
    st.builds(_set, st.tuples(st.just("morphism_terms"), st.integers(0, 1), _entry, _entry),
              _rational),
    st.builds(_set, st.just(("source_terms", 0, "entries", 0, "value")), _rational),
    st.builds(_set, st.sampled_from([("source_terms", 0, "degree"), ("target_terms", 0, "degree")]),
              st.integers(-2, 3)),
)
_AUT_MUTATIONS = st.one_of(
    st.builds(_set, st.just(("dimension",)), _small),
    st.builds(_set, st.just(("order",)), st.integers(-2, 3)),
    st.builds(_resize, st.sampled_from([("terms",), ("terms", 0), ("terms", 0, 1)]),
              st.integers(0, 6)),
    st.builds(_set, st.tuples(st.just("terms"), st.just(0), _entry, _entry), _rational),
)


@settings(max_examples=200, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    source=st.sampled_from(["def_a3_b3_1.json", "def_a3_b3_order2.json"]),
    mutations=st.lists(_DEF_MUTATIONS, max_size=2),
    aut_mutations=st.lists(_AUT_MUTATIONS, max_size=2),
    subcommand=st.sampled_from(["check", "infinitesimal", "obstruction", "extend", "transform"]),
)
def test_fuzz_deform_inputs_never_raise(source, mutations, aut_mutations, subcommand):
    """Mutated deformation and automorphism files end in exit 0, 1 or 2,
    never in an uncaught exception."""
    import contextlib
    import io
    import tempfile

    obj = _deformation_obj(source)
    aut = json.loads((DATA / "aut_a3_scaling.json").read_text())
    for mutate in mutations:
        with contextlib.suppress(IndexError, KeyError, TypeError):
            mutate(obj)
    for mutate in aut_mutations:
        with contextlib.suppress(IndexError, KeyError, TypeError):
            mutate(aut)
    with tempfile.TemporaryDirectory() as tmp:
        def_path, aut_path = Path(tmp) / "def.json", Path(tmp) / "aut.json"
        def_path.write_text(json.dumps(obj))
        aut_path.write_text(json.dumps(aut))
        args = ["deform", subcommand, str(def_path)]
        if subcommand == "transform":
            args += ["--psi-source", str(aut_path),
                     "--psi-target", str(DATA / "aut_b3_identity.json")]
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(args) in (0, 1, 2)


# -- fuzzing the algebra and morphism files ------------------------------------------


def _inside(side, mutate):
    """Apply ``mutate`` to the inline algebra at ``side`` of a morphism."""
    def apply(obj):
        mutate(obj[side])
    return apply


_values = st.dictionaries(st.sampled_from(["1", "2", "4", "5", "x"]), _rational, max_size=2)
_ALG_MUTATIONS = st.one_of(
    st.builds(_set, st.sampled_from([("arity",), ("dimension",)]), _small),
    st.builds(_set, st.tuples(st.just("brackets"), st.integers(0, 2), st.just("args")),
              _index_list),
    st.builds(_set, st.tuples(st.just("brackets"), st.integers(0, 2), st.just("value")), _values),
    st.builds(_resize, st.just(("brackets",)), st.integers(0, 5)),
)
_MOR_MUTATIONS = st.one_of(
    st.builds(_inside, st.sampled_from(["source", "target"]), _ALG_MUTATIONS),
    st.builds(_set, st.just(("name",)), st.sampled_from([["a"], 5, None, "renamed"])),
    st.builds(_resize, st.sampled_from([("matrix",), ("matrix", 0), ("matrix", 2)]),
              st.integers(0, 6)),
    st.builds(_set, st.tuples(st.just("matrix"), _entry, _entry), _rational),
)


@settings(max_examples=200, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    name=st.sampled_from(sorted(p.name for p in DATA.glob("alg_*.json"))
                         + sorted(p.name for p in DATA.glob("mor_*.json"))),
    inline=st.booleans(),
    alg_mutations=st.lists(_ALG_MUTATIONS, max_size=2),
    mor_mutations=st.lists(_MOR_MUTATIONS, max_size=2),
    command=st.sampled_from([None, "1", "2", "morphism-cohomology"]),
)
def test_fuzz_algebra_and_morphism_inputs_never_raise(name, inline, alg_mutations,
                                                      mor_mutations, command):
    """Mutated algebra and morphism files end in exit 0, 1 or 2 under
    ``validate``, ``cohomology --degree 1|2`` and ``morphism-cohomology``,
    never in an uncaught exception.  Morphism files reference their algebras by absolute path,
    or hold them inline, where the algebra mutations reach them."""
    import contextlib
    import io
    import tempfile

    obj = json.loads((DATA / name).read_text())
    is_morphism = name.startswith("mor_")
    if is_morphism:
        for side in ("source", "target"):
            path = DATA / obj[side]
            obj[side] = json.loads(path.read_text()) if inline else str(path)
    for mutate in mor_mutations if is_morphism else alg_mutations:
        with contextlib.suppress(IndexError, KeyError, TypeError):
            mutate(obj)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        path.write_text(json.dumps(obj))
        if command is None:
            args = ["validate", str(path)]
        elif command == "morphism-cohomology":
            args = [command, "--morphism", str(path), "--degree", "2"]
        else:
            flag = "--morphism" if is_morphism else "--algebra"
            args = ["cohomology", flag, str(path), "--degree", command]
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(args) in (0, 1, 2)
