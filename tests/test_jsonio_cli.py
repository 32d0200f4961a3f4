import json
import os
import re
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from oracles import written

from nliecoh import jsonio
from nliecoh.cli import build_parser, main
from nliecoh.algebra import validate_algebra
from nliecoh.cochains import Cochain, CochainSpace
from nliecoh.corpus import algebra, deformation, morphism
from nliecoh.deformations import FormalAutomorphism
from nliecoh.errors import ParseError
from nliecoh.linalg import Matrix
from nliecoh.morphisms import triple, triple_complex

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


LONG = "9" * 5000  # more digits than int() converts by default


@pytest.mark.parametrize(
    "text",
    ["1/0", "3.5", "a", "1/-2", "", "1 /2"]
    + [
        pytest.param(LONG, id="long-integer"),
        pytest.param(f"1/{LONG}", id="long-denominator"),
        pytest.param("\u0661", id="arabic-indic-digit"),
        pytest.param("1\n", id="trailing-newline"),
    ],
)
def test_parse_rational_rejects(text):
    with pytest.raises(ParseError):
        jsonio.parse_rational(text)


def test_format_rational_roundtrip():
    for q in (Fraction(3), Fraction(-2, 7), Fraction(0), Fraction(10, 4)):
        assert jsonio.parse_rational(jsonio.format_rational(q)) == q


@pytest.mark.parametrize(
    "num,den,text",
    [(0, 7, "0"), (6, 3, "2"), (-6, 4, "-3/2"), (5, 1, "5"), (-4, 10, "-2/5"), (3, 9, "1/3")],
)
def test_format_ratio_writes_lowest_terms(num, den, text):
    assert jsonio.format_ratio(num, den) == text
    assert jsonio.format_rational(Fraction(num, den)) == text


def test_format_ratio_rejects_a_number_too_long_to_write():
    with pytest.raises(ParseError, match="too long to write"):
        jsonio.format_ratio(10**5000, 3)
    with pytest.raises(ParseError, match="too long to write"):
        jsonio.format_ratio(1, 10**5000 + 1)


def _count_data_reads(monkeypatch) -> list:
    """Record every read of the ``Matrix.data`` Fraction view from now on."""
    reads: list = []
    view = Matrix.data
    monkeypatch.setattr(Matrix, "data", property(lambda m: reads.append(m) or view.fget(m)))
    return reads


def test_matrix_to_json_writes_from_the_integer_rows(monkeypatch):
    """Rows of ints over a denominator, reduced per entry, zeros written as "0";
    the Fraction view is never read."""
    m = Matrix.from_ints(3, 4, [{0: 2, 2: -3}, {}, {1: 5, 3: 10}], [6, 1, 15])
    third, half = Fraction(1, 3), Fraction(1, 2)
    rows = [[third, 0, -half, 0], [0] * 4, [0, third, 0, 2 * third]]
    reads = _count_data_reads(monkeypatch)
    out = jsonio.matrix_to_json(m)
    assert reads == []
    assert out == [["1/3", "0", "-1/2", "0"], ["0"] * 4, ["0", "1/3", "0", "2/3"]]
    assert out == [[jsonio.format_rational(Fraction(x)) for x in r] for r in rows]


# -- object round-trips ---------------------------------------------------------


def test_algebra_roundtrip():
    for key in ("a1", "b1", "b2", "a3", "b3"):
        alg = algebra(key)
        assert jsonio.algebra_from_json(jsonio.algebra_to_json(alg)) == alg


def test_morphism_roundtrip(phi_a3_b3):
    obj = jsonio.morphism_to_json(phi_a3_b3)
    back = jsonio.morphism_from_json(obj)
    assert back.name == phi_a3_b3.name
    assert back.matrix == phi_a3_b3.matrix
    assert back.source == phi_a3_b3.source
    assert back.target == phi_a3_b3.target


def test_cochain_roundtrip(alg_a1):
    from catalog import degree1_cochain

    c = degree1_cochain(alg_a1, {(1, 2, 3): {1: 1, 3: -1}, (2, 3, 4): {4: 1}})
    obj = written(jsonio.cochain_to_json(c))
    back = jsonio.cochain_from_json(obj, alg_a1, 4, 1)
    assert back == c


def test_degree0_cochain_roundtrip(alg_a1):
    from nliecoh.deformations import linear_map_cochain
    from nliecoh.cochains import CochainSpace

    c = linear_map_cochain(
        CochainSpace(alg_a1, 0, 4), Matrix.from_rows([[1, 0, 0, 2]] + [[0] * 4] * 3)
    )
    back = jsonio.cochain_from_json(written(jsonio.cochain_to_json(c)), alg_a1, 4, 0)
    assert back == c


def test_deformation_roundtrip(def_order2):
    obj = written(jsonio.deformation_to_json(def_order2))
    back = jsonio.deformation_from_json(obj)
    assert back.name == def_order2.name
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
    obj = written(jsonio.triple_to_json(theta))
    back = jsonio.triple_from_json(obj, phi)
    assert back.parts == theta.parts


def _empty_part(degree: int) -> dict:
    return {"degree": degree, "target": "self", "entries": []}


@pytest.mark.parametrize("c3", ["absent", None], ids=["no_c3", "null_c3"])
@pytest.mark.parametrize("degree", [1, 2])
def test_triple_without_c3_above_degree_0_is_a_parse_error(phi_a3_b3, degree, c3):
    obj = {"degree": degree, "c1": _empty_part(degree), "c2": _empty_part(degree)}
    if c3 is None:
        obj["c3"] = None
    with pytest.raises(ParseError, match=r"^obs: .*'c3'"):
        jsonio.triple_from_json(obj, phi_a3_b3, where="obs")


def test_degree_0_triple_with_c3_is_a_parse_error(phi_a3_b3):
    obj = {"degree": 0, "c1": _empty_part(0), "c2": _empty_part(0), "c3": _empty_part(0)}
    with pytest.raises(ParseError, match=r"^obs: a degree-0 triple has no 'c3'$"):
        jsonio.triple_from_json(obj, phi_a3_b3, where="obs")
    del obj["c3"]
    assert jsonio.triple_from_json(obj, phi_a3_b3).is_zero()
    obj["c3"] = None
    back = jsonio.triple_from_json(obj, phi_a3_b3)
    assert back.spaces == triple_complex(phi_a3_b3).zero_triple(0).spaces


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


@pytest.mark.parametrize("key", [" 1", "+1", "1_0", "\u0661", "", LONG])
def test_rejects_malformed_value_key(key):
    """Value keys are plain ASCII digits; int() reads the first four of
    these, "1_0" as 10."""
    obj = base_algebra_obj()
    obj["brackets"][0]["value"] = {key: "1"}
    with pytest.raises(ParseError, match="is not a basis index"):
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


def _assert_one_line_parse_error(out):
    """Exit 2, nothing on stderr, and the error on one line of the report."""
    assert out.returncode == 2
    assert out.stderr == ""
    command, error, status = out.stdout.splitlines()
    assert error.startswith("error: ") and status == "status: 2"
    return error


@pytest.mark.parametrize("command", ["validate", "cohomology"])
@pytest.mark.parametrize("spot", ["dimension", "bracket-value"])
def test_cli_rejects_numbers_too_long_to_convert(tmp_path, command, spot):
    obj = base_algebra_obj()
    if spot == "dimension":
        text = json.dumps(obj).replace('"dimension": 4', f'"dimension": {LONG}')
    else:
        obj["brackets"][0]["value"] = {"1": LONG}
        text = json.dumps(obj)
    p = tmp_path / "long.json"
    p.write_text(text)
    args = [str(p)] if command == "validate" else ["--algebra", str(p), "--degree", "2"]
    _assert_one_line_parse_error(run_cli(command, *args))


def test_cli_rejects_a_report_number_too_long_to_write(tmp_path):
    """Every literal is short enough to read, but the residual of the added
    bracket multiplies 3000-digit constants past what str() converts."""
    obj = base_algebra_obj()
    big = "7" * 3000
    for entry in obj["brackets"]:
        entry["value"] = {k: ("-" if v.startswith("-") else "") + big for k, v in entry["value"].items()}
    obj["brackets"].append({"args": [1, 2, 4], "value": {"1": big, "3": "1"}})
    p = tmp_path / "long_residual.json"
    p.write_text(json.dumps(obj))
    out = run_cli("validate", str(p))
    assert "too long to write" in _assert_one_line_parse_error(out)


@pytest.mark.parametrize("command", ["validate", "cohomology"])
def test_cli_rejects_input_that_is_not_utf8(tmp_path, command):
    """A 0xff byte in the algebra's name: exit 2, not a decoding traceback."""
    p = tmp_path / "latin1.json"
    text = json.dumps(base_algebra_obj()).encode()
    p.write_bytes(text.replace(b'"name": "', b'"name": "\xff', 1))
    args = [str(p)] if command == "validate" else ["--algebra", str(p), "--degree", "1"]
    assert "not UTF-8" in _assert_one_line_parse_error(run_cli(command, *args))


def test_cli_rejects_json_nested_too_deep(tmp_path):
    p = tmp_path / "deep.json"
    p.write_text('{"brackets": ' + "[" * 100000 + "]" * 100000 + "}")
    assert "invalid JSON" in _assert_one_line_parse_error(run_cli("validate", str(p)))


@pytest.mark.parametrize(
    "kind,mutate,spot",
    [
        ("algebra", lambda obj: obj.update(brackets=[5]), "brackets[0]"),
        ("algebra", lambda obj: obj.update(brackets=["args"]), "brackets[0]"),
        ("deformation", lambda obj: obj.update(source_terms=[7]), "source_terms[0]"),
        ("deformation", lambda obj: obj["source_terms"][0].update(entries=[3]), "entries[0]"),
    ],
    ids=["bracket-number", "bracket-string", "term-number", "entry-number"],
)
def test_cli_rejects_entries_that_are_no_object(tmp_path, kind, mutate, spot):
    obj = base_algebra_obj() if kind == "algebra" else written(
        jsonio.deformation_to_json(deformation("a3_b3_1")))
    mutate(obj)
    p = tmp_path / f"{kind}.json"
    p.write_text(json.dumps(obj))
    error = _assert_one_line_parse_error(run_cli("validate", str(p)))
    assert f"{spot}: expected an object" in error


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
    assert emit.read_text() == json.dumps(json.loads(tr.stdout)["artifacts"], indent=2) + "\n"

    ext = run_cli(
        "--output",
        "json",
        "deform",
        "extend",
        str(DATA / "def_a3_b3_order2.json"),
        "--order",
        "1",
        "--emit",
        str(tmp_path / "extended.json"),
    )
    report = json.loads(ext.stdout)
    assert report["verdict"]["extendable"] is True
    assert report["verdict"]["revalidated"] is True
    emitted = (tmp_path / "extended.json").read_text()
    assert emitted == json.dumps(report["artifacts"], indent=2) + "\n"

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


def test_cli_reports_the_invalid_algebra_of_a_morphism(tmp_path, capsys):
    """A morphism file whose target breaks the fundamental identity gets the
    target's failures as residuals, from ``validate`` and ``cohomology``."""
    bad = dict(jsonio.algebra_to_json(algebra("b1")))
    bad["brackets"] = bad["brackets"] + [{"args": [2, 3, 4], "value": {"1": "1/2"}}]
    obj = jsonio.morphism_to_json(morphism("a1_b1"))
    obj["target"] = bad
    p = tmp_path / "bad_target.json"
    p.write_text(jsonio.dump_json(obj))
    failures = validate_algebra(jsonio.algebra_from_json(bad, str(p))).failures
    want = [
        {"x_tuple": [i + 1 for i in f.key[0]], "y_tuple": [i + 1 for i in f.key[1]],
         "residual": [jsonio.format_rational(c) for c in f.residual]}
        for f in failures
    ]
    assert want
    for argv in (["validate", str(p)], ["cohomology", "--morphism", str(p), "--degree", "1"]):
        code, out, _ = _run_main(["--output", "json", *argv], capsys)
        assert code == 1
        assert json.loads(out)["residuals"] == want


def test_cli_validate_morphism_and_deformation_files():
    for name in ("mor_a1_b1.json", "mor_a3_b3_i2.json", "def_a3_b3_order2.json",
                 "aut_a3_scaling.json"):
        out = run_cli("validate", str(DATA / name))
        assert out.returncode == 0, name


def _readme_sh_lines() -> list[str]:
    """Every ``nliecoh`` line of the README's ``sh`` blocks, continuations joined."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```sh\n(.*?)^```", text, flags=re.M | re.S)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    return [line for line in lines if line.startswith("nliecoh ")]


def test_readme_commands_run_as_written(tmp_path, monkeypatch, capsys):
    """Each command the README documents exits 0 run as written from the
    repository root, with ``--emit`` pointed into a temporary folder."""
    monkeypatch.chdir(ROOT)
    commands = _readme_sh_lines()
    assert len(commands) >= 9  # the nine the README lists
    failed = []
    for line in commands:
        argv = shlex.split(line)[1:]
        if "--emit" in argv:
            i = argv.index("--emit") + 1
            argv[i] = str(tmp_path / argv[i])
        code, _, err = _run_main(argv, capsys)
        if code != 0:
            failed.append((line, code, err))
    assert not failed


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


@pytest.mark.parametrize("obj,message", [
    ({"dimension": -1, "order": 0, "terms": []}, "dimension must be at least 1, got -1"),
    ({"dimension": 0, "order": 0, "terms": []}, "dimension must be at least 1, got 0"),
    ({"dimension": 2, "order": -1, "terms": []}, "order must be nonnegative, got -1"),
], ids=["dimension-negative", "dimension-zero", "order-negative"])
def test_cli_rejects_automorphism_of_no_dimension_or_negative_order(tmp_path, capsys, obj, message):
    p = tmp_path / "aut.json"
    p.write_text(json.dumps(obj))
    code, out, _ = _run_main(["--output", "json", "validate", str(p)], capsys)
    assert code == 2
    assert json.loads(out)["error"] == f"{p}: {message}"


def _repeated_key_text(case: str) -> str:
    """A valid file's text with one key repeated; ``json.loads`` alone keeps
    the last value, which is the valid one."""
    if case == "algebra-name":
        return '{"name": "first", ' + (DATA / "alg_a1.json").read_text().lstrip()[1:]
    if case == "bracket-value":  # the keys "1" and "01" name one basis index
        return json.dumps({"name": "x", "arity": 2, "dimension": 2, "basis": ["a", "b"],
                           "brackets": [{"args": [1, 2], "value": {"1": "2", "01": "3"}}]})
    obj = json.loads((DATA / "mor_a1_b1.json").read_text())
    obj.update(source=str(DATA / obj["source"]), target=str(DATA / obj["target"]))
    zero = [["0"] * 4] * 4
    return '{"matrix": ' + json.dumps(zero) + ", " + json.dumps(obj)[1:]


@pytest.mark.parametrize("case,message", [
    ("algebra-name", "key 'name' repeated in one object"),
    ("bracket-value", "brackets[0]: value key '01' names basis index 1 twice"),
    ("morphism-matrix", "key 'matrix' repeated in one object"),
], ids=["algebra-name", "bracket-value", "morphism-matrix"])
def test_cli_rejects_repeated_keys(tmp_path, capsys, case, message):
    p = tmp_path / f"{case}.json"
    p.write_text(_repeated_key_text(case))
    code, out, _ = _run_main(["--output", "json", "validate", str(p)], capsys)
    assert code == 2
    assert json.loads(out)["error"].startswith(str(p)) and message in out


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


@pytest.mark.parametrize("source", ["--order 0", "file of order 0"])
def test_cli_infinitesimal_at_order_zero_is_a_usage_error(tmp_path, capsys, source):
    """An order-0 family has no first-order triple: exit 2, not the
    mathematical-failure status 1, whether truncated to 0 or loaded at 0."""
    if source == "--order 0":
        argv = [str(DATA / "def_a3_b3_1.json"), "--order", "0"]
    else:
        obj = _deformation_obj()
        obj.update(order=0, source_terms=[], target_terms=[], morphism_terms=obj["morphism_terms"][:1])
        p = tmp_path / "order0.json"
        p.write_text(json.dumps(obj))
        argv = [str(p)]
    assert main(["--output", "json", "deform", "infinitesimal", *argv]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == 2 and set(report) == {"command", "error", "status"}
    assert "infinitesimal needs order at least 1, got 0" in report["error"]
    assert main(["deform", "check", *argv]) == 0  # the family itself is valid
    capsys.readouterr()


def _edited_entries(edit, index, message):
    """A case of ``test_cli_usage_errors_exit_2``: ``deform check`` on
    def_a3_b3_1.json with the entries of its first source term edited."""

    def case(tmp_path):
        obj = _deformation_obj()
        edit(obj["source_terms"][0]["entries"])
        p = tmp_path / "edited.json"
        p.write_text(json.dumps(obj))
        return ["deform", "check", str(p)], f"{p}.source_terms[0].entries[{index}]: {message}"

    return case


def _data(name):
    return str(DATA / name)


@pytest.mark.parametrize("case", [
    lambda _: (["deform", "check", _data("def_a3_b3_1.json"), "--order", "2"],
               "--order 2 exceeds file order 1"),
    lambda _: (["cohomology", "--morphism", _data("mor_a3_b3.json"), "--algebra", _data("alg_a1.json"),
                "--degree", "1"], "--algebra disagrees with the morphism's source"),
    lambda _: (["deform", "transform", _data("def_a3_b3_1.json"), "--psi-source", _data("aut_a3_scaling.json")],
               "transform needs --psi-source and --psi-target"),
    lambda _: (["cohomology", "--algebra", _data("alg_a1.json"), "--degree", "x"], "invalid int value: 'x'"),
    _edited_entries(lambda e: e[0].update(blocks=[[1, 2]]), 0, "expected 0 blocks"),
    _edited_entries(lambda e: e[0].update(last=[2, 3]), 0, "last must list 3 indices"),
    _edited_entries(lambda e: e[0].update(target_index=0), 0, "target_index outside 1..4"),
    _edited_entries(lambda e: e.append(dict(e[0])), 1, "duplicate coefficient"),
], ids=["order-above-file", "algebra-not-source", "no-psi-target", "degree-not-int",
        "block-count", "last-length", "target-index-0", "duplicate-coefficient"])
def test_cli_usage_errors_exit_2(tmp_path, capsys, case):
    """Usage and parse errors exit 2 with a message that names the option,
    or the file and the entry, and raise nothing out of ``main``."""
    argv, message = case(tmp_path)
    code, out, err = _run_main(argv, capsys)
    assert code == 2
    assert message in out + err


def test_cli_rejects_negative_cochain_degree(tmp_path):
    obj = _deformation_obj()
    obj["source_terms"][0]["degree"] = -1
    p = tmp_path / "negative_degree.json"
    p.write_text(json.dumps(obj))
    out = run_cli("deform", "check", str(p))
    assert out.returncode == 2
    assert "source_terms[0]: cochain degree must be nonnegative" in out.stdout


def _term(degree):
    """A bracket term of the given degree on a3 with one entry."""
    entry = {"blocks": [[1, 2]] * (degree - 1), "last": [1, 2, 3], "target_index": 1, "value": "1"}
    return {"degree": degree, "target": "self", "entries": [entry]}


def test_cochain_degree_is_checked_before_its_space_is_built(monkeypatch):
    """A degree-7 bracket term, whose space on a 4-dim ternary algebra has
    6^6 * 4 keys, is rejected before any space of its degree is built."""
    from nliecoh.cochains import CochainSpace

    degrees, check = [], CochainSpace.__post_init__

    def record(space):
        degrees.append(space.degree)
        check(space)

    monkeypatch.setattr(CochainSpace, "__post_init__", record)
    obj = _deformation_obj()
    obj["target_terms"][0] = _term(7)
    with pytest.raises(ParseError) as exc:
        jsonio.deformation_from_json(obj)
    assert degrees == [1]
    assert "target_terms[0]: expected cochain degree 1, got 7" in str(exc.value)


def test_cli_rejects_a_cochain_degree_too_large_to_enumerate(tmp_path):
    """A 2 KB file asking for a degree-40 term (6^39 * 4 keys) exits 2 at
    once.  The address space of the child is capped, so a reader that
    enumerated the space first would fail fast instead of exhausting memory."""
    import resource

    obj = _deformation_obj()
    obj["source_terms"][0] = _term(40)
    p = tmp_path / "degree40.json"
    p.write_text(json.dumps(obj))

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    out = subprocess.run(
        [sys.executable, "-m", "nliecoh", "deform", "check", str(p)], capture_output=True,
        text=True, cwd=ROOT, env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        preexec_fn=cap, timeout=60,
    )
    error = _assert_one_line_parse_error(out)
    assert "source_terms[0]: expected cochain degree 1, got 40" in error


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


# The failure branches: invalid inputs under tests/golden/inputs (an algebra
# that breaks the fundamental identity, a map that breaks the morphism
# equation between valid algebras, a map into an invalid algebra, and a
# deformation that fails at order 1), plus one usage error.  The golden file
# is the key, with the extension of the output format; paths are relative
# to the repository root, since they and their digests enter the reports.
_BAD = "tests/golden/inputs/"
_DATA = "src/nliecoh/data/"
FAILURE_GOLDEN = {
    "validate_alg_a1_bad.json": (["validate", _BAD + "alg_a1_bad.json"], 1),
    "validate_mor_a1_b1_bad.json": (["validate", _BAD + "mor_a1_b1_bad.json"], 1),
    "validate_def_a3_b3_1_bad.json": (["validate", _BAD + "def_a3_b3_1_bad.json"], 1),
    "cohomology_alg_a1_bad_h2.json": (
        ["cohomology", "--algebra", _BAD + "alg_a1_bad.json", "--degree", "2"], 1),
    "cohomology_mor_a1_b1_bad_h2.json": (
        ["cohomology", "--algebra", _DATA + "alg_a1.json", "--module", _DATA + "alg_b1.json",
         "--morphism", _BAD + "mor_a1_b1_bad.json", "--degree", "2", "--basis"], 1),
    "cohomology_mor_a1_b1_bad_h2.txt": (
        ["cohomology", "--morphism", _BAD + "mor_a1_b1_bad.json", "--degree", "2"], 1),
    "morphism-cohomology_a1_b1_bad_h2.json": (
        ["morphism-cohomology", "--morphism", _BAD + "mor_a1_b1_bad.json", "--degree", "2",
         "--basis"], 1),
    "morphism-cohomology_a1_b1_bad_target_h1.json": (
        ["morphism-cohomology", "--morphism", _BAD + "mor_a1_b1_bad_target.json",
         "--degree", "1"], 1),
    "deform_check_a3_b3_1_bad.json": (["deform", "check", _BAD + "def_a3_b3_1_bad.json"], 1),
    "deform_infinitesimal_a3_b3_1_bad.json": (
        ["deform", "infinitesimal", _BAD + "def_a3_b3_1_bad.json"], 1),
    "cohomology_module_without_morphism.json": (
        ["cohomology", "--algebra", _DATA + "alg_a1.json", "--module", _DATA + "alg_b1.json",
         "--degree", "1"], 2),
}


@pytest.mark.parametrize("name", FAILURE_GOLDEN)
def test_failure_reports_match_golden(name, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    argv, status = FAILURE_GOLDEN[name]
    output = "json" if name.endswith(".json") else "text"
    assert main(["--output", output, *argv]) == status
    golden = ROOT / "tests" / "golden" / name
    assert capsys.readouterr().out == golden.read_text(), f"golden drift for {name}"


# A basis report on the dense rational conjugate of a1, recorded before the
# rows were written from integers: the five corpus *_basis goldens hold
# integers only, so they would not see a wrong reduction of p/q.
_DENSE_A1 = "tests/golden/inputs/alg_a1_dense.json"


def test_fractional_basis_report_matches_golden(monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    argv = ["--output", "json", "cohomology", "--algebra", _DENSE_A1, "--degree", "2", "--basis"]
    assert main(argv) == 0
    golden = (ROOT / "tests" / "golden" / "cohomology_alg_a1_dense_h2_basis.json").read_text()
    assert capsys.readouterr().out == golden
    values = [e["value"] for rows in json.loads(golden)["bases"].values()
              for c in rows for e in c["entries"]]
    assert any("/" in v for v in values)


def _readme_commands(tmp_path):
    """Every README command over every bundled file: validate on each file,
    self and module cohomology at r = 1, 2 and the morphism complex at
    r = 1..3 with bases, module H^1 without, and the five ``deform``
    commands, ``--emit`` writing into ``tmp_path``."""
    names = sorted(p.name for p in DATA.glob("*.json"))
    cmds = [["validate", _DATA + name] for name in names]
    for name in names:
        for r in ("1", "2", "3"):
            if name.startswith("alg_") and r != "3":
                cmds.append(["cohomology", "--algebra", _DATA + name, "--degree", r, "--basis"])
            if name.startswith("mor_") and r != "3":
                cmds.append(["cohomology", "--morphism", _DATA + name, "--degree", r, "--basis"])
            if name.startswith("mor_"):
                cmds.append(["morphism-cohomology", "--morphism", _DATA + name, "--degree", r, "--basis"])
        if name.startswith("mor_"):
            cmds.append(["cohomology", "--morphism", _DATA + name, "--degree", "1"])
    cmds += [
        ["deform", "check", _DATA + "def_a3_b3_1.json"],
        ["deform", "infinitesimal", _DATA + "def_a3_b3_1.json"],
        ["deform", "obstruction", _DATA + "def_a3_b3_order2.json", "--order", "1"],
        ["deform", "extend", _DATA + "def_a3_b3_order2.json", "--order", "1"],
        ["deform", "transform", _DATA + "def_a3_b3_1.json", "--psi-source",
         _DATA + "aut_a3_scaling.json", "--psi-target", _DATA + "aut_b3_identity.json",
         "--emit", str(tmp_path / "out.json")],
    ]
    return cmds


def test_basis_reports_never_read_the_fraction_view(monkeypatch, capsys, tmp_path):
    """Every README command on the corpus, and a basis report with fractional
    values, runs on integer rows from defect to report: no ``Matrix.data``."""
    monkeypatch.chdir(ROOT)
    reads = _count_data_reads(monkeypatch)
    cmds = _readme_commands(tmp_path)
    assert len(cmds) == 59
    for args in [*cmds, ["cohomology", "--algebra", _DENSE_A1, "--degree", "2", "--basis"]]:
        assert main(["--output", "json", *args]) == 0, args
        out = capsys.readouterr().out
        assert '"bases"' in out or "--basis" not in args
    assert json.loads((tmp_path / "out.json").read_text())["deformation"]["order"] == 1
    assert reads == []


def _basis_subjects():
    """(id, report, writer of one int row, reference space) for the self,
    module and morphism complexes of the corpus and of two dense rational
    cases, at r = 1..3."""
    from catalog import conjugated_morphism
    from nliecoh.cochains import CochainSpace, module_cohomology, self_cohomology
    from nliecoh.corpus import MORPHISM_FILES, all_algebras
    from nliecoh.morphisms import morphism_cohomology, triple_complex

    algs = dict(all_algebras(), a1_dense=jsonio.load_algebra(ROOT / _DENSE_A1))
    phis = {key: morphism(key) for key in MORPHISM_FILES}
    phis["a1_b2_i1~"] = conjugated_morphism()
    for r in (1, 2, 3):
        for key, alg in algs.items():
            space = CochainSpace(alg, r - 1, alg.dim)
            yield f"self-{key}-{r}", self_cohomology(alg, r), space
        for key, phi in phis.items():
            space = CochainSpace(phi.source, r - 1, phi.target.dim)
            yield f"module-{key}-{r}", module_cohomology(phi, r), space
            tc = triple_complex(phi)
            yield f"triple-{key}-{r}", morphism_cohomology(phi, r), (tc, r - 1)


def _entries_of(obj):
    parts = [obj] if "entries" in obj else [obj[c] for c in ("c1", "c2", "c3") if obj[c]]
    return [e for part in parts for e in part["entries"]]


# -- cochains written as text ------------------------------------------------------
# ``jsonio.CochainText`` writes a cochain or a triple straight from its
# integer row.  Its bytes must be those of ``json.dumps(indent=2)`` of the
# dicts of the old route (tests/oracles.py) wherever the value sits: as the
# whole document, under a key as in an ``--emit`` file, and in the lists of
# a report's bases.  The values of one group share one ``heads`` dict, as
# the rows of one basis do, and each group is written at all three depths.


def _depths(values):
    """Reports holding ``values`` at three depths; ``values`` is a list of
    CochainText values or of the matching oracle dicts."""
    return [
        values[0],
        {"triple": values[-1], "cocycle": True},
        {"command": ["x"], "status": 0,
         "bases": {"cocycle_basis": values, "representatives": values[::-2]}},
    ]


def _assert_text_matches(texts, dicts, name=""):
    for report, expected in zip(_depths(texts), _depths(dicts)):
        assert jsonio.dump_json(report) == json.dumps(expected, indent=2) + "\n", name


def _random_cochain(space, rng, fill):
    """A cochain with about ``fill`` of its coordinates nonzero: signed
    values, some of them fractions."""
    flat = {j: Fraction(rng.choice([-1, 1]) * rng.randint(1, 40), rng.choice([1, 1, 2, 3, 12]))
            for j in range(space.dim) if rng.random() < fill}
    return Cochain.from_flat(space, flat)


@pytest.mark.parametrize("degree", [0, 1, 2, 3])
def test_cochain_text_matches_stdlib_dumps_of_the_oracle_dicts(degree):
    """Cochains of degree 0-3, an empty one among them, with negative and
    fractional values, written at three depths."""
    import random

    from oracles import oracle_cochain_json

    rng = random.Random(degree)
    algs = {"a3": algebra("a3"), "b3": algebra("b3"), "a1_dense": jsonio.load_algebra(ROOT / _DENSE_A1)}
    for name, alg in algs.items():
        space = CochainSpace(alg, degree, alg.dim)
        cochains = [_random_cochain(space, rng, f) for f in (0.0, 0.05, 1.0, 0.3)]
        assert cochains[0].is_zero() and len(cochains[2].row) == space.dim
        heads: dict = {}
        texts = [jsonio.CochainText((space,), c.row, c.den, heads) for c in cochains]
        _assert_text_matches(texts, [oracle_cochain_json(c) for c in cochains], name)
        assert '"entries": []' in jsonio.dump_json(texts[0])


@pytest.mark.parametrize("degree", [0, 1, 2, 3])
def test_triple_text_matches_stdlib_dumps_of_the_oracle_dicts(degree):
    """Triples of degree 0-3 (c3 None at degree 0), one of them with every
    coordinate of every part nonzero, so the parts share key positions, and
    one with only c2, so entries of one part must not enter another."""
    import random

    from catalog import conjugated_morphism
    from oracles import oracle_triple_json

    rng = random.Random(100 + degree)
    for name, phi in {"a3_b3": morphism("a3_b3"), "a1_b2_i1~": conjugated_morphism()}.items():
        spaces = triple_complex(phi).spaces(degree)
        triples = []
        for fills in [(0.0, 0.0, 0.0), (1.0, 1.0, 1.0), (0.0, 0.4, 0.0), (0.2, 0.1, 0.5)]:
            parts = [_random_cochain(s, rng, f) if s else None for s, f in zip(spaces, fills)]
            triples.append(triple(*parts))
        assert (triples[1].parts[2] is None) == (degree == 0)
        heads: dict = {}
        texts = [jsonio.CochainText(t.spaces, t.row, t.den, heads) for t in triples]
        _assert_text_matches(texts, [oracle_triple_json(t) for t in triples], name)


def _fraction_route(space, v):
    """The writer's value for the dense Fraction row ``v``, through the Cochain
    on one space or three built from it; ``space`` as in ``_basis_subjects``."""
    if isinstance(space, tuple):
        return jsonio.triple_to_json(space[0].unvectorize(space[1], v))
    return jsonio.cochain_to_json(Cochain.from_flat(space, v))


def test_basis_text_matches_stdlib_dumps_of_the_oracle_dicts():
    """Every cocycle and representative row of the corpus and dense
    subjects at r = 1..3, the two bases of a subject written with one shared
    ``heads`` as in a report."""
    from oracles import oracle_basis_json

    for name, rep, space in _basis_subjects():
        spaces = space[0].spaces(space[1]) if isinstance(space, tuple) else (space,)
        heads: dict = {}
        for m in (rep.cocycles, rep.classes):
            expected = oracle_basis_json(m, space)
            if expected:
                texts = [jsonio.CochainText(spaces, r, d, heads) for r, d in zip(m.ints, m.dens)]
                _assert_text_matches(texts, expected, name)


def test_basis_rows_match_the_fraction_route():
    """Each basis row, wrapped as it is by ``from_row`` and as Fractions
    through a Cochain on one space or three, is written as the oracle's dict."""
    from oracles import dense_rows, oracle_basis_json

    seen = set()
    for name, rep, space in _basis_subjects():
        for m in (rep.cocycles, rep.classes):
            expected = oracle_basis_json(m, space)
            rows = zip(m.ints, m.dens)
            if isinstance(space, tuple):
                tc, deg = space
                got = [jsonio.triple_to_json(Cochain.from_row(tc.spaces(deg), r, d)) for r, d in rows]
            else:
                got = [jsonio.cochain_to_json(Cochain.from_row((space,), r, d)) for r, d in rows]
            assert len(got) == len(expected), name
            if not expected:
                continue
            _assert_text_matches(got, expected, name)
            _assert_text_matches([_fraction_route(space, v) for v in dense_rows(m)], expected, name)
            seen.update(e["value"] for row in expected for e in _entries_of(row))
    assert any("/" in v for v in seen)


def test_a_cochain_text_too_long_to_write_is_a_one_line_error(monkeypatch, capsys):
    """A basis is written as text only while the report is rendered; a
    number too long to write there still gives the status-2 error report."""
    def too_long(num, den):
        raise ParseError("a number is too long to write (99999 bits)")

    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(jsonio, "format_ratio", too_long)
    argv = ["--output", "json", "cohomology", "--algebra", _DATA + "alg_a3.json", "--degree", "2",
            "--basis"]
    assert main(argv) == 2
    report = json.loads(capsys.readouterr().out)
    assert report == {"command": argv, "error": "a number is too long to write (99999 bits)",
                      "status": 2}


def test_cli_reports_build_no_cochain_or_triple_dicts(monkeypatch, capsys):
    """Every deform and ``--basis`` golden report, and the dense ``a1`` basis
    golden, come out with the JSON writer made to raise on a dict holding a
    ``target_index``: no cochain, triple or deformation term is built as a
    dict on its way to the report."""
    write = jsonio._write_json

    def no_entry_dicts(o, nl, put):
        if isinstance(o, dict) and "target_index" in o:
            raise AssertionError("a CLI report built a cochain entry dict")
        write(o, nl, put)

    monkeypatch.setattr(jsonio, "_write_json", no_entry_dicts)
    monkeypatch.chdir(ROOT)
    runs = [([_DATA + a if a.endswith(".json") else a for a in args], name)
            for name, args in DEFORM_GOLDEN.items()]
    runs.append((["cohomology", "--algebra", _DENSE_A1, "--degree", "2", "--basis"],
                 "alg_a1_dense_h2_basis"))
    assert len(runs) == 14
    for args, name in runs:
        assert main(["--output", "json", *args]) == 0, name
        golden = ROOT / "tests" / "golden" / f"{args[0]}_{name}.json"
        assert capsys.readouterr().out == golden.read_text(), name


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
