import re
from fractions import Fraction
from itertools import combinations, permutations
from pathlib import Path

import pytest

from catalog import full_catalog, planted_defects
from oracles import (
    FundamentalObject,
    ad_action,
    coeffs,
    fundamental_bracket,
    oracle_nambu_residual,
    unit,
    wedge_decompose,
)

from nliecoh.algebra import Failure, NLieAlgebra, ValidationReport, validate_algebra
from nliecoh.deformations import DeformedAlgebra
from nliecoh.errors import DimensionMismatch, IndexOutOfRange
from nliecoh.tables import sort_sign


def test_public_surface():
    """Every exported name resolves; the raw-argument layer, now a test
    reference in ``tests/oracles.py``, is not exported, and neither are the
    wrappers that restated ``TripleComplex``.  The dense ``Fraction`` views
    of integer rows left the package for helpers in ``tests/oracles.py``
    (``dense_row``, ``mul_vector``, ``as_flat``, ``coeffs``, ``vectorize``,
    ``cocycle_basis``, ``representatives``).  Every validator reports
    ``algebra.Failure``; an algebra and a morphism expose their check as
    ``report``, as a deformation does, and the morphism complex its spaces
    as ``spaces(m)``: no module reads another's ``_report`` or ``_spaces``
    or tells failures apart by attribute, and ``ValidationReport`` is the
    one class with an ``is_valid``.  Every coboundary above degree 0 comes
    from the one Leibniz recursion: the per-key ``_Tables.delta_rows`` is
    gone.  ``Cochain`` is the one vector class: a morphism-complex triple
    is a cochain on three spaces, built by ``triple``, and
    ``CochainTriple`` is gone.  Names only tests called are gone: a cochain
    from flat coordinates is ``oracles.flat_cochain``, the image of a vector
    ``oracles.mul_vector``, and no command writes a morphism or automorphism
    file or reads a triple file.  ``compose_series`` and
    ``first_order_equivalence`` stay for the deformation-equivalence work,
    ``NLieAlgebra.abelian``, ``rank``, ``cochain_to_json`` and
    ``triple_to_json`` because the benchmark names them."""
    import inspect

    import nliecoh
    from nliecoh import algebra, cli, cochains, corpus, deformations, jsonio, linalg, morphisms

    assert all(hasattr(nliecoh, name) for name in nliecoh.__all__)
    removed = {"FundamentalObject", "wedge_decompose", "coboundary_apply_self", "coboundary_apply_module",
               "triple_coboundary", "cohomologous_check"}
    assert not removed & set(nliecoh.__all__)
    for module in (nliecoh, algebra, cochains, morphisms):
        assert not any(hasattr(module, name) for name in removed), module.__name__
    assert not hasattr(cochains, "_morphism_matrix")
    assert not hasattr(cochains.Cochain, "sub")
    assert "triple" in nliecoh.__all__ and "CochainTriple" not in nliecoh.__all__
    assert not any(hasattr(module, "CochainTriple") for module in (nliecoh, morphisms, deformations, jsonio))
    assert all(hasattr(cochains.Cochain, name) for name in ("spaces", "degree", "parts", "space"))
    assert not hasattr(cochains.Cochain, "add")
    gone = {
        linalg.Matrix: ("row", "mul_vector"),
        cochains.Cochain: ("as_flat", "coeffs", "from_flat"),
        cochains.CohomologyReport: ("cocycle_basis", "representatives"),
        morphisms.TripleComplex: ("vectorize", "_spaces", "space_source", "space_target", "space_module",
                                  "unvectorize", "zero_triple", "dim"),
        cochains: ("flat_items",),
        linalg: ("is_zero_vector",),
        jsonio: ("_int_row", "morphism_to_json", "automorphism_to_json", "triple_from_json"),
        corpus: ("all_algebras",),
        algebra: ("NambuFailure",),
        morphisms: ("MorphismFailure",),
        deformations: ("DeformationFailure",),
        cli: ("_key_json",),
        NLieAlgebra: ("_report",),
        morphisms.Morphism: ("_report", "apply"),
        cochains._Tables: ("delta_rows",),
    }
    for owner, names in gone.items():
        assert not any(hasattr(owner, name) for name in names), owner
    assert hasattr(linalg.Matrix, "data")  # the tracer reads it
    kept = {
        deformations: ("compose_series", "first_order_equivalence"),
        NLieAlgebra: ("abelian",),
        linalg: ("rank",),
        jsonio: ("cochain_to_json", "triple_to_json"),
    }
    for owner, names in kept.items():
        assert all(hasattr(owner, name) for name in names), owner
    assert all(hasattr(c, "report") for c in (NLieAlgebra, morphisms.Morphism, deformations.DeformedMorphism))
    assert callable(morphisms.TripleComplex.spaces)
    pattern = re.compile(r"NambuFailure|MorphismFailure|DeformationFailure|space_source|space_target"
                         r"|space_module|\._report\b|\._spaces\b|hasattr")
    for path in sorted(Path(nliecoh.__file__).parent.glob("*.py")):
        assert not pattern.search(path.read_text()), path.name
    with_is_valid = {
        cls for module in vars(nliecoh).values() if inspect.ismodule(module)
        for cls in vars(module).values() if inspect.isclass(cls) and "is_valid" in vars(cls)
    }
    assert with_is_valid == {ValidationReport}


@pytest.mark.parametrize("name", ["cochains", "morphisms", "deformations", "cli"])
def test_fraction_stays_at_the_outside_boundary(name):
    """Cochains, triples, deformation data and reports are integer rows: these
    modules import no ``fractions``.  Fractions are made only where input is
    parsed or coerced and output formatted (``jsonio``, ``linalg``), in
    ``NLieAlgebra``'s structure, and in the failure vectors of
    ``tables.dense``."""
    import ast
    import importlib

    module = importlib.import_module(f"nliecoh.{name}")
    tree = ast.parse(Path(module.__file__).read_text())
    imported = {a.name for node in ast.walk(tree) if isinstance(node, ast.Import) for a in node.names}
    imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert "fractions" not in imported
    assert "Fraction" not in vars(module)


def test_readme_entry_points_are_exported():
    """Each name in the README's "Key entry points" paragraph resolves in
    ``nliecoh``, and its first part is in ``__all__``."""
    import nliecoh

    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    paragraph = text.split("Key entry points:", 1)[1].split("\n\n", 1)[0]
    names = re.findall(r"`([A-Za-z_][\w.]*)(?:\([^`]*\))?`", paragraph)
    assert len(names) >= 20
    for name in names:
        head, *rest = name.split(".")
        assert head in nliecoh.__all__, name
        obj = nliecoh
        for part in (head, *rest):
            obj = getattr(obj, part)


def test_sort_sign():
    assert sort_sign((0, 1, 2)) == (1, (0, 1, 2))
    assert sort_sign((1, 0, 2)) == (-1, (0, 1, 2))
    assert sort_sign((2, 0, 1)) == (1, (0, 1, 2))
    assert sort_sign((1, 1, 2))[0] == 0


def test_wedge_decompose_is_alternating():
    u, v = (1, 2, 0), (0, 1, 1)
    d = wedge_decompose([u, v])
    swapped = wedge_decompose([v, u])
    assert swapped == {k: -c for k, c in d.items()}
    assert wedge_decompose([u, u]) == {}


def test_abelian_validates_for_all_shapes():
    for n in (2, 3, 4):
        for d in (1, 2, 3, 4):
            assert validate_algebra(NLieAlgebra.abelian("ab", n, d)).is_valid


def test_corpus_algebra_brackets(alg_a1):
    e = lambda i: unit(4, i)
    assert alg_a1.bracket(e(0), e(1), e(2)) == e(1)
    assert alg_a1.bracket(e(1), e(0), e(2)) == tuple(-x for x in e(1))
    assert alg_a1.bracket(e(0), e(1), e(1)) == (0,) * 4


def test_bracket_full_skewness(alg_a1):
    e = lambda i: unit(4, i)
    base = alg_a1.bracket(e(0), e(1), e(2))
    for perm in permutations((0, 1, 2)):
        sign, _ = sort_sign(perm)
        got = alg_a1.bracket(*(e(i) for i in perm))
        assert got == tuple(sign * x for x in base)


def test_validate_rejects_planted_defect(alg_a1):
    brackets = {key: val for key, val in alg_a1.structure}
    brackets[(0, 1, 3)] = unit(4, 0)
    bad = NLieAlgebra.from_brackets("bad", 3, 4, brackets)
    report = validate_algebra(bad)
    assert not report.is_valid
    assert all(len(f.residual) == 4 for f in report.failures)


def _oracle_report(alg):
    """Order-0 fundamental-identity defect of the oracle, as a report."""
    res = oracle_nambu_residual(DeformedAlgebra.trivial(alg, 0), 0)
    failures, values = [], coeffs(res)
    for key in res.space.domain_keys:
        residual = tuple(values.get((key, t), Fraction(0)) for t in range(alg.dim))
        if any(residual):
            failures.append(Failure("algebra", 0, key, residual))
    return ValidationReport(alg.name, "algebra", tuple(failures))


def test_validate_algebra_is_the_order0_defect():
    """Entry for entry: the failing key pairs, their order and every residual
    Fraction, on the catalog and on 40 copies with a planted rational value."""
    catalog = full_catalog()
    planted = planted_defects(catalog, 40, seed=7)
    for alg in catalog + planted:
        report = validate_algebra(alg)
        assert report == _oracle_report(alg), alg.name
        assert all(type(x) is Fraction for f in report.failures for x in f.residual)
    assert all(validate_algebra(alg).is_valid for alg in catalog)
    invalid = [validate_algebra(alg) for alg in planted if not alg.report.is_valid]
    assert len(invalid) >= 15
    assert any(x.denominator > 1 for r in invalid for f in r.failures for x in f.residual)


def test_structure_key_validation():
    with pytest.raises(IndexOutOfRange):
        NLieAlgebra.from_brackets("x", 3, 4, {(0, 1, 7): unit(4, 0)})
    with pytest.raises(IndexOutOfRange):
        NLieAlgebra("x", 3, 4, ("a", "b", "c", "d"), (((2, 1, 3), unit(4, 0)),))


def test_ad_action_examples(alg_a1):
    x = FundamentalObject.from_basis(4, (0, 2))
    assert ad_action(alg_a1, x, unit(4, 3)) == unit(4, 3)
    degenerate = FundamentalObject.from_basis(4, (1, 1))
    assert ad_action(alg_a1, degenerate, unit(4, 0)) == (0,) * 4
    dead = FundamentalObject.from_basis(4, (1, 3))
    for j in range(4):
        assert ad_action(alg_a1, dead, unit(4, j)) == (0,) * 4


def test_fundamental_bracket_term_expansion(alg_a1):
    x = FundamentalObject.from_basis(4, (0, 2))
    y = FundamentalObject.from_basis(4, (1, 3))
    got = fundamental_bracket(alg_a1, x, y)
    # term-by-term: ad(x)e2 ^ e4 + e2 ^ ad(x)e4
    expected: dict = {}
    for slot in range(2):
        acted = ad_action(alg_a1, x, y.components[slot])
        vecs = list(y.components)
        vecs[slot] = acted
        for key, c in wedge_decompose(vecs).items():
            expected[key] = expected.get(key, Fraction(0)) + c
    expected = {k: c for k, c in expected.items() if c}
    assert got.decomposition() == expected
    # acting by a block with trivial action kills everything
    dead = FundamentalObject.from_basis(4, (1, 3))
    assert fundamental_bracket(alg_a1, dead, x).is_zero()


def test_operator_identity_on_wedge_basis(corpus_algebras):
    """ad of a block bracket equals the commutator of the block actions."""
    for alg in corpus_algebras.values():
        wedges = [
            FundamentalObject.from_basis(alg.dim, w)
            for w in combinations(range(alg.dim), alg.arity - 1)
        ]
        for x in wedges:
            for y in wedges:
                xy = fundamental_bracket(alg, x, y)
                for j in range(alg.dim):
                    z = unit(alg.dim, j)
                    lhs = ad_action(alg, xy, z)
                    rhs1 = ad_action(alg, x, ad_action(alg, y, z))
                    rhs2 = ad_action(alg, y, ad_action(alg, x, z))
                    assert lhs == tuple(a - b for a, b in zip(rhs1, rhs2))


def test_left_leibniz_identity(corpus_algebras):
    """[x,[y,z]] = [[x,y],z] + [y,[x,z]] for the block bracket."""
    for alg in corpus_algebras.values():
        wedges = [
            FundamentalObject.from_basis(alg.dim, w)
            for w in combinations(range(alg.dim), alg.arity - 1)
        ]
        for x in wedges:
            for y in wedges:
                for z in wedges:
                    lhs = fundamental_bracket(alg, x, fundamental_bracket(alg, y, z))
                    r1 = fundamental_bracket(alg, fundamental_bracket(alg, x, y), z)
                    r2 = fundamental_bracket(alg, y, fundamental_bracket(alg, x, z))
                    total = {
                        k: r1.decomposition().get(k, Fraction(0))
                        + r2.decomposition().get(k, Fraction(0))
                        for k in set(r1.decomposition()) | set(r2.decomposition())
                    }
                    total = {k: c for k, c in total.items() if c}
                    assert lhs.decomposition() == total


def right_leibniz_holds(alg) -> bool:
    """Whether [[x,y],z] = [[x,z],y] + [x,[y,z]] holds on basis blocks."""
    wedges = [
        FundamentalObject.from_basis(alg.dim, w)
        for w in combinations(range(alg.dim), alg.arity - 1)
    ]
    for x in wedges:
        for y in wedges:
            for z in wedges:
                lhs = fundamental_bracket(alg, fundamental_bracket(alg, x, y), z)
                r1 = fundamental_bracket(alg, fundamental_bracket(alg, x, z), y)
                r2 = fundamental_bracket(alg, x, fundamental_bracket(alg, y, z))
                total = {
                    k: r1.decomposition().get(k, Fraction(0))
                    + r2.decomposition().get(k, Fraction(0))
                    for k in set(r1.decomposition()) | set(r2.decomposition())
                }
                if lhs.decomposition() != {k: c for k, c in total.items() if c}:
                    return False
    return True


def test_report_right_leibniz_status(corpus_algebras, capsys):
    """The alternative bracket identity is reported per algebra, not assumed."""
    with capsys.disabled():
        print()
        for name, alg in corpus_algebras.items():
            print(f"  right-Leibniz form on {name}: {right_leibniz_holds(alg)}")


def test_fundamental_object_combination_roundtrip():
    fo = FundamentalObject(((1, 2, 0, 0), (0, 0, 3, 1)))
    combo = FundamentalObject.from_combination(4, 2, fo.decomposition())
    assert combo == fo
    assert combo.components is None


def test_dimension_checks():
    alg = NLieAlgebra.abelian("ab", 3, 4)
    with pytest.raises(DimensionMismatch):
        alg.bracket((1, 0, 0), (0, 1, 0), (0, 0, 1))
    with pytest.raises(DimensionMismatch):
        alg.bracket((1, 0, 0, 0), (0, 1, 0, 0))
