"""JSON formats for algebras, morphisms, cochains, deformations, and
automorphism series, with strict parsing and deterministic serialization.

Rationals travel as strings "p/q" or "p" with an optional leading sign;
a zero denominator is rejected.  All index lists are 1-based and strictly
increasing.  Serialization emits keys in a fixed order and sorted entries,
so identical objects always produce identical bytes.
"""

from __future__ import annotations

import hashlib
import json
import re
from fractions import Fraction
from pathlib import Path
from typing import Optional, Union

from .algebra import NLieAlgebra
from .cochains import Cochain, CochainSpace
from .deformations import DeformedAlgebra, DeformedMorphism, FormalAutomorphism
from .errors import ArityMismatch, DimensionMismatch, ParseError
from .linalg import Matrix
from .morphisms import CochainTriple, Morphism

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


def parse_rational(text, where: str = "") -> Fraction:
    """Parse "p", "-p", or "p/q" with q > 0; ``where`` prefixes errors."""
    prefix = f"{where}: " if where else ""
    if isinstance(text, int) and not isinstance(text, bool):
        return Fraction(text)
    if not isinstance(text, str) or not _RATIONAL_RE.match(text):
        raise ParseError(f"{prefix}malformed rational literal {text!r}")
    if "/" in text:
        num, den = text.split("/")
        if int(den) == 0:
            raise ParseError(f"{prefix}zero denominator in {text!r}")
        return Fraction(int(num), int(den))
    return Fraction(int(text))


def format_rational(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def _expect(obj, key, kind, where):
    if key not in obj:
        raise ParseError(f"{where}: missing key {key!r}")
    value = obj[key]
    if kind is not None and (
        not isinstance(value, kind) or (kind is int and isinstance(value, bool))
    ):
        raise ParseError(f"{where}: key {key!r} has wrong type")
    return value


def _name(obj, name: str, where: str) -> str:
    """``name`` if given, else the file's optional "name" key."""
    value = name or obj.get("name", "")
    if not isinstance(value, str):
        raise ParseError(f"{where}: key 'name' has wrong type")
    return value


def _check_increasing(idxs, dim, where) -> tuple[int, ...]:
    if not isinstance(idxs, list) or not all(
        isinstance(i, int) and not isinstance(i, bool) for i in idxs
    ):
        raise ParseError(f"{where}: index list must hold integers")
    if any(not 1 <= i <= dim for i in idxs):
        raise ParseError(f"{where}: index outside 1..{dim} in {idxs}")
    if any(a >= b for a, b in zip(idxs, idxs[1:])):
        raise ParseError(f"{where}: indices {idxs} not strictly increasing")
    return tuple(i - 1 for i in idxs)


# -- algebras ---------------------------------------------------------------


def algebra_from_json(obj: dict, where: str = "algebra") -> NLieAlgebra:
    name = _expect(obj, "name", str, where)
    arity = _expect(obj, "arity", int, where)
    dim = _expect(obj, "dimension", int, where)
    basis = _expect(obj, "basis", list, where)
    if len(basis) != dim or not all(isinstance(b, str) for b in basis):
        raise ParseError(f"{where}: basis must list {dim} names")
    brackets = {}
    for i, entry in enumerate(_expect(obj, "brackets", list, where)):
        spot = f"{where}.brackets[{i}]"
        args = _check_increasing(_expect(entry, "args", list, spot), dim, f"{spot}.args")
        if len(args) != arity:
            raise ParseError(f"{spot}: expected {arity} arguments")
        if args in brackets:
            raise ParseError(f"{spot}: duplicate bracket for {entry['args']}")
        value = [Fraction(0)] * dim
        for k, raw in _expect(entry, "value", dict, spot).items():
            try:
                pos = int(k)
            except ValueError:
                raise ParseError(f"{spot}: value key {k!r} is not a basis index")
            if not 1 <= pos <= dim:
                raise ParseError(f"{spot}: value index {pos} outside 1..{dim}")
            value[pos - 1] = parse_rational(raw, f"{spot}: value key {k!r}")
        brackets[args] = tuple(value)
    try:
        return NLieAlgebra.from_brackets(name, arity, dim, brackets, tuple(basis))
    except Exception as exc:  # structural invariants surface as parse errors
        raise ParseError(f"{where}: {exc}") from exc


def algebra_to_json(alg: NLieAlgebra) -> dict:
    brackets = []
    for key, value in alg.structure:
        entry = {
            "args": [i + 1 for i in key],
            "value": {
                str(t + 1): format_rational(c) for t, c in enumerate(value) if c
            },
        }
        brackets.append(entry)
    return {
        "name": alg.name,
        "arity": alg.arity,
        "dimension": alg.dim,
        "basis": list(alg.basis_names),
        "brackets": brackets,
    }


def _resolve_algebra(ref, base_dir: Optional[Path], where: str) -> NLieAlgebra:
    if isinstance(ref, str):
        path = Path(ref)
        if not path.is_absolute():
            if base_dir is None:
                raise ParseError(f"{where}: relative reference {ref!r} needs a base directory")
            path = base_dir / path
        return load_algebra(path)
    if isinstance(ref, dict):
        return algebra_from_json(ref, where)
    raise ParseError(f"{where}: expected a file reference or inline algebra")


# -- matrices ---------------------------------------------------------------


def matrix_from_json(rows, shape: tuple[int, int], where: str) -> Matrix:
    if not isinstance(rows, list) or len(rows) != shape[0]:
        raise ParseError(f"{where}: expected {shape[0]} matrix rows")
    data = []
    for r, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != shape[1]:
            raise ParseError(f"{where}: row {r} must hold {shape[1]} entries")
        data.append([parse_rational(x, f"{where}: row {r}") for x in row])
    return Matrix(shape[0], shape[1], data)


def matrix_to_json(m: Matrix) -> list[list[str]]:
    return [[format_rational(x) for x in m.row(i)] for i in range(m.rows)]


# -- morphisms ---------------------------------------------------------------


def morphism_from_json(
    obj: dict, base_dir: Optional[Path] = None, name: str = "", where: str = "morphism"
) -> Morphism:
    source = _resolve_algebra(_expect(obj, "source", None, where), base_dir, where)
    target = _resolve_algebra(_expect(obj, "target", None, where), base_dir, where)
    matrix = matrix_from_json(
        _expect(obj, "matrix", list, where), (target.dim, source.dim), where
    )
    try:
        return Morphism(source, target, matrix, _name(obj, name, where))
    except (ArityMismatch, DimensionMismatch) as exc:
        raise ParseError(f"{where}: {exc}") from exc


def morphism_to_json(phi: Morphism) -> dict:
    out = {}
    if phi.name:
        out["name"] = phi.name
    out["source"] = algebra_to_json(phi.source)
    out["target"] = algebra_to_json(phi.target)
    out["matrix"] = matrix_to_json(phi.matrix)
    return out


# -- cochains ----------------------------------------------------------------


def cochain_from_json(
    obj: dict, source: NLieAlgebra, target_dim: int, where: str = "cochain"
) -> Cochain:
    degree = _expect(obj, "degree", int, where)
    if degree < 0:
        raise ParseError(f"{where}: cochain degree must be nonnegative")
    space = CochainSpace(source, degree, target_dim)
    n = source.arity
    coeffs: dict = {}
    for i, entry in enumerate(_expect(obj, "entries", list, where)):
        spot = f"{where}.entries[{i}]"
        blocks_raw = _expect(entry, "blocks", list, spot)
        last_raw = _expect(entry, "last", list, spot)
        blocks = [
            _check_increasing(b, source.dim, spot) for b in blocks_raw
        ]
        if degree == 0:
            if blocks or len(last_raw) != 1:
                raise ParseError(f"{spot}: degree-0 entries use blocks=[] and one last index")
            key: object = _check_increasing(last_raw, source.dim, spot)[0]
        else:
            if len(blocks) != degree - 1:
                raise ParseError(f"{spot}: expected {degree - 1} blocks")
            if any(len(b) != n - 1 for b in blocks):
                raise ParseError(f"{spot}: blocks must list {n - 1} indices")
            last = _check_increasing(last_raw, source.dim, spot)
            if len(last) != n:
                raise ParseError(f"{spot}: last must list {n} indices")
            key = tuple(blocks) + (last,)
        t = _expect(entry, "target_index", int, spot)
        if not 1 <= t <= target_dim:
            raise ParseError(f"{spot}: target_index outside 1..{target_dim}")
        value = parse_rational(_expect(entry, "value", None, spot), f"{spot}: key 'value'")
        pos = (key, t - 1)
        if pos in coeffs:
            raise ParseError(f"{spot}: duplicate coefficient")
        coeffs[pos] = value
    try:
        return Cochain(space, coeffs)
    except Exception as exc:
        raise ParseError(f"{where}: {exc}") from exc


def cochain_to_json(c: Cochain, target_label: str = "self") -> dict:
    entries = []
    for (key, t), value in sorted(
        c.coeffs.items(), key=lambda kv: (_key_sort(kv[0][0]), kv[0][1])
    ):
        if c.space.degree == 0:
            blocks: list = []
            last = [key + 1]
        else:
            blocks = [[i + 1 for i in b] for b in key[:-1]]
            last = [i + 1 for i in key[-1]]
        entries.append(
            {
                "blocks": blocks,
                "last": last,
                "target_index": t + 1,
                "value": format_rational(value),
            }
        )
    return {"degree": c.space.degree, "target": target_label, "entries": entries}


def _key_sort(key):
    return (key,) if isinstance(key, int) else key


# -- deformations -------------------------------------------------------------


def deformation_from_json(
    obj: dict, base_dir: Optional[Path] = None, name: str = "", where: str = "deformation"
) -> DeformedMorphism:
    source = _resolve_algebra(_expect(obj, "source", None, where), base_dir, where)
    target = _resolve_algebra(_expect(obj, "target", None, where), base_dir, where)
    order = _expect(obj, "order", int, where)
    src_terms = [
        cochain_from_json(t, source, source.dim, f"{where}.source_terms[{i}]")
        for i, t in enumerate(_expect(obj, "source_terms", list, where))
    ]
    tgt_terms = [
        cochain_from_json(t, target, target.dim, f"{where}.target_terms[{i}]")
        for i, t in enumerate(_expect(obj, "target_terms", list, where))
    ]
    phi_rows = _expect(obj, "morphism_terms", list, where)
    if len(src_terms) != order or len(tgt_terms) != order or len(phi_rows) != order + 1:
        raise ParseError(f"{where}: term counts disagree with order {order}")
    if any(t.space.degree != 1 for t in src_terms + tgt_terms):
        raise ParseError(f"{where}: bracket terms must have degree 1")
    phis = [
        matrix_from_json(m, (target.dim, source.dim), f"{where}.morphism_terms[{i}]")
        for i, m in enumerate(phi_rows)
    ]
    label = _name(obj, name, where)
    try:
        return DeformedMorphism(
            DeformedAlgebra(source, order, tuple(src_terms)),
            DeformedAlgebra(target, order, tuple(tgt_terms)),
            tuple(phis),
            label,
        )
    except Exception as exc:
        raise ParseError(f"{where}: {exc}") from exc


def deformation_to_json(dm: DeformedMorphism) -> dict:
    out = {}
    if dm.name:
        out["name"] = dm.name
    out["source"] = algebra_to_json(dm.src_def.base)
    out["target"] = algebra_to_json(dm.tgt_def.base)
    out["order"] = dm.order
    out["source_terms"] = [cochain_to_json(t) for t in dm.src_def.terms]
    out["target_terms"] = [cochain_to_json(t) for t in dm.tgt_def.terms]
    out["morphism_terms"] = [matrix_to_json(m) for m in dm.phi_terms]
    return out


# -- automorphism series -------------------------------------------------------


def automorphism_from_json(obj: dict, where: str = "automorphism") -> FormalAutomorphism:
    dim = _expect(obj, "dimension", int, where)
    order = _expect(obj, "order", int, where)
    rows = _expect(obj, "terms", list, where)
    if len(rows) != order:
        raise ParseError(f"{where}: expected {order} terms (identity is implicit)")
    terms = [
        matrix_from_json(m, (dim, dim), f"{where}.terms[{i}]") for i, m in enumerate(rows)
    ]
    return FormalAutomorphism(dim, order, tuple(terms))


def automorphism_to_json(psi: FormalAutomorphism) -> dict:
    return {
        "dimension": psi.dim,
        "order": psi.order,
        "terms": [matrix_to_json(m) for m in psi.terms],
    }


# -- triples -------------------------------------------------------------------


def triple_to_json(t: CochainTriple) -> dict:
    return {
        "degree": t.degree,
        "c1": cochain_to_json(t.c1, "self"),
        "c2": cochain_to_json(t.c2, "self"),
        "c3": None if t.c3 is None else cochain_to_json(t.c3, "module"),
    }


def triple_from_json(obj: dict, phi: Morphism, where: str = "triple") -> CochainTriple:
    degree = _expect(obj, "degree", int, where)
    c1 = cochain_from_json(_expect(obj, "c1", dict, where), phi.source, phi.source.dim, where)
    c2 = cochain_from_json(_expect(obj, "c2", dict, where), phi.target, phi.target.dim, where)
    c3_obj = obj.get("c3")
    c3 = (
        cochain_from_json(c3_obj, phi.source, phi.target.dim, where)
        if c3_obj is not None
        else None
    )
    return CochainTriple(degree, c1, c2, c3)


# -- files ---------------------------------------------------------------------


def load_json(path: Union[str, Path]) -> dict:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(obj, dict):
        raise ParseError(f"{path}: top level must be an object")
    return obj


def dump_json(obj: dict) -> str:
    """``json.dumps(obj, indent=2) + "\\n"``, byte for byte.

    The stdlib's C encoder does not support ``indent``, so ``json.dumps``
    with it runs a pure-Python generator per value; this writer checks
    types in the same order and hands each string to the C escaper.
    """
    out: list[str] = []
    _write_json(obj, "\n", out.append)
    out.append("\n")
    return "".join(out)


_encode_str = json.encoder.encode_basestring_ascii


def _write_json(o, nl: str, put) -> None:
    if isinstance(o, str):
        put(_encode_str(o))
    elif o is None:
        put("null")
    elif o is True:
        put("true")
    elif o is False:
        put("false")
    elif isinstance(o, int):
        put(int.__repr__(o))
    elif isinstance(o, (list, tuple)):
        if not o:
            put("[]")
            return
        inner = nl + "  "
        sep = "[" + inner
        for v in o:
            put(sep)
            sep = "," + inner
            _write_json(v, inner, put)
        put(nl + "]")
    elif isinstance(o, dict):
        if not o:
            put("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for k, v in o.items():
            put(sep + _encode_str(k if isinstance(k, str) else _json_key(k)) + ": ")
            sep = "," + inner
            _write_json(v, inner, put)
        put(nl + "}")
    else:  # floats, and whatever json.dumps rejects
        put(json.dumps(o))


def _json_key(k) -> str:
    if isinstance(k, (int, float)) or k is None:
        return json.dumps(k)
    raise TypeError(f"keys must be str, int, float, bool or None, not {k.__class__.__name__}")


def file_digest(path: Union[str, Path]) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def load_algebra(path: Union[str, Path]) -> NLieAlgebra:
    return algebra_from_json(load_json(path), str(path))


def load_morphism(path: Union[str, Path]) -> Morphism:
    path = Path(path)
    return morphism_from_json(load_json(path), path.parent, where=str(path))


def load_deformation(path: Union[str, Path]) -> DeformedMorphism:
    path = Path(path)
    return deformation_from_json(load_json(path), path.parent, where=str(path))


def load_automorphism(path: Union[str, Path]) -> FormalAutomorphism:
    return automorphism_from_json(load_json(path), str(path))


def detect_kind(obj: dict) -> str:
    """Classify a parsed file by its schema keys."""
    if "brackets" in obj:
        return "algebra"
    if "morphism_terms" in obj:
        return "deformation"
    if "matrix" in obj:
        return "morphism"
    if "terms" in obj and "dimension" in obj:
        return "automorphism"
    raise ParseError("unrecognised file schema")
