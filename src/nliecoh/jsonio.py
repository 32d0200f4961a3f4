"""JSON formats, with strict parsing and deterministic serialization.
Algebra, morphism, deformation and automorphism files are read; reports,
deformations and triples (``{"degree", "c1", "c2", "c3"}``, ``c3`` null at
degree 0) are written, and a triple is never read back.

Rationals travel as strings "p/q" or "p" with an optional leading sign;
a zero denominator is rejected.  All index lists are 1-based and strictly
increasing.  Serialization emits keys in a fixed order and sorted entries,
so identical objects always produce identical bytes.  Numbers are written
from integers over a positive denominator, as ``Matrix.ints``/``dens`` hold
them.  A cochain or a triple is written from its integer row by
:class:`CochainText`, the one writer of its entries, so the cochain, triple
and deformation writers return values for :func:`dump_json`:
``json.loads(dump_json(x))`` is the plain dict of ``x``.
"""

from __future__ import annotations

import hashlib
import json
import re
from bisect import bisect_left
from fractions import Fraction
from math import gcd
from pathlib import Path
from typing import Optional, Union

from .algebra import NLieAlgebra
from .cochains import Cochain, CochainSpace
from .deformations import DeformedAlgebra, DeformedMorphism, FormalAutomorphism
from .errors import ArityMismatch, DimensionMismatch, ParseError
from .linalg import Matrix
from .morphisms import Morphism

_RATIONAL_RE = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")
_INDEX_RE = re.compile(r"[0-9]+")


def parse_rational(text, where: str = "") -> Fraction:
    """Parse "p", "-p", or "p/q" with q > 0; ``where`` prefixes errors."""
    prefix = f"{where}: " if where else ""
    if isinstance(text, int) and not isinstance(text, bool):
        return Fraction(text)
    if not isinstance(text, str) or not _RATIONAL_RE.fullmatch(text):
        raise ParseError(f"{prefix}malformed rational literal {text!r}")
    num, _, den = text.partition("/")
    try:
        if not den:
            return Fraction(int(num))
        if int(den) == 0:
            raise ParseError(f"{prefix}zero denominator in {text!r}")
        return Fraction(int(num), int(den))
    except ValueError as exc:  # more digits than int() converts
        raise ParseError(f"{prefix}rational literal too long ({exc})") from None


def format_ratio(num: int, den: int) -> str:
    """num/den, with den > 0, in lowest terms as "p" or "p/q"."""
    g = gcd(num, den)
    try:
        if g == den:
            return str(num // g)
        return f"{num // g}/{den // g}"
    except ValueError:  # more digits than str() converts
        raise ParseError(f"a number is too long to write ({num.bit_length()} bits)") from None


def format_rational(q: Fraction) -> str:
    return format_ratio(q.numerator, q.denominator)


def _expect(obj, key, kind, where):
    if not isinstance(obj, dict):
        raise ParseError(f"{where}: expected an object")
    if key not in obj:
        raise ParseError(f"{where}: missing key {key!r}")
    value = obj[key]
    if kind is not None and (
        not isinstance(value, kind) or (kind is int and isinstance(value, bool))
    ):
        raise ParseError(f"{where}: key {key!r} has wrong type")
    return value


def _name(obj, where: str) -> str:
    """The file's optional "name" key."""
    value = obj.get("name", "")
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
    brackets, zero = {}, Fraction(0)
    for i, entry in enumerate(_expect(obj, "brackets", list, where)):
        spot = f"{where}.brackets[{i}]"
        args = _check_increasing(_expect(entry, "args", list, spot), dim, f"{spot}.args")
        if len(args) != arity:
            raise ParseError(f"{spot}: expected {arity} arguments")
        if args in brackets:
            raise ParseError(f"{spot}: duplicate bracket for {entry['args']}")
        value: dict[int, Fraction] = {}
        for k, raw in _expect(entry, "value", dict, spot).items():
            try:
                pos = int(k) if _INDEX_RE.fullmatch(k) else 0
            except ValueError:  # more digits than int() converts
                pos = 0
            if not 1 <= pos <= dim:
                raise ParseError(f"{spot}: value key {k!r} is not a basis index in 1..{dim}")
            if pos in value:
                raise ParseError(f"{spot}: value key {k!r} names basis index {pos} twice")
            value[pos] = parse_rational(raw, f"{spot}: value key {k!r}")
        brackets[args] = [value.get(t, zero) for t in range(1, dim + 1)]
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
    return [[format_ratio(r.get(j, 0), d) for j in range(m.cols)] for r, d in zip(m.ints, m.dens)]


# -- morphisms ---------------------------------------------------------------


def morphism_from_json(
    obj: dict, base_dir: Optional[Path] = None, where: str = "morphism"
) -> Morphism:
    source = _resolve_algebra(_expect(obj, "source", None, where), base_dir, where)
    target = _resolve_algebra(_expect(obj, "target", None, where), base_dir, where)
    matrix = matrix_from_json(
        _expect(obj, "matrix", list, where), (target.dim, source.dim), where
    )
    try:
        return Morphism(source, target, matrix, _name(obj, where))
    except (ArityMismatch, DimensionMismatch) as exc:
        raise ParseError(f"{where}: {exc}") from exc


# -- cochains ----------------------------------------------------------------


def cochain_from_json(
    obj: dict, source: NLieAlgebra, target_dim: int, degree: int, where: str = "cochain"
) -> Cochain:
    """A cochain of the given ``degree``; a file of another degree is
    rejected before its space, which grows with the degree, is built."""
    got = _expect(obj, "degree", int, where)
    if got < 0:
        raise ParseError(f"{where}: cochain degree must be nonnegative")
    if got != degree:
        raise ParseError(f"{where}: expected cochain degree {degree}, got {got}")
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


class CochainText:
    """A cochain's row on one space or on a triple's three, that ``dump_json`` writes in place;
    rows on the same spaces may share ``heads``, the text of each key's entry head."""

    __slots__ = ("spaces", "row", "den", "heads")

    def __init__(self, spaces: tuple, row: dict, den: int, heads: Optional[dict] = None):
        self.spaces, self.row, self.den = spaces, row, den
        self.heads = {} if heads is None else heads

    def write(self, nl: str, put) -> None:
        items, e2, off, text = sorted(self.row.items()), nl + "  ", 0, ""
        if len(self.spaces) == 1:
            return put(self._part(0, "self", items, 0, nl))
        for k, (s, label) in enumerate(zip(self.spaces, ("self", "self", "module"))):
            text += f',{e2}"c{k + 1}": ' + (self._part(k, label, items, off, e2) if s else "null")
            off += s.dim if s else 0  # the parts lie end to end in the row
        put(f'{{{e2}"degree": {self.spaces[0].degree}{text}{nl}}}')

    def _part(self, k: int, label: str, items, off: int, nl: str) -> str:
        """Part ``k`` from the pairs (``off`` + flat index, int) among the ascending ``items``:
        ascending flat index is canonical key order, then target index."""
        space, e2 = self.spaces[k], nl + "  "
        frame = f'{{{e2}"degree": {space.degree},{e2}"target": "{label}",{e2}"entries": '
        items = items[bisect_left(items, (off,)):bisect_left(items, (off + space.dim,))]
        if not items:
            return f"{frame}[]{nl}}}"
        heads, e4, e6 = self.heads.setdefault((k, nl), {}), e2 + "  ", e2 + "    "
        entries = []
        for j, v in items:
            pos, t = divmod(j - off, space.target_dim)
            head = heads.get(pos)
            if head is None:
                key = space.domain_keys[pos]
                *blocks, last = [[key + 1]] if space.degree == 0 else [[i + 1 for i in b] for b in key]
                head = heads[pos] = (f'{{{e6}"blocks": {_text(blocks, e6)},{e6}"last": '
                                     f'{_text(last, e6)},{e6}"target_index": ')
            entries.append(f'{head}{t + 1},{e6}"value": "{format_ratio(v, self.den)}"{e4}}}')
        return f"{frame}[{e4}" + f",{e4}".join(entries) + f"{e2}]{nl}}}"


def cochain_to_json(c: Cochain) -> CochainText:
    return CochainText(c.spaces, c.row, c.den)


# -- deformations -------------------------------------------------------------


def deformation_from_json(
    obj: dict, base_dir: Optional[Path] = None, where: str = "deformation"
) -> DeformedMorphism:
    source = _resolve_algebra(_expect(obj, "source", None, where), base_dir, where)
    target = _resolve_algebra(_expect(obj, "target", None, where), base_dir, where)
    order = _expect(obj, "order", int, where)
    src_terms = [
        cochain_from_json(t, source, source.dim, 1, f"{where}.source_terms[{i}]")
        for i, t in enumerate(_expect(obj, "source_terms", list, where))
    ]
    tgt_terms = [
        cochain_from_json(t, target, target.dim, 1, f"{where}.target_terms[{i}]")
        for i, t in enumerate(_expect(obj, "target_terms", list, where))
    ]
    phi_rows = _expect(obj, "morphism_terms", list, where)
    if len(src_terms) != order or len(tgt_terms) != order or len(phi_rows) != order + 1:
        raise ParseError(f"{where}: term counts disagree with order {order}")
    phis = [
        matrix_from_json(m, (target.dim, source.dim), f"{where}.morphism_terms[{i}]")
        for i, m in enumerate(phi_rows)
    ]
    label = _name(obj, where)
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
    for side, da in (("source_terms", dm.src_def), ("target_terms", dm.tgt_def)):
        out[side] = [cochain_to_json(t) for t in da.terms]
    out["morphism_terms"] = [matrix_to_json(m) for m in dm.phi_terms]
    return out


# -- automorphism series -------------------------------------------------------


def automorphism_from_json(obj: dict, where: str = "automorphism") -> FormalAutomorphism:
    dim = _expect(obj, "dimension", int, where)
    order = _expect(obj, "order", int, where)
    rows = _expect(obj, "terms", list, where)
    if dim < 1:
        raise ParseError(f"{where}: dimension must be at least 1, got {dim}")
    if order < 0:
        raise ParseError(f"{where}: order must be nonnegative, got {order}")
    if len(rows) != order:
        raise ParseError(f"{where}: expected {order} terms (identity is implicit)")
    terms = [
        matrix_from_json(m, (dim, dim), f"{where}.terms[{i}]") for i, m in enumerate(rows)
    ]
    return FormalAutomorphism(dim, order, tuple(terms))


# -- triples -------------------------------------------------------------------


def triple_to_json(t: Cochain) -> CochainText:
    return CochainText(t.spaces, t.row, t.den)


# -- files ---------------------------------------------------------------------


def _unique_keys(pairs: list) -> dict:
    """A JSON object as a dict.  A key it repeats is invalid JSON here, where
    ``json.loads`` alone would keep the last value."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = [k for k, _ in pairs]
        repeated = next(k for i, k in enumerate(keys) if k in keys[:i])
        raise ValueError(f"key {repeated!r} repeated in one object")
    return obj


def load_json(path: Union[str, Path]) -> dict:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 ({exc})") from exc
    try:
        obj = json.loads(text, object_pairs_hook=_unique_keys)
    except (ValueError, RecursionError) as exc:
        # a JSONDecodeError, a repeated key, an integer too long to convert,
        # or too deep nesting
        raise ParseError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(obj, dict):
        raise ParseError(f"{path}: top level must be an object")
    return obj


def dump_json(obj: dict) -> str:
    """``json.dumps(obj, indent=2) + "\\n"``, byte for byte.

    The stdlib's C encoder does not support ``indent``, so ``json.dumps``
    with it runs a pure-Python generator per value; this writer checks
    types in the same order and hands each string to the C escaper.  A
    :class:`CochainText` is written as the dict of its cochain or triple."""
    return _text(obj, "\n") + "\n"


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
    elif type(o) is CochainText:
        o.write(nl, put)
    else:  # floats, and whatever json.dumps rejects
        put(json.dumps(o))


def _text(o, nl: str) -> str:
    out: list[str] = []
    _write_json(o, nl, out.append)
    return "".join(out)


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
