"""Seeded benchmark inputs, written as nliecoh JSON files.

Everything here is plain ``Fraction`` arithmetic on the file formats, with
no call into ``nliecoh``: the inputs stay the same whatever a later change
does to the program, and producing them warms none of its caches.

Two kinds of input are made from a bundled file and a random change of
basis ``P`` (columns are the new basis vectors):

* a *conjugate*: every n-linear skew map ``mu`` becomes
  ``P^-1 mu(P x1, ..., P xn)``, a morphism ``phi`` from a source conjugated
  by ``P`` to a target conjugated by ``Q`` becomes ``Q^-1 phi P``, and an
  automorphism series term ``psi`` becomes ``P^-1 psi P``.  Dense ``P`` with
  entries in -2..2 gives dense rational structure constants.
* a *permuted direct sum*: a bundled algebra plus a one-dimensional abelian
  ideal, with its basis shuffled, so the matrices stay sparse and integral.

Both are isomorphisms, so every cohomology dimension and every deformation
verdict equals that of the bundled original.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path

DATA = Path("src") / "nliecoh" / "data"


# -- rationals and matrices -------------------------------------------------


def _fmt(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _matmul(a, b):
    return [
        [sum((a[i][k] * b[k][j] for k in range(len(b))), Fraction(0)) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def _inverse(m):
    """Inverse by Gauss-Jordan elimination, or None when ``m`` is singular."""
    d = len(m)
    aug = [list(row) + [Fraction(int(i == j)) for j in range(d)] for i, row in enumerate(m)]
    for c in range(d):
        piv = next((r for r in range(c, d) if aug[r][c]), None)
        if piv is None:
            return None
        aug[c], aug[piv] = aug[piv], aug[c]
        inv = 1 / aug[c][c]
        aug[c] = [x * inv for x in aug[c]]
        for r in range(d):
            if r != c and aug[r][c]:
                f = aug[r][c]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[c])]
    return [row[d:] for row in aug]


def random_invertible(rng: random.Random, d: int):
    """``(P, P^-1)`` with entries of ``P`` drawn from -2..2, row by row."""
    while True:
        p = [[Fraction(rng.randint(-2, 2)) for _ in range(d)] for _ in range(d)]
        p_inv = _inverse(p)
        if p_inv is not None:
            return p, p_inv


def permutation_pair(rng: random.Random, d: int):
    """``(P, P^-1)`` for a basis shuffle."""
    perm = list(range(d))
    rng.shuffle(perm)
    p = [[Fraction(int(perm[j] == i)) for j in range(d)] for i in range(d)]
    return p, [list(col) for col in zip(*p)]


def sign_pair(rng: random.Random, d: int):
    """``(P, P^-1)`` for a change of sign of random basis vectors."""
    p = [[Fraction(rng.choice((-1, 1)) if i == j else 0) for j in range(d)] for i in range(d)]
    return p, p


# -- skew multilinear maps --------------------------------------------------
# A map is {increasing 0-based index tuple: list of Fractions}, as stored in
# the bracket and degree-1 cochain formats.


def _sort_sign(idxs):
    if len(set(idxs)) < len(idxs):
        return 0, None
    sign = 1
    arr = list(idxs)
    for i in range(len(arr)):
        for j in range(len(arr) - 1 - i):
            if arr[j] > arr[j + 1]:
                arr[j], arr[j + 1] = arr[j + 1], arr[j]
                sign = -sign
    return sign, tuple(arr)


def _evaluate(table, d, vectors):
    out = [Fraction(0)] * d
    supports = [[(i, c) for i, c in enumerate(v) if c] for v in vectors]
    for choice in product(*supports):
        sign, key = _sort_sign([i for i, _ in choice])
        value = table.get(key) if sign else None
        if value is None:
            continue
        coeff = Fraction(sign)
        for _, c in choice:
            coeff *= c
        for t, x in enumerate(value):
            if x:
                out[t] += coeff * x
    return out


def transport(table, arity, d, p, p_inv):
    """``P^-1 mu(P x1, ..., P xn)`` on every increasing basis tuple."""
    cols = [[p[i][j] for i in range(d)] for j in range(d)]
    out = {}
    for key in combinations(range(d), arity):
        val = _evaluate(table, d, [cols[i] for i in key])
        img = [sum((p_inv[t][s] * val[s] for s in range(d)), Fraction(0)) for t in range(d)]
        if any(img):
            out[key] = img
    return out


# -- file formats -----------------------------------------------------------


def algebra_table(obj: dict):
    d = obj["dimension"]
    table = {}
    for entry in obj["brackets"]:
        vec = [Fraction(0)] * d
        for t, text in entry["value"].items():
            vec[int(t) - 1] = Fraction(text)
        table[tuple(i - 1 for i in entry["args"])] = vec
    return table


def algebra_json(name: str, arity: int, d: int, table) -> dict:
    return {
        "name": name,
        "arity": arity,
        "dimension": d,
        "basis": [f"e{i + 1}" for i in range(d)],
        "brackets": [
            {
                "args": [i + 1 for i in key],
                "value": {str(t + 1): _fmt(c) for t, c in enumerate(val) if c},
            }
            for key, val in sorted(table.items())
        ],
    }


def _cochain_table(obj: dict, d: int):
    table = {}
    for entry in obj["entries"]:
        key = tuple(i - 1 for i in entry["last"])
        table.setdefault(key, [Fraction(0)] * d)[entry["target_index"] - 1] = Fraction(entry["value"])
    return table


def _cochain_json(table) -> dict:
    entries = [
        {"blocks": [], "last": [i + 1 for i in key], "target_index": t + 1, "value": _fmt(c)}
        for key, val in sorted(table.items())
        for t, c in enumerate(val)
        if c
    ]
    return {"degree": 1, "target": "self", "entries": entries}


def _matrix(rows):
    return [[Fraction(x) for x in row] for row in rows]


def _matrix_json(m):
    return [[_fmt(x) for x in row] for row in m]


def conjugate_algebra(obj: dict, p, p_inv, name: str) -> dict:
    d = obj["dimension"]
    return algebra_json(name, obj["arity"], d, transport(algebra_table(obj), obj["arity"], d, p, p_inv))


def conjugate_matrix(m, src_p, tgt_p_inv):
    """``Q^-1 m P`` for a map from the P-conjugated source to the Q-conjugated target."""
    return _matmul(_matmul(tgt_p_inv, m), src_p)


def conjugate_deformation(obj: dict, src, tgt) -> dict:
    """Transport a deformation file; ``src``/``tgt`` are ``(P, P^-1)`` pairs."""
    s_alg, t_alg = obj["source"], obj["target"]
    ds, dt = s_alg["dimension"], t_alg["dimension"]
    n = s_alg["arity"]
    return {
        "name": obj["name"] + "~",
        "source": conjugate_algebra(s_alg, *src, s_alg["name"] + "~"),
        "target": conjugate_algebra(t_alg, *tgt, t_alg["name"] + "~"),
        "order": obj["order"],
        "source_terms": [
            _cochain_json(transport(_cochain_table(c, ds), n, ds, *src)) for c in obj["source_terms"]
        ],
        "target_terms": [
            _cochain_json(transport(_cochain_table(c, dt), n, dt, *tgt)) for c in obj["target_terms"]
        ],
        "morphism_terms": [
            _matrix_json(conjugate_matrix(_matrix(m), src[0], tgt[1])) for m in obj["morphism_terms"]
        ],
    }


def conjugate_automorphism(obj: dict, p, p_inv) -> dict:
    return {
        "dimension": obj["dimension"],
        "order": obj["order"],
        "terms": [_matrix_json(conjugate_matrix(_matrix(m), p, p_inv)) for m in obj["terms"]],
    }


def direct_sum_abelian(obj: dict, name: str) -> dict:
    """The algebra plus one central basis vector, appended last."""
    d = obj["dimension"] + 1
    table = {key: val + [Fraction(0)] for key, val in algebra_table(obj).items()}
    return algebra_json(name, obj["arity"], d, table)


def load(root: Path, filename: str) -> dict:
    return json.loads((root / DATA / filename).read_text())


def write(path: Path, obj: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj, indent=2) + "\n")


# The generation plans below are what the workloads run on; the job lists in
# ``workloads.py`` name the files they write.

DENSE_ALGEBRAS = ("a1", "a3", "b1", "b2", "b3")
DENSE_MORPHISMS = (("a3_b3", "a3", "b3"), ("a1_b2_i1", "a1", "b2"))
DENSE_DEFORMATIONS = ("def_a3_b3_1", "def_a3_b3_order2")
DENSE_AUTOMORPHISMS = (("aut_a3_scaling", "a3"), ("aut_b3_identity", "b3"))
DEEP_SUMS = ("a1",)


def dense_basis_change(obj: dict, key: str):
    """The fixed dense change of basis for one bundled algebra: the first
    draw, from a generator seeded by the algebra's key, whose conjugate has
    at least half of its structure constants nonzero and one of them not an
    integer."""
    d, n = obj["dimension"], obj["arity"]
    rng = random.Random(f"dense-conj/{key}")
    table = algebra_table(obj)
    size = len(list(combinations(range(d), n))) * d
    while True:
        p, p_inv = random_invertible(rng, d)
        values = [x for v in transport(table, n, d, p, p_inv).values() for x in v if x]
        if 2 * len(values) >= size and any(x.denominator > 1 for x in values):
            return p, p_inv


def make_dense_conjugates(root: Path, out_dir: Path, seed: int) -> None:
    """Conjugates of the five algebras, two morphisms, both deformations and
    both automorphism series; one change of basis per algebra.

    The change of basis is the algebra's fixed dense one followed by a
    change of sign of the basis vectors drawn from ``seed``.  The seed thus
    changes every input file but only the signs of the structure constants,
    so the work per job stays the same.  A freshly drawn dense matrix per
    seed moved the workload's time by a factor of two from seed to seed,
    and a shuffle of the basis, which changes the elimination's pivot order,
    by 6%.
    """
    rng = random.Random(f"dense-conj/{seed}")
    pairs = {}
    for key in DENSE_ALGEBRAS:
        obj = load(root, f"alg_{key}.json")
        p0, p0_inv = dense_basis_change(obj, key)
        s, s_inv = sign_pair(rng, obj["dimension"])
        pairs[key] = (_matmul(p0, s), _matmul(s_inv, p0_inv))
        write(out_dir / f"alg_{key}.json", conjugate_algebra(obj, *pairs[key], obj["name"] + "~"))
    for key, s, t in DENSE_MORPHISMS:
        obj = load(root, f"mor_{key}.json")
        conj = {
            "name": obj["name"] + "~",
            "source": f"alg_{s}.json",
            "target": f"alg_{t}.json",
            "matrix": _matrix_json(conjugate_matrix(_matrix(obj["matrix"]), pairs[s][0], pairs[t][1])),
        }
        write(out_dir / f"mor_{key}.json", conj)
    for key in DENSE_DEFORMATIONS:
        obj = load(root, f"{key}.json")
        write(out_dir / f"{key}.json", conjugate_deformation(obj, pairs["a3"], pairs["b3"]))
    for key, alg in DENSE_AUTOMORPHISMS:
        obj = load(root, f"{key}.json")
        write(out_dir / f"{key}.json", conjugate_automorphism(obj, *pairs[alg]))


def make_deep_sums(root: Path, out_dir: Path, seed: int | None) -> None:
    """Five-dimensional direct sums with the basis shuffled by ``seed``;
    ``seed=None`` keeps the original order (the reference instance)."""
    rng = random.Random(f"deep-self/{seed}")
    for key in DEEP_SUMS:
        obj = direct_sum_abelian(load(root, f"alg_{key}.json"), f"{key}+e5")
        d = obj["dimension"]
        if seed is not None:
            p, p_inv = permutation_pair(rng, d)
            obj = algebra_json(obj["name"], obj["arity"], d, transport(algebra_table(obj), obj["arity"], d, p, p_inv))
        write(out_dir / f"alg_{key}_e5.json", obj)
