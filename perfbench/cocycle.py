"""Independent check of the cocycle bases a self-cohomology report lists.

A degree-p cochain (``"degree": p`` in a report, the basis of H^(p+1))
takes p - 1 argument blocks in the wedge power of degree n - 1, a final
block and one extra vector; the final block and the vector form a fully
skew group of n slots.  Its coboundary is

    (δf)(X_1..X_{p+1}, z) =
        sum_{i<j} (-1)^i   f(.. ^X_i .., X_i.X_j, .., z)        (X_i.X_j in place of X_j)
      + sum_i     (-1)^i   f(.. ^X_i .., [X_i, z])
      + sum_i     (-1)^(i-1) [X_i, f(.. ^X_i .., z)]
      + (-1)^p sum_k [y_1, .., f(X_1..X_p, y_k), .., y_{n-1}, z]

with i, j counted from 1, X_{p+1} = y_1 ^ .. ^ y_{n-1}, [X, z] the n-ary
bracket of the n - 1 vectors of X with z, and X.Y = sum_k
y_1 ^ .. ^ [X, y_k] ^ .. ^ y_{n-1}.  For p = 1 this says that μ + εf
satisfies the fundamental identity to first order.

Everything here is plain ``Fraction`` code on the JSON formats, with no
call into ``nliecoh``.  ``check_bases`` evaluates δ on a random integer
combination of the listed vectors (nonzero, with high probability, if any
one of them is not a cocycle) and checks that they are linearly
independent by their rank modulo a large prime.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, product

import gen

PRIME = (1 << 61) - 1
COMBINATION_RANGE = 1 << 20


class SelfComplex:
    """The self-valued cochain complex of one n-Lie algebra file."""

    def __init__(self, algebra: dict):
        self.d = algebra["dimension"]
        self.n = algebra["arity"]
        self.table = gen.algebra_table(algebra)

    def bracket(self, vectors) -> list:
        return gen._evaluate(self.table, self.d, vectors)

    def unit(self, i: int) -> list:
        return [Fraction(int(j == i)) for j in range(self.d)]

    def act(self, block: dict, z) -> list:
        """[X, z] for a block X given as {increasing (n-1)-tuple: coefficient}."""
        out = [Fraction(0)] * self.d
        for key, c in block.items():
            for t, x in enumerate(self.bracket([self.unit(i) for i in key] + [list(z)])):
                out[t] += c * x
        return out

    def block_product(self, x: dict, y: dict) -> dict:
        """X.Y: the action of X substituted into each slot of Y."""
        out: dict = {}
        for ykey, yc in y.items():
            for k in range(self.n - 1):
                acted = self.act(x, self.unit(ykey[k]))
                for j, c in enumerate(acted):
                    if not c:
                        continue
                    sign, key = gen._sort_sign(ykey[:k] + (j,) + ykey[k + 1 :])
                    if sign:
                        out[key] = out.get(key, Fraction(0)) + sign * yc * c
        return {k: c for k, c in out.items() if c}

    def evaluate(self, f: dict, blocks: list, z) -> list:
        """f(blocks..., z): ``f`` maps (block keys..., n-tuple) to a vector."""
        out = [Fraction(0)] * self.d
        *free, last = blocks
        for keys in product(*(b.items() for b in free)):
            coeff = Fraction(1)
            for _, c in keys:
                coeff *= c
            prefix = tuple(k for k, _ in keys)
            for lkey, lc in last.items():
                for j, zc in enumerate(z):
                    if not zc:
                        continue
                    sign, skey = gen._sort_sign(lkey + (j,))
                    value = f.get(prefix + (skey,)) if sign else None
                    if value is None:
                        continue
                    factor = coeff * lc * zc * sign
                    for t, x in enumerate(value):
                        if x:
                            out[t] += factor * x
        return out

    def coboundary_at(self, f: dict, p: int, args: list, z) -> list:
        """(δf)(args..., z) for a degree-p cochain ``f`` and p + 1 blocks."""
        out = [Fraction(0)] * self.d

        def add(vec, sign):
            for t, x in enumerate(vec):
                if x:
                    out[t] += sign * x

        for i in range(p + 1):
            rest = args[:i] + args[i + 1 :]
            for j in range(i + 1, p + 1):
                moved = args[:i] + args[i + 1 : j] + [self.block_product(args[i], args[j])] + args[j + 1 :]
                add(self.evaluate(f, moved, z), (-1) ** (i + 1))
            add(self.evaluate(f, rest, self.act(args[i], z)), (-1) ** (i + 1))
            add(self.act(args[i], self.evaluate(f, rest, z)), (-1) ** i)
        (ykey,) = args[-1]
        for k in range(self.n - 1):
            inner = self.evaluate(f, args[:-1], self.unit(ykey[k]))
            vectors = [self.unit(i) for i in ykey] + [list(z)]
            vectors[k] = inner
            add(self.bracket(vectors), (-1) ** p)
        return out

    def is_cocycle(self, f: dict, p: int) -> bool:
        """δf = 0 on every canonical basis argument of degree p + 1."""
        wedges = list(combinations(range(self.d), self.n - 1))
        for free in product(wedges, repeat=p):
            for k in combinations(range(self.d), self.n):
                args = [{b: Fraction(1)} for b in free] + [{k[:-1]: Fraction(1)}]
                if any(self.coboundary_at(f, p, args, self.unit(k[-1]))):
                    return False
        return True


def _cochain(entries: list[dict], weights, d: int) -> dict:
    """sum of weight * cochain, as {(block keys..., n-tuple): vector}, 0-based."""
    out: dict = {}
    for entry, w in zip(entries, weights):
        for e in entry["entries"]:
            key = tuple(tuple(i - 1 for i in b) for b in e["blocks"]) + (tuple(i - 1 for i in e["last"]),)
            vec = out.setdefault(key, [Fraction(0)] * d)
            vec[e["target_index"] - 1] += w * Fraction(e["value"])
    return out


def _rank_mod_prime(rows: list[dict]) -> int:
    """Rank modulo ``PRIME`` of sparse rows {coordinate: Fraction}."""
    pivots: dict = {}  # pivot coordinate -> row scaled to 1 there
    for row in rows:
        r = {k: v.numerator * pow(v.denominator, -1, PRIME) % PRIME for k, v in row.items()}
        r = {k: v for k, v in r.items() if v}
        while r:
            col = min(r)
            piv = pivots.get(col)
            if piv is None:
                inv = pow(r[col], -1, PRIME)
                pivots[col] = {k: v * inv % PRIME for k, v in r.items()}
                break
            factor = r[col]
            for k, v in piv.items():
                r[k] = (r.get(k, 0) - factor * v) % PRIME
            r = {k: v for k, v in r.items() if v}
    return len(pivots)


def check_bases(algebra: dict, bases: dict, rng: random.Random) -> str | None:
    """None when every listed vector is a cocycle and each list is independent."""
    complex_ = SelfComplex(algebra)
    d = complex_.d
    for name in ("cocycle_basis", "representatives"):
        vectors = bases[name]
        if not vectors:
            continue
        p = vectors[0]["degree"]
        if any(v["degree"] != p or v["target"] != "self" for v in vectors):
            return f"{name}: not all self-valued cochains of one degree"
        weights = [rng.randrange(1, COMBINATION_RANGE) for _ in vectors]
        if not complex_.is_cocycle(_cochain(vectors, weights, d), p):
            return f"{name}: a listed vector is not a cocycle"
        rows = [
            {(key, t): x for key, vec in _cochain([v], [1], d).items() for t, x in enumerate(vec) if x}
            for v in vectors
        ]
        if _rank_mod_prime(rows) != len(rows):
            return f"{name}: the listed vectors are linearly dependent"
    return None
