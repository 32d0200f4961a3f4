"""Deterministic case catalog feeding the randomized property sweep.

Cases are valid algebras across arities 2 and 3 and dimensions up to 4:
the bundled corpus, classical small Lie algebras, abelian structures, and
seeded dense conjugates of all of these (change of basis preserves
validity while producing dense structure constants).  The transcribed
representative 2-cocycles of the corpus, and an order-1 deformation built
from one of them, close the file.
"""

import random
from fractions import Fraction

from oracles import column, mul_vector, solve_vector, unit

from nliecoh.algebra import NLieAlgebra
from nliecoh.cochains import Cochain, CochainSpace
from nliecoh.corpus import algebra, all_algebras, morphism
from nliecoh.deformations import DeformedAlgebra, DeformedMorphism
from nliecoh.linalg import Matrix
from nliecoh.morphisms import Morphism


def _named(name, arity, dim, brackets):
    return NLieAlgebra.from_brackets(name, arity, dim, brackets)


def base_algebras() -> list[NLieAlgebra]:
    algs = list(all_algebras().values())
    algs += [
        # basis (e, f, h): [e,f]=h, [e,h]=-2e, [f,h]=2f
        _named("sl2", 2, 3, {(0, 1): (0, 0, 1), (0, 2): (-2, 0, 0), (1, 2): (0, 2, 0)}),
        _named("heis3", 2, 3, {(0, 1): (0, 0, 1)}),
        _named("aff1", 2, 2, {(0, 1): (0, 1)}),
        _named("abelian22", 2, 2, {}),
        _named("abelian24", 2, 4, {}),
        _named("abelian33", 3, 3, {}),
        _named("abelian34", 3, 4, {}),
        _named("cross3", 2, 3, {(0, 1): (0, 0, 1), (0, 2): (0, -1, 0), (1, 2): (1, 0, 0)}),
    ]
    return algs


def _simple(arity: int) -> NLieAlgebra:
    """A_(n+1), the simple n-Lie algebra of dimension n + 1: the bracket of
    the basis vectors other than e_m is (-1)^m e_m, m = 1..n+1."""
    d = arity + 1
    brackets = {
        tuple(j for j in range(d) if j != i): [(-1) ** (i + 1) if t == i else 0 for t in range(d)]
        for i in range(d)
    }
    return _named(f"A{d}", arity, d, brackets)


def simple_a4() -> NLieAlgebra:
    """A_4, the simple ternary algebra of dimension 4.  Kept out of
    ``base_algebras()``, whose digest set is pinned."""
    return _simple(3)


def simple_a5() -> NLieAlgebra:
    """A_5, the simple 4-Lie algebra of dimension 5, the one catalog case
    of arity 4; outside ``base_algebras()`` as A_4 is."""
    return _simple(4)


def symmetric_form(n: int, B) -> NLieAlgebra:
    """The n-Lie algebra of dimension n + 1 of the (n+1)x(n+1) rows ``B``:
    the bracket of the basis vectors other than e_m, in increasing order, is
    (-1)^m sum_j B[m][j] e_j, m = 0..n.  It satisfies the fundamental
    identity when B is symmetric (Filippov 1985); B = -I gives A_(n+1).
    Outside ``base_algebras()``, as A_4 is."""
    d = n + 1
    brackets = {
        tuple(j for j in range(d) if j != m): [(-1) ** m * Fraction(x) for x in B[m]]
        for m in range(d)
    }
    return _named(f"S{d}", n, d, brackets)


def random_symmetric(rng: random.Random, d: int, rank: int) -> list[list[Fraction]]:
    """P D P^T for a random invertible integer P and a diagonal D of
    ``rank`` nonzero rational entries of either sign: a symmetric form of
    that rank."""
    p, _ = _random_invertible(rng, d)
    diag = [Fraction(rng.choice((-1, 1)) * rng.randint(1, 3), rng.randint(1, 2)) for _ in range(rank)]
    diag += [Fraction(0)] * (d - rank)
    rows = [column(p, i) for i in range(d)]  # rows of P^T: columns of P
    return [[sum(rows[k][i] * diag[k] * rows[k][j] for k in range(d)) for j in range(d)] for i in range(d)]


def _random_invertible(rng: random.Random, d: int) -> Matrix:
    while True:
        m = Matrix.from_rows(
            [[Fraction(rng.randint(-2, 2)) for _ in range(d)] for _ in range(d)]
        )
        cols = []
        ok = True
        for j in range(d):
            x = solve_vector(m, unit(d, j))
            if x is None:
                ok = False
                break
            cols.append(x)
        if ok:
            return m, Matrix.from_columns(cols)


def conjugate(alg: NLieAlgebra, p: Matrix, p_inv: Matrix, name: str) -> NLieAlgebra:
    """Transport the bracket along a change of basis; stays valid."""
    brackets = {}
    for key in alg.bracket_keys():
        val = mul_vector(p_inv, alg.bracket(*(column(p, i) for i in key)))
        brackets[key] = val
    return NLieAlgebra.from_brackets(name, alg.arity, alg.dim, brackets)


def conjugated_cases(seed: int = 20240811, per_base: int = 7) -> list[NLieAlgebra]:
    rng = random.Random(seed)
    out = []
    for alg in base_algebras():
        for k in range(per_base):
            p, p_inv = _random_invertible(rng, alg.dim)
            out.append(conjugate(alg, p, p_inv, f"{alg.name}~{k}"))
    return out


def full_catalog() -> list[NLieAlgebra]:
    return base_algebras() + conjugated_cases()


def planted_defects(algs, count: int, seed: int) -> list[NLieAlgebra]:
    """``count`` copies of algebras drawn from ``algs``, each with the value
    of one increasing n-tuple replaced by a random vector with entries in
    thirds and halves; most of them break the fundamental identity."""
    rng = random.Random(seed)
    out = []
    for k, alg in enumerate(rng.sample(algs, count)):
        brackets = dict(alg.structure)
        key = tuple(sorted(rng.sample(range(alg.dim), alg.arity)))
        brackets[key] = [Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3))) for _ in range(alg.dim)]
        out.append(NLieAlgebra.from_brackets(f"{alg.name}!{k}", alg.arity, alg.dim, brackets))
    return out


def conjugated_morphism() -> Morphism:
    """a1_b2_i1 carried along dense changes of basis P_A, P_B of its
    algebras, phi' = P_B^-1 phi P_A: source constants, target constants and
    phi' have the denominators 5, 9 and 3, so no two of the scalings an
    integer assembly needs agree."""
    phi = morphism("a1_b2_i1")
    rng = random.Random(3)
    pa, pa_inv = _random_invertible(rng, phi.source.dim)
    pb, pb_inv = _random_invertible(rng, phi.target.dim)
    src = conjugate(phi.source, pa, pa_inv, "a1~")
    tgt = conjugate(phi.target, pb, pb_inv, "b2~")
    return Morphism(src, tgt, pb_inv.mul(phi.matrix).mul(pa), "a1_b2_i1~")


def conjugated_isomorphism(alg: NLieAlgebra, seed: int) -> Morphism:
    """The identity of ``alg`` read between two dense changes of basis,
    P_B^-1 P_A from alg~A to alg~B: a rational map of full rank, so every
    exterior power of it is nonzero."""
    rng = random.Random(seed)
    pa, pa_inv = _random_invertible(rng, alg.dim)
    pb, pb_inv = _random_invertible(rng, alg.dim)
    src = conjugate(alg, pa, pa_inv, f"{alg.name}~A")
    tgt = conjugate(alg, pb, pb_inv, f"{alg.name}~B")
    return Morphism(src, tgt, pb_inv.mul(pa), f"{alg.name}~iso")


# Representative 2-cocycle tables, 1-based indices: {bracket tuple: {target: c}}.
COCYCLE_TABLES: dict[str, list[dict]] = {
    "a1": [
        {(1, 2, 3): {1: 1, 3: -1}, (1, 2, 4): {4: 1}, (2, 3, 4): {4: 1}},
        {(1, 2, 3): {2: 1}},
        {(1, 2, 4): {2: 1}, (1, 3, 4): {1: 1, 3: -1}, (2, 3, 4): {2: 1}},
    ],
    "b1": [
        {(1, 2, 4): {2: 1}},
        {(1, 3, 4): {2: 1}},
    ],
    "b2": [
        {(1, 3, 4): {1: 1}},
        {(1, 3, 4): {3: 1, 4: -1}},
        {(2, 3, 4): {1: 1}},
    ],
    "a3": [
        {(1, 3, 4): {1: 1}},
        {(1, 3, 4): {2: 1}},
        {(1, 2, 4): {3: 1}},
        {(2, 3, 4): {3: 1}},
        {(1, 2, 3): {1: 1}},
        {(1, 2, 3): {4: 1}},
        {(1, 2, 4): {2: 1}, (1, 3, 4): {3: -1}},
        {(1, 3, 4): {4: 1}, (1, 2, 3): {2: 1}},
        {(1, 2, 4): {4: -1}, (1, 2, 3): {3: 1}},
    ],
}


def degree1_cochain(alg: NLieAlgebra, table: dict) -> Cochain:
    """Build a skew n-linear cochain from a 1-based value table."""
    coeffs = {
        ((tuple(i - 1 for i in key),), t - 1): c
        for key, values in table.items()
        for t, c in values.items()
    }
    return Cochain(CochainSpace(alg, 1, alg.dim), coeffs)


def listed_cocycles(key: str) -> list[Cochain]:
    alg = algebra(key)
    return [degree1_cochain(alg, table) for table in COCYCLE_TABLES[key]]


def identity_pair_deformation() -> DeformedMorphism:
    """Both copies of the first demo algebra deformed by the same 2-cocycle,
    linked by the identity map: a valid order-1 instance used by the
    obstruction examples."""
    alg = algebra("a1")
    da = DeformedAlgebra(alg, 1, (degree1_cochain(alg, COCYCLE_TABLES["a1"][1]),))
    return DeformedMorphism(
        da, da, (Matrix.identity(alg.dim), Matrix.zero(alg.dim, alg.dim)), "a1_id_def"
    )
