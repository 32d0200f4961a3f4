"""Deterministic case catalog feeding the randomized property sweep.

Cases are valid algebras across arities 2 and 3 and dimensions up to 4:
the bundled corpus, classical small Lie algebras, abelian structures, and
seeded dense conjugates of all of these (change of basis preserves
validity while producing dense structure constants).
"""

import random
from fractions import Fraction

from nliecoh.algebra import NLieAlgebra
from nliecoh.corpus import all_algebras, morphism
from nliecoh.linalg import Matrix, solve
from nliecoh.morphisms import Morphism


def _unit(d, i):
    return tuple(Fraction(1 if j == i else 0) for j in range(d))


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


def _random_invertible(rng: random.Random, d: int) -> Matrix:
    while True:
        m = Matrix.from_rows(
            [[Fraction(rng.randint(-2, 2)) for _ in range(d)] for _ in range(d)]
        )
        cols = []
        ok = True
        for j in range(d):
            x = solve(m, _unit(d, j))
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
        val = p_inv.mul_vector(alg.bracket(*(p.column(i) for i in key)))
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
