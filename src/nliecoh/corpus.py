"""Bundled demonstration corpus: five 4-dimensional ternary algebras, the
morphisms between them, deformation instances, and an automorphism pair.

The parameterized families these objects come from have free coefficients;
every file here fixes concrete rational values, and the test suite records
computed verdicts for those instances.
"""

from __future__ import annotations

from functools import lru_cache
from importlib import resources
from pathlib import Path

from .algebra import NLieAlgebra
from .deformations import DeformedMorphism, FormalAutomorphism
from .jsonio import load_algebra, load_automorphism, load_deformation, load_morphism
from .morphisms import Morphism

ALGEBRA_FILES = {
    "a1": "alg_a1.json",
    "b1": "alg_b1.json",
    "b2": "alg_b2.json",
    "a3": "alg_a3.json",
    "b3": "alg_b3.json",
}

MORPHISM_FILES = {
    "a1_b1": "mor_a1_b1.json",
    "a1_b2_i1": "mor_a1_b2_i1.json",
    "a1_b2_i2": "mor_a1_b2_i2.json",
    "a3_b3": "mor_a3_b3.json",
    "a3_b3_i2": "mor_a3_b3_i2.json",
}

DEFORMATION_FILES = {
    "a3_b3_1": "def_a3_b3_1.json",
    "a3_b3_order2": "def_a3_b3_order2.json",
}

AUTOMORPHISM_FILES = {
    "a3_scaling": "aut_a3_scaling.json",
    "b3_identity": "aut_b3_identity.json",
}


def data_path(filename: str) -> Path:
    return Path(resources.files("nliecoh.data") / filename)


@lru_cache(maxsize=None)
def algebra(key: str) -> NLieAlgebra:
    return load_algebra(data_path(ALGEBRA_FILES[key]))


@lru_cache(maxsize=None)
def morphism(key: str) -> Morphism:
    phi = load_morphism(data_path(MORPHISM_FILES[key]))
    return Morphism(phi.source, phi.target, phi.matrix, key)


@lru_cache(maxsize=None)
def deformation(key: str) -> DeformedMorphism:
    return load_deformation(data_path(DEFORMATION_FILES[key]))


@lru_cache(maxsize=None)
def automorphism(key: str) -> FormalAutomorphism:
    return load_automorphism(data_path(AUTOMORPHISM_FILES[key]))


def all_algebras() -> dict[str, NLieAlgebra]:
    return {k: algebra(k) for k in ALGEBRA_FILES}
