"""The assembled coboundaries, byte for byte, against recorded digests.

``golden/coboundary_digests.json`` holds one sha256 of (rows, cols, ints,
dens) per matrix: the self coboundary at p = 0-3 (0-2 for the binary
dim-4 algebra) on the 13 catalog base algebras and one dense conjugate of
each, the module coboundary at m = 0-3 on every corpus morphism and on the
conjugated ``a1_b2_i1``, and ``TripleComplex.delta_matrix`` at m = 0-2 on
those six morphisms.  A change to how coboundaries are assembled must
leave every digest as it is.

Regenerate (only when the matrices are meant to change):
``PYTHONPATH=src python tests/test_coboundary_digests.py``
"""

import hashlib
import json
from pathlib import Path

import pytest

from catalog import base_algebras, conjugated_cases, conjugated_morphism

from nliecoh.cochains import coboundary_matrix_module, coboundary_matrix_self
from nliecoh.corpus import MORPHISM_FILES, morphism
from nliecoh.morphisms import TripleComplex

GOLDEN = Path(__file__).parent / "golden" / "coboundary_digests.json"


def digest(m) -> str:
    """sha256 of a matrix's shape, integer rows (by column) and denominators."""
    h = hashlib.sha256(f"{m.rows}x{m.cols}\n".encode())
    for r, d in zip(m.ints, m.dens):
        h.update((" ".join(f"{j}:{v}" for j, v in sorted(r.items())) + f" /{d}\n").encode())
    return h.hexdigest()


def _self_digests() -> dict:
    algs = base_algebras() + conjugated_cases(per_base=1)
    top = {a.name: 2 if (a.arity, a.dim) == (2, 4) else 3 for a in algs}
    return {
        f"self/{a.name}/{p}": digest(coboundary_matrix_self(a, p))
        for a in algs
        for p in range(top[a.name] + 1)
    }


def _morphisms() -> list:
    return [morphism(key) for key in sorted(MORPHISM_FILES)] + [conjugated_morphism()]


def _module_digests() -> dict:
    return {
        f"module/{phi.name}/{m}": digest(coboundary_matrix_module(phi, m))
        for phi in _morphisms()
        for m in range(4)
    }


def _delta_digests() -> dict:
    out = {}
    for phi in _morphisms():
        tc = TripleComplex(phi)
        out.update((f"delta/{phi.name}/{m}", digest(tc.delta_matrix(m))) for m in range(3))
    return out


KINDS = {"self": _self_digests, "module": _module_digests, "delta": _delta_digests}


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_coboundaries_match_recorded_digests(kind):
    """Regenerate: ``PYTHONPATH=src python tests/test_coboundary_digests.py``."""
    want = {k: v for k, v in json.loads(GOLDEN.read_text()).items() if k.startswith(kind + "/")}
    assert want
    assert KINDS[kind]() == want


def test_digest_set_is_complete():
    assert len(json.loads(GOLDEN.read_text())) == 144


if __name__ == "__main__":
    digests = {k: v for build in KINDS.values() for k, v in build().items()}
    GOLDEN.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {GOLDEN}")
