import pytest
from hypothesis import Phase, settings

from catalog import identity_pair_deformation

# Every phase but explain: on a failing example hypothesis re-runs it under
# a line tracer to say which lines it ran, which on this suite's elimination
# tests can take minutes and hundreds of MiB before the failure is reported.
# The failing example itself is still shrunk and printed.
settings.register_profile("no-explain", phases=[p for p in Phase if p is not Phase.explain])
settings.load_profile("no-explain")

from nliecoh.corpus import ALGEBRA_FILES, algebra, deformation, morphism


@pytest.fixture(scope="session")
def corpus_algebras():
    return {k: algebra(k) for k in ALGEBRA_FILES}


@pytest.fixture(scope="session")
def alg_a1():
    return algebra("a1")


@pytest.fixture(scope="session")
def alg_b1():
    return algebra("b1")


@pytest.fixture(scope="session")
def alg_b2():
    return algebra("b2")


@pytest.fixture(scope="session")
def alg_a3():
    return algebra("a3")


@pytest.fixture(scope="session")
def alg_b3():
    return algebra("b3")


@pytest.fixture(scope="session")
def phi_a1_b1():
    return morphism("a1_b1")


@pytest.fixture(scope="session")
def phi_a3_b3():
    return morphism("a3_b3")


@pytest.fixture(scope="session")
def def_order1():
    return deformation("a3_b3_1")


@pytest.fixture(scope="session")
def def_order2():
    return deformation("a3_b3_order2")


@pytest.fixture(scope="session")
def def_identity_pair():
    return identity_pair_deformation()
