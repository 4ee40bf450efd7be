"""Shared instances; session scope because the bigger ones take real time."""

import pytest
from hypothesis import Phase, settings

from ybelab.catalog import (
    abelianmap_instance,
    cyclic_pq_instance,
    gl3f2_instance,
    semidirect_instance,
    trivial_brace_instance,
)

# tests/mutants.py runs each named test under this profile: it only asks
# whether the test fails, and shrinking the failures of two property tests
# took about 50 s of the 125 s that its 18 mutants took on a 2-core host.
settings.register_profile("kill", phases=[Phase.explicit, Phase.reuse, Phase.generate])


@pytest.fixture(scope="session")
def trivial_c4():
    return trivial_brace_instance((4,))


@pytest.fixture(scope="session")
def trivial_s3():
    return trivial_brace_instance((3, 2))


@pytest.fixture(scope="session")
def semidirect32():
    return semidirect_instance(3, 2)


@pytest.fixture(scope="session")
def abelianmap35():
    return abelianmap_instance(3, 5)


@pytest.fixture(scope="session")
def gl3f2():
    return gl3f2_instance(seed=0)


@pytest.fixture(scope="session")
def cyclicpq52():
    return cyclic_pq_instance(5, 2)


@pytest.fixture(scope="session")
def catalog(trivial_s3, semidirect32, abelianmap35, gl3f2, cyclicpq52):
    """The acceptance battery list, reusing the instances built above."""
    small = [trivial_brace_instance((n,)) for n in range(2, 7)]
    return small + [trivial_s3, semidirect32, abelianmap35, gl3f2, cyclicpq52]
