import pytest

from anharm2d.closed_form import excited_solve
from anharm2d.numeric import build_grid


@pytest.fixture(scope="session")
def sec3():
    """Worked joint configuration: a=1, m=0 -> (a,b,c) = (1, -12, 4)."""
    return excited_solve(1.0, 0)


@pytest.fixture(scope="session")
def sec3_grid(sec3):
    return build_grid(sec3.params, 4000)
