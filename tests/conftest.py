import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from gaugefix.constraints import Constraint, ConstraintOrigin, consistency_chain
from gaugefix.phase import linear_function
from gaugefix.toys import maxwell_mode

settings.register_profile(
    "ci",
    derandomize=True,
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(scope="session")
def coulomb_gauge():
    """k -> (maxwell_mode(k), its chain with the gauge fixings f and k.a).

    legendre gives the primary p4 and the chain Gauss's law; the fixings
    are two linear rows on z = (a, f, p, p_f) with origin GAUGE_FIXING.
    """
    def build(k):
        model = maxwell_mode(k)
        rows = np.zeros((2, 8))
        rows[0, 3] = 1.0
        rows[1, :3] = k
        fixings = [Constraint(linear_function(row, label=label), ConstraintOrigin.GAUGE_FIXING)
                   for row, label in zip(rows, ("f", "k.a"))]
        return model, consistency_chain(model.system, model.primaries).extended(fixings)
    return build
