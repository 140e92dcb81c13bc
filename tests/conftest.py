import functools
import math
import time

import pytest
from hypothesis import HealthCheck, settings
from scipy import integrate

from grusslab.funcspace import RANDLIP_PIECES, standard_corpus
from grusslab.verify import SuiteConfig, run_suite

settings.register_profile(
    "ci",
    max_examples=50,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


@pytest.fixture(scope="session")
def default_run():
    """The default report and the seconds it took, computed once: the
    acceptance criteria and the golden fixture read it."""
    t0 = time.time()
    report = run_suite(SuiteConfig())
    return report, time.time() - t0


@pytest.fixture(scope="session")
def corpus01():
    return standard_corpus((0.0, 1.0))


@pytest.fixture(scope="session")
def corpus_pm():
    return standard_corpus((-1.0, 1.0))


@pytest.fixture(scope="session")
def corpus_ray():
    return standard_corpus((0.0, math.inf))


#: Lebesgue integrals over [0, 1] of unit-corpus members and products of two,
#: in closed form where it is short; the key of a product is its sorted names
CLOSED_FORMS = {
    ("e0",): 1.0, ("e1",): 0.5, ("e2",): 1.0 / 3.0, ("hat",): 1.0 / 6.0,
    ("absmid",): 0.25, ("sinpi",): 2.0 / math.pi, ("expneg",): 1.0 - math.exp(-1.0),
    ("halfstep",): 0.25, ("dirichlet",): 1.0,
    ("e1", "e1"): 1.0 / 3.0, ("e2", "e2"): 0.2, ("sinpi", "sinpi"): 0.5,
    ("expneg", "expneg"): 0.5 * (1.0 - math.exp(-2.0)), ("halfstep", "halfstep"): 0.125,
}


@pytest.fixture(scope="session")
def lebesgue_oracle(corpus01):
    """integral(*names): the Lebesgue integral over [0, 1] of one unit-corpus
    member or of the product of two, from CLOSED_FORMS or else by
    scipy.integrate.quad on each of the corpus cells [k/32, (k+1)/32], on
    which every member is smooth, summed by math.fsum.  It reads nothing of
    the program's own quadrature."""
    knots = [k / RANDLIP_PIECES for k in range(RANDLIP_PIECES + 1)]

    @functools.cache
    def integral(*names):
        names = tuple(sorted(names))
        if names in CLOSED_FORMS:
            return CLOSED_FORMS[names]

        def fn(x):
            return math.prod(float(corpus01[name](x)) for name in names)
        return math.fsum(integrate.quad(fn, lo, hi, epsabs=1e-16, epsrel=1e-13)[0]
                         for lo, hi in zip(knots, knots[1:]))
    return integral
