"""Shared generators and checkers for the test suite."""

from __future__ import annotations

import random
import signal
import time
from fractions import Fraction

import pytest

from onecell.cells import cell_pick_interior_point
from onecell.polynomial import MPoly
from onecell.realalg import Sample, sign_at


def random_poly(rng: random.Random, nvars: int, max_deg: int = 3,
                max_terms: int = 4) -> MPoly:
    """A random nonzero polynomial in x1..x_nvars of bounded total degree."""
    while True:
        terms = {}
        for _ in range(rng.randint(1, max_terms)):
            exps = [0] * nvars
            budget = max_deg
            for v in rng.sample(range(nvars), k=rng.randint(0, nvars)):
                e = rng.randint(0, budget)
                exps[v] = e
                budget -= e
            c = rng.choice([-3, -2, -1, 1, 2, 3])
            key = tuple(exps)
            terms[key] = terms.get(key, 0) + c
        p = MPoly({k: Fraction(v) for k, v in terms.items() if v})
        if not p.is_zero():
            return p


def random_sample(rng: random.Random, nvars: int) -> list[Fraction]:
    return [
        Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(nvars)
    ]


def sign_vector(polys, s: Sample) -> tuple[int, ...]:
    return tuple(sign_at(p, s) for p in polys)


def check_cell_sound(cell, polys, s: Sample, points: int) -> int:
    """Assert sign-vector equality with s at `points` interior points;
    returns the number of points actually checked."""
    reference = sign_vector(polys, s)
    checked = 0
    for seed in range(points):
        pt = cell_pick_interior_point(cell, seed)
        assert sign_vector(polys, pt) == reference, (
            f"sign change inside cell at {pt!r}"
        )
        checked += 1
    return checked


def within_seconds(seconds, fn):
    """fn() under a SIGALRM limit, so a call that does not terminate
    fails the test instead of hanging the suite.  The test's own limit
    (`_test_time_limit`) is suspended meanwhile and then armed again
    with what is left of it."""

    def expire(signum, frame):
        raise TimeoutError(f"no answer within {seconds} s")

    old = signal.signal(signal.SIGALRM, expire)
    outer = signal.alarm(seconds)
    start = time.monotonic()
    try:
        return fn()
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)
        if outer:
            signal.alarm(max(1, outer - int(time.monotonic() - start)))


# the longest a test may run, about ten times the slowest test's time
TEST_LIMIT_S = 120


class TestTimeLimit(BaseException):
    """A test ran over `TEST_LIMIT_S`.  Not an `Exception`, so hypothesis
    does not catch it and rerun the example that does not end while it
    shrinks; pytest reports the test as failed and goes on."""

    __test__ = False


@pytest.fixture(autouse=True)
def _test_time_limit():
    """Every test ends within `TEST_LIMIT_S`: a loop over exact reals
    that does not terminate fails its test instead of hanging the
    suite."""

    def expire(signum, frame):
        raise TestTimeLimit(f"the test ran over {TEST_LIMIT_S} s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(TEST_LIMIT_S)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, old)


@pytest.fixture
def rng():
    return random.Random(20240817)
