"""Shared fixtures: the bundled figures and a reproducible random trellis set.

The random set is size-filtered so that the brute-force path enumeration
oracles stay cheap; the filters use library dimension counts only to size
the instances, never to decide an expected value.  Every Hypothesis test
runs derandomized, so each run draws the same examples and keeps no
example database.
"""

from __future__ import annotations

import importlib.util
import random
import sys
from pathlib import Path

import pytest
from hypothesis import settings, strategies as st

from trellislab import reduction
from trellislab.galois import FieldSpec, Subspace
from trellislab.trellis import Trellis, dualize
from trellislab.trellis import Span
from trellislab.corpus import build_corpus

import oracles

settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


def random_subspace(rng: random.Random, field: FieldSpec, n: int, dim: int | None = None) -> Subspace:
    if dim is None:
        dim = rng.randint(0, n)
    rows = [[rng.randrange(field.p) for _ in range(n)] for _ in range(dim)]
    return Subspace.span(field, n, rows)


def random_trellis(rng: random.Random, p: int) -> Trellis:
    field = FieldSpec(p)
    m = rng.randint(1, 5)
    sdims = tuple(rng.randint(0, 2) for _ in range(m))
    adims = tuple(rng.choice((0, 1, 1, 1, 2)) for _ in range(m))
    constraints = []
    for i in range(m):
        amb = sdims[i] + adims[i] + sdims[(i + 1) % m]
        target = rng.randint(0, amb)
        constraints.append(random_subspace(rng, field, amb, target))
    return Trellis(field, m, adims, sdims, tuple(constraints))


def _small_enough(t: Trellis) -> bool:
    cap = 9 if t.field.p == 2 else 6
    if oracles.kernel_fragment(t, Span(0, t.m, t.m))[1].dim > cap:
        return False
    td = dualize(t)
    if oracles.kernel_fragment(td, Span(0, t.m, t.m))[1].dim > cap:
        return False
    return True


def make_random_set(count: int = 200, seed: int = 20130) -> list[Trellis]:
    rng = random.Random(seed)
    out: list[Trellis] = []
    toggle = 0
    while len(out) < count:
        p = 2 if toggle % 2 == 0 else 3
        toggle += 1
        t = random_trellis(rng, p)
        if _small_enough(t):
            out.append(t)
    return out


@st.composite
def trellises(draw) -> Trellis:
    """Any trellis of the sizes below, for Hypothesis: each constraint is the
    span of drawn rows, so it need not be trim or proper."""
    field = FieldSpec(draw(st.sampled_from((2, 3, 5, 7))))
    m = draw(st.integers(1, 8))
    states = draw(st.lists(st.integers(0, 3), min_size=m, max_size=m))
    symbols = draw(st.lists(st.integers(0, 2), min_size=m, max_size=m))
    constraints = []
    for i in range(m):
        n = states[i] + symbols[i] + states[(i + 1) % m]
        row = st.lists(st.integers(0, field.p - 1), min_size=n, max_size=n)
        constraints.append(Subspace.span(field, n, draw(st.lists(row, max_size=n))))
    return Trellis(field, m, tuple(symbols), tuple(states), tuple(constraints))


@pytest.fixture(scope="session")
def figures() -> dict[str, Trellis]:
    return build_corpus().trellises


@pytest.fixture(scope="session")
def random_set() -> list[Trellis]:
    return make_random_set()


@pytest.fixture(scope="session")
def rng() -> random.Random:
    return random.Random(4261)


@pytest.fixture
def built_steps(monkeypatch) -> list:
    """Every ReductionStep built while the test runs, in order: the one
    step constructor, `reduction._make_step`, wrapped to record its results."""
    steps = []
    make = reduction._make_step

    def recording(*args, **kwargs):
        steps.append(make(*args, **kwargs))
        return steps[-1]

    monkeypatch.setattr(reduction, "_make_step", recording)
    return steps


@pytest.fixture(scope="session")
def bench_inputs():
    """`bench/inputs.py`, loaded read-only, to rebuild the benchmark draws."""
    path = Path(__file__).resolve().parents[1] / "bench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("bench_inputs", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module
