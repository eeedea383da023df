import functools
import importlib
import pkgutil

import numpy as np
import pytest

import sqgreen
from sqgreen import PiecewisePotential, SquareBarrier

_LRU_CACHE = type(functools.lru_cache()(lambda: None))


def _package_memos() -> tuple:
    """Every ``functools.lru_cache`` object bound at the top level of a ``sqgreen`` module, once each."""
    modules = [importlib.import_module(f"sqgreen.{m.name}") for m in pkgutil.iter_modules(sqgreen.__path__)]
    found = {id(obj): obj for mod in modules for obj in vars(mod).values() if isinstance(obj, _LRU_CACHE)}
    return tuple(found.values())


#: the package's memos, taken at import, before any test can rebind the names they sit under
_MEMOS = _package_memos()


@pytest.fixture(autouse=True)
def _cold_memos():
    """Start every test with empty memos.

    A test that monkeypatches the engine beneath a memo must see the engine
    run, not waves that an earlier test built.
    """
    for memo in _MEMOS:
        memo.cache_clear()


def close(x, y, rtol=0.0, atol=0.0):
    """|x - y| <= atol + rtol * |y|, for scalars or arrays."""
    return np.all(np.abs(np.asarray(x) - np.asarray(y)) <= atol + rtol * np.abs(np.asarray(y)))


def rel_err(x, y):
    y = np.asarray(y)
    return float(np.max(np.abs(np.asarray(x) - y) / np.maximum(np.abs(y), 1e-300)))


@pytest.fixture
def barrier():
    return SquareBarrier(5.0, 1.0, 2.0)


@pytest.fixture
def free():
    return SquareBarrier(0.0, 1.0, 2.0)


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)


def random_instances(rng, n, lattice=None):
    """(barrier, energy) draws covering wells and barriers, away from branch points.

    With ``lattice`` set, a, b land on multiples of it (breakpoint-aligned
    grids for the ODE oracle).
    """
    out = []
    while len(out) < n:
        v0 = float(rng.uniform(-5.0, 10.0))
        a = float(rng.uniform(0.2, 3.0))
        b = float(a + rng.uniform(0.3, 2.0))
        if lattice is not None:
            a = max(lattice, round(a / lattice) * lattice)
            b = max(a + lattice, round(b / lattice) * lattice)
        e = float(rng.uniform(0.1, max(0.2, 2.0 * v0 + 5.0)))
        if abs(e - v0) < 0.05 or abs(e) < 0.05:
            continue
        out.append((SquareBarrier(v0, a, b), e))
    return out


def random_staircase(rng, n_steps):
    """A staircase of ``n_steps`` breakpoints in (0.3, 6), 0.2 apart or more; heights in (-6, 8)."""
    bps = np.sort(rng.uniform(0.3, 6.0, size=n_steps))
    while np.any(np.diff(bps) < 0.2):
        bps = np.sort(rng.uniform(0.3, 6.0, size=n_steps))
    heights = list(rng.uniform(-6.0, 8.0, size=n_steps)) + [0.0]
    return PiecewisePotential(tuple(bps), tuple(heights))
