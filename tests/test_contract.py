"""One contract table over ``sqgreen.__all__``.

Each row names an entry point, valid arguments for it and a kind for each
argument.  With the valid arguments the call returns a finite value.  Each
kind lists values that every entry point taking it refuses with one class
from :mod:`sqgreen.errors`, before any wave, RK4 step, pole function or
random draw; and for the numeric kinds a derandomized ``hypothesis`` search
over the numeric edges requires a typed error or a finite value, never a
bare exception, a warning or a NaN.  A robustness fix is a new row or a new
refused value here, not a new test.
"""

import cmath
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import sqgreen
import sqgreen.kernel as kernel_module
import sqgreen.oracle as oracle_module
import sqgreen.piecewise as piecewise_module
import sqgreen.verification as verification_module
from sqgreen import (
    ConfigError,
    ContractError,
    DomainError,
    LimitStudy,
    PiecewisePotential,
    PiecewiseWave,
    Region,
    ResidualReport,
    SquareBarrier,
    TestFunction,
    apply_hamiltonian_fd,
    boundary_limit,
    boundary_limits,
    branch_sqrt,
    build_chi,
    build_omega,
    check_distributional_equation,
    check_jump,
    check_resolvent_identity,
    chi_outer_amplitudes,
    errors,
    find_kernel_poles,
    formal_green,
    integrate_schrodinger,
    kernel_grid,
    kernel_pole_residual,
    outer_wronskian,
    propagate,
    region_momenta,
    resolvent_kernel,
    run_verification,
    wronskian,
)

nan, inf = math.nan, math.inf
P = SquareBarrier(5.0, 1.0, 2.0)
CHI, OM = build_chi(P, 1 + 1j), build_omega(P, 1 + 1j, "plus")
BUMP = TestFunction("gaussian_bump", 3.0, 0.5)
GRID = 2.2 + 1e-3 * np.arange(5)


def _refused(error, match, *values):
    return [(value, error, match) for value in values]


_WRONG_TYPES = (None, 1.0, "x", [1, 2])
_NOT_A_NUMBER = "must be a number"

#: kind -> (value, error class, message pattern) for each value that an entry point must refuse
REFUSED = {
    "potential": _refused(ContractError, "expected a PiecewisePotential", *_WRONG_TYPES, CHI),
    "wave": _refused(ContractError, "expected a PiecewiseWave", *_WRONG_TYPES, P),
    "bump": _refused(ContractError, "expected a TestFunction", *_WRONG_TYPES),
    "energy": _refused(DomainError, _NOT_A_NUMBER, "x", (1, 2), [1.5], 10**400),
    "off_axis_energy": _refused(DomainError, _NOT_A_NUMBER, "x", [1.5])
    + _refused(ContractError, r"requires Im E != 0", 1.0, 2, complex(1.0, -0.0)),
    "real_energy": _refused(DomainError, r"runs at real E > 0", 1 + 1j, 0.0, -1.0, nan, inf, "x", (1, 2)),
    "radius": _refused(DomainError, "radii must be real numbers", 0.5 + 2j, "x")
    + _refused(DomainError, "radii must be finite and nonnegative", -0.5, nan, inf)
    + _refused(DomainError, "each radius must be one number|radii must form a regular array", [0.5, 1.0]),
    "radii": _refused(DomainError, "radii must be real numbers", [1 + 1j], ["x"], 0.5 + 2j)
    + _refused(DomainError, "radii must form a regular array", [[0.5, 1.0], [2.0]])
    + _refused(DomainError, "radii must be finite and nonnegative", [-1.0], [nan], inf),
    "finite_radii": _refused(DomainError, "radii must be real numbers", [1 + 1j], "x")
    + _refused(DomainError, "radii must be finite", nan, [inf], -inf),
    "grid": _refused(DomainError, "radii must be real numbers", GRID + 1j, ["x"] * 5)
    + _refused(DomainError, "finite and strictly ascending", GRID[::-1], [2.2, 2.201, 2.201, 2.203, 2.204],
               [2.2, nan, 2.202, 2.203, 2.204], [2.2, 2.201, 2.202, 2.203, inf])
    + _refused(ContractError, "matching 1-d arrays", GRID[:4], GRID.reshape(1, 5)),
    "values": _refused(DomainError, "values u must", ["a"] * 5, [[1, 2], 3, 4, 5, 6])
    + _refused(ContractError, "matching 1-d arrays", np.zeros(4)),
    "state": _refused(DomainError, "the start state must be a number", "x", [1, 2], None),
    "positive": _refused(DomainError, "must be a finite real number above 0.0", 0.0, -1.0, nan, inf, "x", 1j),
    "real": _refused(DomainError, "must be a finite real number", nan, inf, -inf, "x", 1j, None),
    "branch_arg": _refused(DomainError, _NOT_A_NUMBER, "x", None)
    + _refused(DomainError, "finite argument", nan, complex(0, inf)),
    "scale": _refused(DomainError, "wronskian_scale must be", 0.0, nan, inf, -inf, "x", 1j),
    "mu0": _refused(DomainError, "mu0 must be", 0.0, -1e-3, 0.2, nan, "x", 1e-3j),
    "direction": _refused(ContractError, "direction must be", "up", ["plus"], 3),
    "directions": _refused(ContractError, "direction must be", None, ["up"], 3),
    "box": _refused(DomainError, "search box", (1, 0, 0, 1), (0, 1, 0, inf), (0, 1, 0), "x", [[0, 1], [0]]),
    "kind": _refused(ContractError, "kind must be", "triangle", None),
    "breakpoints": _refused(DomainError, "breakpoints must be a finite real number", ("x", 2.0), (nan, 2.0), (0.0, 2.0))
    + _refused(DomainError, "sequences of numbers", 1.0)
    + _refused(DomainError, "strictly ascending", (2.0, 1.0))
    + _refused(DomainError, "one more height", (1.0,)),
    "heights": _refused(DomainError, "heights must be a finite real number", ("x", 5, 0), (0, 1j, 0), (0, inf, 0))
    + _refused(DomainError, "outermost height", (0, 5, 1))
    + _refused(DomainError, "one more height", (0, 0)),
    "seed": _refused(ConfigError, "seed", -1, 1.5, "x"),
    "n_random": _refused(ConfigError, "n_random", -3, 10**4 + 1, 2.5),
    "any": [],
}
REFUSED["probe"] = REFUSED["radius"] + _refused(DomainError, "within 1e-3", 1.0 + 1e-4, 1e-4)

#: entry point (or method, after a dot) -> (callable, valid arguments, the kind of each)
ROWS = {
    "PiecewisePotential": (PiecewisePotential, ((1.0, 2.0), (0.0, 5.0, 0.0)), ("breakpoints", "heights")),
    "PiecewisePotential.value_at": (P.value_at, (1.5,), ("radius",)),
    "SquareBarrier": (SquareBarrier, (5.0, 1.0, 2.0), ("real", "positive", "positive")),
    "branch_sqrt": (branch_sqrt, (1 + 1j,), ("branch_arg",)),
    "region_momenta": (region_momenta, (P, 1 + 1j), ("potential", "energy")),
    "PiecewiseWave": (PiecewiseWave, (CHI.regions, CHI.breakpoints, CHI.heights, CHI.energy), ("any",) * 4),
    "PiecewiseWave.value": (CHI.value, ([0.5, 1.5],), ("radii",)),
    "PiecewiseWave.value_and_derivative": (CHI.value_and_derivative, (1.5,), ("radii",)),
    "PiecewiseWave.one_sided": (CHI.one_sided, ([1.0, 2.0],), ("radii",)),
    "Region": (Region, (1 + 0j, "exp", 1 + 0j), ("any",) * 3),
    "wronskian": (wronskian, (CHI, OM, 1.5), ("wave", "wave", "radii")),
    "build_chi": (build_chi, (P, 1 + 1j), ("potential", "energy")),
    "build_omega": (build_omega, (P, 1 + 1j, "plus"), ("potential", "energy", "direction")),
    "chi_outer_amplitudes": (chi_outer_amplitudes, (P, 1 + 1j), ("potential", "energy")),
    "outer_wronskian": (outer_wronskian, (CHI, OM), ("wave", "wave")),
    "LimitStudy": (LimitStudy, ((1e-3,), (1 + 1j,), 1 + 1j, True), ("any",) * 4),
    "boundary_limit": (
        boundary_limit, (P, 1.0, 0.5, 1.5, "plus", 0.05),
        ("potential", "real_energy", "radius", "radius", "direction", "mu0"),
    ),
    "boundary_limits": (
        boundary_limits, (P, 1.0, 0.5, 1.5, ("plus", "minus"), 0.05),
        ("potential", "real_energy", "radius", "radius", "directions", "mu0"),
    ),
    "boundary_limits none": (
        boundary_limits, (P, 1.0, 0.5, 1.5, [], 0.05), ("potential", "real_energy", "radius", "radius", "any", "mu0"),
    ),
    "find_kernel_poles": (find_kernel_poles, (P, (3.0, 6.0, -1.0, -0.01), 0.25), ("potential", "box", "positive")),
    "formal_green": (formal_green, (P, 1.0, 0.5, 1.5, "plus"), ("potential", "real_energy", "radius", "radius", "direction")),
    "kernel_grid": (kernel_grid, (P, 1 + 1j, [0.5, 1.0], [1.5]), ("potential", "off_axis_energy", "radii", "radii")),
    "kernel_grid formal": (
        kernel_grid, (P, 1.0, [0.5], [1.5, 2.5], "minus"),
        ("potential", "real_energy", "radii", "radii", "direction"),
    ),
    "kernel_pole_residual": (kernel_pole_residual, (P, 4.2 - 0.25j), ("potential", "energy")),
    "resolvent_kernel": (resolvent_kernel, (P, 1 + 1j, 0.5, 1.5), ("potential", "off_axis_energy", "radius", "radius")),
    "ResidualReport": (ResidualReport, ("check", 1, 0.5, 1.0, True), ("any",) * 5),
    "TestFunction": (TestFunction, ("gaussian_bump", 3.0, 0.5), ("kind", "real", "positive")),
    "TestFunction.__call__": (BUMP, ([2.5, 3.0],), ("finite_radii",)),
    "apply_hamiltonian_fd": (apply_hamiltonian_fd, (GRID, np.ones(5), P), ("grid", "values", "potential")),
    "check_distributional_equation": (
        check_distributional_equation, (P, 1.0, 1.5, "plus", 1.0),
        ("potential", "real_energy", "probe", "direction", "scale"),
    ),
    "check_jump": (check_jump, (P, 1.0, 1.5, "plus", 1.0), ("potential", "real_energy", "probe", "direction", "scale")),
    "check_resolvent_identity": (
        check_resolvent_identity, (P, 1 + 1j, BUMP, 1e-5), ("potential", "off_axis_energy", "bump", "positive"),
    ),
    "integrate_schrodinger": (
        integrate_schrodinger, (P, 1 + 1j, 0, 1, 0.0, 1.0, 1e-3),
        ("potential", "energy", "state", "state", "radius", "radius", "positive"),
    ),
    "propagate": (propagate, (P, 1 + 1j, 0, 1, 0.0, 1.0), ("potential", "energy", "state", "state", "radius", "radius")),
    "run_verification": (
        run_verification, (P, 1.0, 0, 0, 1.0), ("potential", "real_energy", "seed", "n_random", "scale"),
    ),
}

#: the rows whose calls take long enough at drawn values that only their refusals run
SLOW = {"check_distributional_equation", "check_resolvent_identity", "find_kernel_poles", "run_verification"}

#: where work starts: a wave matched, a limit sweep, a pole function, an RK4 step or a random draw
_WORK = [
    (piecewise_module, "_chi_regions"),
    (piecewise_module, "_omega_regions"),
    (piecewise_module, "_chi_outer"),
    (kernel_module, "_engine_sweep"),
    (kernel_module, "pole_function_array"),
    (oracle_module, "rk4_step_matrix"),
    (verification_module, "Random"),
]

_ERRORS = tuple(
    cls for cls in vars(errors).values() if isinstance(cls, type) and issubclass(cls, Exception)
)


def _finite(x) -> bool:
    """Whether every number in ``x`` (a number, array, sequence, mapping or record) is finite."""
    if x is None or isinstance(x, (str, bool, np.bool_)):
        return True
    if isinstance(x, (int, float, complex, np.number)):
        return cmath.isfinite(x)
    if isinstance(x, np.ndarray):
        return x.dtype.kind == "b" or bool(np.isfinite(x).all())
    if isinstance(x, dict):
        return all(map(_finite, x.values()))
    if isinstance(x, (list, tuple)):
        return all(map(_finite, x))
    if dataclasses.is_dataclass(x):
        return all(_finite(getattr(x, f.name)) for f in dataclasses.fields(x))
    raise TypeError(f"no finiteness rule for {type(x).__name__}")


def _call(name: str, position: int | None = None, value=None):
    fn, args, _ = ROWS[name]
    if position is not None:
        args = args[:position] + (value,) + args[position + 1:]
    return fn(*args)


def test_every_entry_point_has_a_row():
    entry_points = {name for name in sqgreen.__all__ if getattr(sqgreen, name) not in _ERRORS}
    assert entry_points - {row.split()[0].split(".")[0] for row in ROWS} == set()
    assert all(len(args) == len(kinds) for _, args, kinds in ROWS.values())


@pytest.mark.parametrize("name", sorted(set(sqgreen.__all__) - {row.split()[0] for row in ROWS}))
def test_errors_are_value_or_arithmetic_errors(name):
    # the names without a row are the error classes: the outcomes of the contract, not entry points
    assert getattr(sqgreen, name) in _ERRORS
    assert issubclass(getattr(sqgreen, name), (ValueError, ArithmeticError))


@pytest.mark.parametrize("name", sorted(ROWS))
def test_valid_arguments_give_a_finite_value(name):
    assert _finite(_call(name))


_REFUSALS = [
    pytest.param(name, position, id=f"{name}-{position}-{kind}")
    for name, (_, _, kinds) in ROWS.items()
    for position, kind in enumerate(kinds)
    if REFUSED[kind]
]


@pytest.mark.parametrize("name, position", _REFUSALS)
def test_refused_before_any_work(monkeypatch, name, position):
    def work(*args, **kwargs):
        raise AssertionError("work started before the arguments were read")

    for module, attr in _WORK:
        monkeypatch.setattr(module, attr, work)
    for value, error, match in REFUSED[ROWS[name][2][position]]:
        with pytest.raises(error, match=match):
            _call(name, position, value)


_EDGES = [0.0, -0.0, 5.0, 1e-300, 5e-324, -1e-3, 1e300, -1e300, 1.7976931348623157e308, nan, inf, -inf]
_REALS = st.one_of(st.sampled_from(_EDGES), st.floats(allow_nan=True, allow_infinity=True))
_COMPLEX = st.one_of(
    st.builds(complex, _REALS, _REALS),
    st.sampled_from([0j, 5 + 0j, 5 + 1e-13j, complex(-1.0, -0.0), complex(1.0, 1e-300)]),
)
#: the numeric kinds, each with the values it draws
DRAWN = {
    "energy": _COMPLEX,
    "off_axis_energy": _COMPLEX,
    "branch_arg": _COMPLEX,
    "state": _COMPLEX,
    "real_energy": _REALS,
    "radius": _REALS,
    "probe": _REALS,
    "radii": st.lists(_REALS, max_size=3),
    "finite_radii": st.lists(_REALS, max_size=3),
    "positive": _REALS,
    "real": _REALS,
    "scale": _REALS,
    "mu0": _REALS,
}

_DRAWS = [
    pytest.param(name, position, id=f"{name}-{position}-{kind}")
    for name, (_, _, kinds) in ROWS.items()
    if name not in SLOW
    for position, kind in enumerate(kinds)
    if kind in DRAWN
]


@pytest.mark.parametrize("name, position", _DRAWS)
@settings(derandomize=True, database=None, max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_numeric_edges_give_a_typed_error_or_a_finite_value(name, position, data):
    value = data.draw(DRAWN[ROWS[name][2][position]])
    try:
        result = _call(name, position, value)
    except _ERRORS:
        return
    assert _finite(result), (name, value, result)
