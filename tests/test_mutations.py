"""Faults that ``verify`` must reject: one row per mutant.

Each row patches a fault into every module that binds the function it
breaks, as a bug in that function's source would, or hands
:func:`~sqgreen.verification.run_verification` a corrupting argument, and
runs it on three cases.  The row names the checks that fail, and no other
check may.  The unmutated engine is the control row, on which every check
passes.  A new ``verify`` check earns its place by failing a mutant that no
other check fails.
"""

import dataclasses
import sys

import pytest

from sqgreen import PiecewisePotential, SquareBarrier, run_verification
from sqgreen.kernel import _limit_walk, wave_pair
from sqgreen.model import _branch_sqrt_array, branch_sqrt, region_momenta, region_momenta_array
from sqgreen.piecewise import _omega_regions

CASES = {
    "barrier": (SquareBarrier(5.0, 1.0, 2.0), 3.0),
    "staircase": (PiecewisePotential((0.5, 1.2, 2.0), (3.0, -2.0, 5.0, 0.0)), 7.3),
    "well": (SquareBarrier(-5.0, 1.0, 2.0), 1.0),
}


def _patch_everywhere(monkeypatch, replacements: dict) -> None:
    """Rebind each original function to its replacement in every ``sqgreen`` module."""
    modules = [m for name, m in sys.modules.items() if name == "sqgreen" or name.startswith("sqgreen.")]
    patched = set()
    for module in modules:
        for attr, obj in list(vars(module).items()):
            for original, replacement in replacements.items():
                if obj is original:
                    monkeypatch.setattr(module, attr, replacement)
                    patched.add(original)
    assert patched == set(replacements)


def _flip_root(monkeypatch) -> None:
    """The momentum root on the wrong sheet: -k for every k of the engine."""
    _patch_everywhere(monkeypatch, {
        branch_sqrt: lambda z: -branch_sqrt(z),
        _branch_sqrt_array: lambda z: -_branch_sqrt_array(z),
    })


def _scale_inner_momentum(monkeypatch) -> None:
    """A wrong wave: the momentum of region 1, the second from the origin, times 1.001."""
    def scaled(ks):
        return [1.001 * k if j == 1 else k for j, k in enumerate(ks)]

    _patch_everywhere(monkeypatch, {
        region_momenta: lambda p, e: tuple(scaled(region_momenta(p, e))),
        region_momenta_array: lambda p, e: scaled(region_momenta_array(p, e)),
    })


def _swap_directions(monkeypatch) -> None:
    """The outgoing and incoming waves swapped: omega_minus where omega_plus is asked for, and back."""
    swap = {"plus": "minus", "minus": "plus"}
    _patch_everywhere(monkeypatch, {wave_pair: lambda p, e, direction: wave_pair(p, e, swap[direction])})


def _flip_tail_momentum(monkeypatch) -> None:
    """The momentum of the outermost region, where V = 0, on the wrong sheet: -k there alone."""
    def flipped(ks):
        return [*ks[:-1], -ks[-1]]

    _patch_everywhere(monkeypatch, {
        region_momenta: lambda p, e: tuple(flipped(region_momenta(p, e))),
        region_momenta_array: lambda p, e: flipped(region_momenta_array(p, e)),
    })


def _scale_omega_amplitude(monkeypatch) -> None:
    """A wrong tail solution: omega's c_plus in region 1, the second from the origin, times 1 + 1e-7."""
    def scaled(*args):
        regions = _omega_regions(*args)
        regions[1] = dataclasses.replace(regions[1], c_plus=regions[1].c_plus * (1.0 + 1e-7))
        return regions

    _patch_everywhere(monkeypatch, {_omega_regions: scaled})


def _cap_limit_walk(monkeypatch) -> None:
    """The limit walk stopped after 2 halvings of mu: its first three samples, not converged."""
    def capped(*args):
        mus, samples, _ = _limit_walk(*args)
        return mus[:3], samples[:3], False

    _patch_everywhere(monkeypatch, {_limit_walk: capped})


#: mutant -> (the patch, or None, the keyword arguments of the run, and the checks that must
#: fail, as one set or as a set per case)
MUTANTS = {
    "control": (None, {}, set()),
    "root_flip": (_flip_root, {}, {"wronskian", "engine_equivalence", "randomized_instances"}),
    "inner_momentum": (_scale_inner_momentum, {}, {
        "engine_equivalence", "offdiagonal_radial_equation_plus", "offdiagonal_radial_equation_minus",
        "randomized_instances", "resolvent_identity", "wronskian",
    }),
    "corrupt_wronskian": (None, {"wronskian_scale": 1.001}, {"derivative_jump_plus", "derivative_jump_minus"}),
    "swapped_directions": (_swap_directions, {}, {
        "wronskian", "engine_equivalence", "limit_equivalence", "randomized_instances",
    }),
    "tail_momentum": (_flip_tail_momentum, {}, {"wronskian", "engine_equivalence", "randomized_instances"}),
    "capped_limit_walk": (_cap_limit_walk, {}, {"limit_equivalence"}),
    "omega_amplitude": (_scale_omega_amplitude, {}, {
        "barrier": {
            "continuity", "engine_equivalence", "interface_continuity_minus", "interface_continuity_plus",
            "offdiagonal_radial_equation_minus", "offdiagonal_radial_equation_plus",
            "randomized_instances", "wronskian",
        },
        "staircase": {"continuity", "engine_equivalence", "randomized_instances", "wronskian"},
        "well": {
            "continuity", "engine_equivalence", "interface_continuity_minus", "interface_continuity_plus",
            "randomized_instances", "wronskian",
        },
    }),
}


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_verify_rejects_each_mutant(monkeypatch, mutant, case):
    patch, kwargs, must_fail = MUTANTS[mutant]
    if isinstance(must_fail, dict):
        must_fail = must_fail[case]
    if patch is not None:
        patch(monkeypatch)
    report = run_verification(*CASES[case], **kwargs)
    assert {check["name"] for check in report["checks"] if not check["pass"]} == must_fail
    assert report["pass"] == (not must_fail)
