"""Faults that ``verify`` must reject: one row per mutant.

Each row patches a fault into every module that binds the function it
breaks, as a bug in that function's source would, and runs
:func:`~sqgreen.verification.run_verification` on three cases.  The row
names the checks that fail, and no other check may.  The unmutated engine
is the control row, on which every check passes.  A new ``verify`` check
earns its place by failing a mutant that no other check fails.
"""

import sys

import pytest

import sqgreen
from sqgreen import PiecewisePotential, SquareBarrier, run_verification
from sqgreen.model import _branch_sqrt_array, branch_sqrt

CASES = {
    "barrier": (SquareBarrier(5.0, 1.0, 2.0), 3.0),
    "staircase": (PiecewisePotential((0.5, 1.2, 2.0), (3.0, -2.0, 5.0, 0.0)), 7.3),
    "well": (SquareBarrier(-5.0, 1.0, 2.0), 1.0),
}


def _patch_everywhere(monkeypatch, replacements: dict) -> None:
    """Rebind each original function to its replacement in every ``sqgreen`` module."""
    modules = [m for name, m in sys.modules.items() if name == "sqgreen" or name.startswith("sqgreen.")]
    for module in modules:
        for attr, obj in list(vars(module).items()):
            for original, replacement in replacements.items():
                if obj is original:
                    monkeypatch.setattr(module, attr, replacement)


def _flip_root(monkeypatch) -> None:
    """The momentum root on the wrong sheet: -k for every k of the engine."""
    _patch_everywhere(monkeypatch, {
        branch_sqrt: lambda z: -branch_sqrt(z),
        _branch_sqrt_array: lambda z: -_branch_sqrt_array(z),
    })


#: mutant -> (the patch, or None for the control, and the checks that must fail)
MUTANTS = {
    "control": (None, set()),
    "root_flip": (_flip_root, {"wronskian", "engine_equivalence", "randomized_instances"}),
}


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_verify_rejects_each_mutant(monkeypatch, mutant, case):
    patch, must_fail = MUTANTS[mutant]
    if patch is not None:
        patch(monkeypatch)
        assert sqgreen.model.branch_sqrt is not branch_sqrt
    report = run_verification(*CASES[case])
    assert {check["name"] for check in report["checks"] if not check["pass"]} == must_fail
    assert report["pass"] == (not must_fail)
