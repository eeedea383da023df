"""The production modules build every wave through the staircase engine.

The square-barrier closed forms in ``sqgreen.eigenfunctions`` are an oracle:
only the tests and ``sqgreen.verification`` may use them, and they share no
matching algebra with the engine.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "sqgreen"
CLOSED_FORMS = {
    "chi_coefficients",
    "omega_plus_coefficients",
    "omega_minus_coefficients",
    "chi_wave",
    "omega_wave",
    "wronskian_closed_form",
    "kernel_closed_form",
}


def _tree(module: str) -> ast.Module:
    return ast.parse((SRC / f"{module}.py").read_text())


def _names(tree: ast.Module) -> set[str]:
    """Every imported, referenced or attribute name in a module."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {alias.name.split(".")[-1] for alias in node.names}
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Name):
            names.add(node.id)
    return names


@pytest.mark.parametrize("module", ["kernel", "cli", "piecewise", "oracle"])
def test_no_closed_form_outside_the_oracle(module):
    used = _names(_tree(module))
    assert {n for n in used if n in CLOSED_FORMS or n.endswith("_expanded")} == set()


@pytest.mark.parametrize("module", ["kernel", "cli"])
def test_kernel_does_not_switch_on_the_potential_type(module):
    assert "isinstance" not in _names(_tree(module))


def _imported_modules(tree: ast.Module) -> set[str]:
    """The last component of every module a module imports from."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            out.add(node.module.split(".")[-1])
        elif isinstance(node, ast.Import):
            out |= {alias.name.split(".")[-1] for alias in node.names}
    return out


def test_closed_forms_do_not_use_the_engine():
    # the oracle may share model (branch_sqrt, region_momenta), not the matching
    tree = _tree("eigenfunctions")
    assert _imported_modules(tree) & {"piecewise", "kernel"} == set()
    assert _names(tree) & {"_sweep", "_amplitudes_at", "_chi_amplitudes"} == set()
