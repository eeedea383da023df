"""The package builds every wave through the staircase engine.

The square-barrier closed forms live in ``tests/closed_forms.py``: only the
tests read them, and they share no matching algebra with the engine.  The
exact region flow that ``verify`` checks the engine against,
``oracle.propagate``, shares none either.
"""

import ast
import builtins
from pathlib import Path

import pytest

from sqgreen import errors

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "sqgreen"
MODULES = sorted(path.stem for path in SRC.glob("*.py"))
CLOSED_FORMS = {
    "CoefficientSet",
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


def _names(tree: ast.AST) -> set[str]:
    """Every imported, defined, referenced or attribute name under a node."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {alias.name.split(".")[-1] for alias in node.names}
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
    return names


def test_every_module_is_checked():
    assert {"kernel", "oracle", "piecewise", "verification", "eigenfunctions"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_no_closed_form_outside_the_oracle(module):
    used = _names(_tree(module))
    assert {n for n in used if n in CLOSED_FORMS or n.endswith("_expanded")} == set()


@pytest.mark.parametrize("module", ["kernel", "cli", "verification"])
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
    tree = ast.parse((ROOT / "tests" / "closed_forms.py").read_text())
    assert _imported_modules(tree) & {"piecewise", "kernel"} == set()
    assert _names(tree) & {"_sweep", "_amplitudes_at", "_chi_amplitudes"} == set()


def _defined(tree: ast.Module) -> set[str]:
    """The functions, classes and constants a module defines at its top level."""
    out = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out |= {t.id for t in targets if isinstance(t, ast.Name)}
    return out


def _engine_names() -> set[str]:
    """What piecewise and kernel define, and what oracle imports from them."""
    engine = _defined(_tree("piecewise")) | _defined(_tree("kernel"))
    for node in _tree("oracle").body:
        if isinstance(node, ast.ImportFrom) and node.module in ("piecewise", "kernel"):
            engine |= {alias.asname or alias.name for alias in node.names}
    assert engine & {"wave_pair", "_sweep", "build_chi"}
    return engine


def _oracle_function(name: str) -> ast.FunctionDef:
    (fn,) = [n for n in _tree("oracle").body if getattr(n, "name", None) == name]
    return fn


def test_propagate_does_not_use_the_engine():
    assert _names(_oracle_function("propagate")) & _engine_names() == set()


def test_flow_does_not_use_the_engine():
    assert _names(_oracle_function("_flow")) & _engine_names() == set()


@pytest.mark.parametrize("name", ["integrate_schrodinger", "_rk4", "_rk4_pass", "rk4_step_matrix"])
def test_rk4_does_not_use_the_engine(name):
    assert _names(_oracle_function(name)) & _engine_names() == set()


@pytest.mark.parametrize("module", ["cli", "verification"])
def test_the_rk4_step_rule_stays_in_the_oracle(module):
    # verify and its help text restated the oracle's lattice, reach and stability bounds
    rule = {
        "LATTICE", "on_lattice", "MAX_STEPS", "TAIL_START", "RK4_STABILITY",
        "RESOLVENT_TARGET", "COARSE_PHASE", "MIN_REGION_STEPS",
    }
    assert _names(_tree(module)) & rule == set()


def test_verify_builds_its_reference_without_the_engine_root():
    # a reference that took k from branch_sqrt shared a wrong branch with the engine,
    # so verify passed with every momentum root flipped; the oracle takes |k| as sqrt|E - v|
    for module in ("verification", "oracle"):
        assert _names(_tree(module)) & {"branch_sqrt", "_branch_sqrt_array"} == set(), module


def test_the_oracle_reads_the_engine_only_through_wave_pair_and_kernel_grid():
    # a wave, momentum or kernel of the oracle's own would be a second engine beside the one it checks
    tree = _tree("oracle")
    assert _imported_modules(tree) & {"eigenfunctions", "piecewise"} == set()
    from_kernel = {
        alias.name for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "kernel" for alias in node.names
    }
    assert from_kernel == {"kernel_grid", "wave_pair"}


def _is_exception_class(node: ast.expr | None) -> bool:
    """Whether ``node`` names an exception class of ``sqgreen.errors`` or the builtins."""
    name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
    cls = getattr(errors, name, None) or getattr(builtins, name, None) if name else None
    return isinstance(cls, type) and issubclass(cls, BaseException)


@pytest.mark.parametrize("module", MODULES)
def test_no_function_takes_an_exception_class(module):
    # each rule raises one class, stated in errors.py, so no caller picks it
    for fn in ast.walk(_tree(module)):
        if isinstance(fn, (ast.FunctionDef, ast.Lambda)):
            args = fn.args
            for default in args.defaults + [d for d in args.kw_defaults if d is not None]:
                assert not _is_exception_class(default), (module, getattr(fn, "name", "lambda"))
            for arg in args.posonlyargs + args.args + args.kwonlyargs:
                annotation = ast.unparse(arg.annotation) if arg.annotation else ""
                assert "Exception" not in annotation and "Error" not in annotation, (module, arg.arg)
        elif isinstance(fn, ast.Call) and getattr(fn.func, "id", None) not in ("isinstance", "issubclass"):
            passed = fn.args + [keyword.value for keyword in fn.keywords]
            assert not any(map(_is_exception_class, passed)), (module, ast.unparse(fn))
