"""Per-layer tracing of ``sqgreen`` from outside the package.

The tracer wraps each listed public function by rebinding its name in every
``sqgreen.*`` module namespace that holds it, and ``PiecewiseWave.value`` on
its class.  Each call records a span (name, start, end, parent) in flat
arrays kept in memory; self times and counts are computed once the traced
commands are done.  Counts that are not spans (halvings, RK4 steps, grid
points, Newton seeds) are read from arguments and return values.

A function that no longer exists is reported as absent, and its metrics as
zero, so that deleting a layer does not break the benchmark.
"""

from __future__ import annotations

import importlib
import inspect
import math
import sys
import time
from array import array
from collections import Counter

import numpy as np

#: (module, attribute, span name) of every traced function; the span name is
#: also the prefix of its metrics, except for the cli spans.
TARGETS = (
    ("sqgreen.cli", "main", "cli.main"),
    ("sqgreen.cli", "cmd_eval", "cli.cmd_eval"),
    ("sqgreen.cli", "cmd_limit_study", "cli.cmd_limit_study"),
    ("sqgreen.cli", "cmd_verify", "cli.cmd_verify"),
    ("sqgreen.cli", "cmd_pole_scan", "cli.cmd_pole_scan"),
    ("sqgreen.model", "branch_sqrt", "model.branch_sqrt"),
    ("sqgreen.eigenfunctions", "chi_coefficients", "eigenfunctions.chi_coefficients"),
    ("sqgreen.eigenfunctions", "chi_wave", "eigenfunctions.chi_wave"),
    ("sqgreen.eigenfunctions", "omega_wave", "eigenfunctions.omega_wave"),
    ("sqgreen.eigenfunctions", "wronskian_closed_form", "eigenfunctions.wronskian_closed_form"),
    ("sqgreen.eigenfunctions", "PiecewiseWave.value", "eigenfunctions.PiecewiseWave.value"),
    ("sqgreen.piecewise", "build_chi", "piecewise.build_chi"),
    ("sqgreen.piecewise", "build_omega", "piecewise.build_omega"),
    ("sqgreen.piecewise", "outer_wronskian", "piecewise.outer_wronskian"),
    ("sqgreen.kernel", "resolvent_kernel", "kernel.resolvent_kernel"),
    ("sqgreen.kernel", "formal_green", "kernel.formal_green"),
    ("sqgreen.kernel", "wave_pair", "kernel.wave_pair"),
    ("sqgreen.kernel", "boundary_limit", "kernel.boundary_limit"),
    ("sqgreen.kernel", "find_kernel_poles", "kernel.find_kernel_poles"),
    ("sqgreen.oracle", "integrate_schrodinger", "oracle.integrate_schrodinger"),
    ("sqgreen.oracle", "apply_hamiltonian_fd", "oracle.apply_hamiltonian_fd"),
    ("sqgreen.oracle", "check_jump", "oracle.check_jump"),
    ("sqgreen.oracle", "check_resolvent_identity", "oracle.check_resolvent_identity"),
    ("sqgreen.oracle", "check_distributional_equation", "oracle.check_distributional_equation"),
    ("sqgreen.verification", "run_verification", "verification.run_verification"),
)

#: Extra counts per traced function, beyond calls and self time.
EXTRA_COUNTS = {
    "eigenfunctions.chi_coefficients": ("errors",),
    "eigenfunctions.PiecewiseWave.value": ("points",),
    "kernel.wave_pair": ("distinct",),
    "kernel.boundary_limit": ("halvings_mean", "halvings_max", "nonconverged"),
    "kernel.find_kernel_poles": ("seeds", "denominator_evals", "roots", "accept_ratio"),
    "oracle.integrate_schrodinger": ("steps",),
    "oracle.apply_hamiltonian_fd": ("points",),
    "verification.run_verification": ("checks", "checks_failed"),
}

#: Functions whose call count and self time are reported as metrics.
TIMED = tuple(span for _, _, span in TARGETS if not span.startswith("cli."))

CLI_METRICS = {
    "cli.commands": "count",
    "cli.parse_s": "s",
    "cli.self_s": "s",
    "cli.rows_out": "count",
    "cli.bytes_out": "bytes",
}


def metric_units() -> dict[str, str]:
    """Name -> unit of every per-layer metric the traced run reports."""
    units = dict(CLI_METRICS)
    for prefix in TIMED:
        units[f"{prefix}.calls"] = "count"
        units[f"{prefix}.self_s"] = "s"
        for extra in EXTRA_COUNTS.get(prefix, ()):
            units[f"{prefix}.{extra}"] = "ratio" if extra == "accept_ratio" else "count"
    units["kernel.samples_per_wave_pair"] = "ratio"
    units["trace.wall_s"] = "s"
    units["trace.overhead_s"] = "s"
    return units


def _bound_arg(fn, args, kwargs, name):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments[name]


class Tracer:
    """Spans and counts of one traced command list."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counts: Counter = Counter()
        self.halvings: list[int] = []
        self.wave_keys: set = set()
        self.absent: list[str] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        for module_name, attr, span in TARGETS:
            label = f"{module_name}.{attr}"
            try:
                owner = importlib.import_module(module_name)
                if "." in attr:
                    cls_name, attr = attr.split(".")
                    owner = getattr(owner, cls_name)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(label)
                continue
            wrapper = self._wrap(span, original, getattr(self, f"_on_{attr}", None))
            if isinstance(owner, type):
                self._rebind(owner, attr, wrapper)
                continue
            for module in _sqgreen_modules():
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._rebind(module, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def _rebind(self, owner, key, wrapper) -> None:
        self._restore.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapper)

    def _wrap(self, name: str, fn, hook):
        nid = len(self.names)
        self.names.append(name)
        name_id, parent, start, end, stack = (
            self.name_id, self.parent, self.start, self.end, self.stack
        )
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            t0 = clock()
            start.append(t0)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                end[idx] = clock()
                stack.pop()
                if hook is not None:
                    hook(fn, args, kwargs, None, exc)
                raise
            end[idx] = clock()
            stack.pop()
            if hook is not None:
                hook(fn, args, kwargs, result, None)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- counts from arguments and return values ------------------------------

    def _on_chi_coefficients(self, fn, args, kwargs, result, exc):
        if exc is not None:
            self.counts["eigenfunctions.chi_coefficients.errors"] += 1

    def _on_value(self, fn, args, kwargs, result, exc):
        r = args[1] if len(args) > 1 else kwargs["r"]
        self.counts["eigenfunctions.PiecewiseWave.value.points"] += int(np.size(r))

    def _on_wave_pair(self, fn, args, kwargs, result, exc):
        self.wave_keys.add((args[0], complex(args[1]), args[2]))

    def _on_boundary_limit(self, fn, args, kwargs, result, exc):
        study = result if exc is None else getattr(exc, "partial", None)
        if exc is not None:
            self.counts["kernel.boundary_limit.nonconverged"] += 1
        if study is not None:
            self.halvings.append(study.halvings)

    def _on_find_kernel_poles(self, fn, args, kwargs, result, exc):
        re_min, re_max, im_min, im_max = (float(x) for x in _bound_arg(fn, args, kwargs, "box"))
        density = float(_bound_arg(fn, args, kwargs, "seed_density"))
        n_re = int(math.floor((re_max - re_min) / density)) + 1
        n_im = int(math.floor((im_max - im_min) / density)) + 1
        self.counts["kernel.find_kernel_poles.seeds"] += n_re * n_im
        if result is not None:
            self.counts["kernel.find_kernel_poles.roots"] += len(result)

    def _on_integrate_schrodinger(self, fn, args, kwargs, result, exc):
        if result is not None:
            self.counts["oracle.integrate_schrodinger.steps"] += len(result.r) - 1

    def _on_apply_hamiltonian_fd(self, fn, args, kwargs, result, exc):
        r = args[0] if args else kwargs["r"]
        self.counts["oracle.apply_hamiltonian_fd.points"] += int(np.size(r))

    def _on_run_verification(self, fn, args, kwargs, result, exc):
        if result is not None:
            checks = result["checks"]
            self.counts["verification.run_verification.checks"] += len(checks)
            self.counts["verification.run_verification.checks_failed"] += sum(
                not c["pass"] for c in checks
            )

    # -- aggregation -----------------------------------------------------------

    def self_times(self) -> tuple[dict[str, float], dict[str, int]]:
        """Total self time and call count per span name."""
        nid = np.frombuffer(self.name_id, dtype=np.int32)
        par = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        has_parent = par >= 0
        covered = np.bincount(par[has_parent], weights=dur[has_parent], minlength=dur.size)
        own = np.bincount(nid, weights=dur - covered, minlength=len(self.names))
        calls = np.bincount(nid, minlength=len(self.names))
        return (dict(zip(self.names, own.tolist())), dict(zip(self.names, calls.tolist())))

    def _calls_inside(self, inner: str, outer: str) -> int:
        """Spans named ``inner`` that start inside a span named ``outer``.

        The program is single-threaded, so lying inside a span's interval
        means being called, directly or not, from it."""
        if inner not in self.names or outer not in self.names:
            return 0
        nid = np.frombuffer(self.name_id, dtype=np.int32)
        start = np.frombuffer(self.start, dtype=float)
        end = np.frombuffer(self.end, dtype=float)
        outer_mask = nid == self.names.index(outer)
        if not outer_mask.any():
            return 0
        lo, hi = start[outer_mask], end[outer_mask]
        t = start[nid == self.names.index(inner)]
        slot = np.searchsorted(lo, t, side="right") - 1
        inside = (slot >= 0) & (t < hi[np.maximum(slot, 0)])
        return int(np.count_nonzero(inside))

    def metrics(self, wall_s: float) -> dict[str, float]:
        """Every per-layer metric except ``trace.overhead_s``."""
        self_s, calls = self.self_times()
        out: dict[str, float] = {name: 0 for name in metric_units()}
        cmd_names = [n for n in self_s if n.startswith("cli.cmd_")]
        out["cli.commands"] = calls.get("cli.main", 0)
        out["cli.parse_s"] = self_s.get("cli.main", 0.0)
        out["cli.self_s"] = sum(self_s[n] for n in cmd_names)
        for prefix in TIMED:
            out[f"{prefix}.calls"] = calls.get(prefix, 0)
            out[f"{prefix}.self_s"] = self_s.get(prefix, 0.0)
        out.update(self.counts)
        if self.halvings:
            out["kernel.boundary_limit.halvings_mean"] = sum(self.halvings) / len(self.halvings)
            out["kernel.boundary_limit.halvings_max"] = max(self.halvings)
        out["kernel.wave_pair.distinct"] = len(self.wave_keys)
        samples = out["kernel.resolvent_kernel.calls"] + out["kernel.formal_green.calls"]
        if self.wave_keys:
            out["kernel.samples_per_wave_pair"] = samples / len(self.wave_keys)
        out["kernel.find_kernel_poles.denominator_evals"] = self._calls_inside(
            "eigenfunctions.chi_coefficients", "kernel.find_kernel_poles"
        )
        seeds = out["kernel.find_kernel_poles.seeds"]
        if seeds:
            out["kernel.find_kernel_poles.accept_ratio"] = (
                out["kernel.find_kernel_poles.roots"] / seeds
            )
        out["trace.wall_s"] = wall_s
        return out

    def save(self, path) -> None:
        """Write the raw spans (name, start, end, parent) as a compressed archive."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
        )


def _sqgreen_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "sqgreen" or name.startswith("sqgreen."))]
