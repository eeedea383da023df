"""Output checks behind the benchmark's failure count.

They run after the timed window.  Each takes one planned command and the
file it wrote and returns ``None`` when the output is right, or a short
reason.  The grid and scan checks rebuild waves by RK4 integration of the
radial equation (``sqgreen.oracle.integrate_schrodinger``), never through the
matching algebra that produced the output.
"""

from __future__ import annotations

import cmath
import csv
import json
import math

from sqgreen import PiecewisePotential, SquareBarrier
from sqgreen.oracle import integrate_schrodinger

RK4_STEP = 1e-3
RK4_RTOL = 1e-7
LIMIT_TOL = 1e-8
RESIDUAL_TOL = 1e-10
OUTGOING_TOL = 1e-6
SYMMETRY_RTOL = 1e-12
#: (r, s) positions checked against RK4, as fractions of the grid size
GRID_PROBES = ((0.1, 0.4), (0.31, 0.77), (0.55, 0.55), (0.9, 0.12), (0.72, 0.99))


def potential(spec: dict):
    if "heights" in spec:
        return PiecewisePotential(tuple(spec["breakpoints"]), tuple(spec["heights"]))
    return SquareBarrier(spec["v0"], spec["a"], spec["b"])


def _read_csv(path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))[1:]


def _finite(*values: float) -> bool:
    return all(math.isfinite(v) for v in values)


def _axis(spec: str) -> list[float]:
    start, stop, step = (float(x) for x in spec.split(":"))
    return [start + j * step for j in range(round((stop - start) / step))]


def _rk4_kernel(p, e: complex, r_max: float, direction: str):
    """G(r, s) from RK4-integrated chi (outward from 0) and omega (inward from r_max)."""
    chi = integrate_schrodinger(p, e, 0.0, 1.0, 0.0, r_max, RK4_STEP)
    k = cmath.sqrt(e)
    sign = 1.0 if direction == "plus" else -1.0
    y = cmath.exp(sign * 1j * k * r_max)
    om = integrate_schrodinger(p, e, y, sign * 1j * k * y, r_max, 0.0, RK4_STEP)
    w = chi.values[-1] * om.derivatives[0] - chi.derivatives[-1] * om.values[0]
    n = len(chi.r) - 1

    def g(r: float, s: float) -> complex:
        lo, hi = (round(x / RK4_STEP) for x in sorted((r, s)))
        return complex(chi.values[lo] * om.values[n - hi] / w)

    return g


def check_grid(cmd: dict, path) -> str | None:
    rows = _read_csv(path)
    axis = _axis(cmd["axis"])
    n, dirs = len(axis), cmd["directions"]
    if len(rows) != n * n * len(dirs):
        return f"expected {n * n * len(dirs)} rows, got {len(rows)}"
    values = []
    for row in rows:
        re_, im_ = float(row[4]), float(row[5])
        if not _finite(re_, im_):
            return f"non-finite kernel value in row {row}"
        values.append(complex(re_, im_))

    def at(i: int, j: int, d: int) -> complex:
        return values[(i * n + j) * len(dirs) + d]

    e = complex(*cmd["energy"])
    if e.imag != 0.0:
        for i in range(n):
            for j in range(i):
                a, b = at(i, j, 0), at(j, i, 0)
                if abs(a - b) > SYMMETRY_RTOL * max(abs(a), abs(b)):
                    return f"G(r,s) != G(s,r) at grid indices ({i}, {j})"
    p = potential(cmd["potential"])
    for d, direction in enumerate(dirs):
        g = _rk4_kernel(p, e, axis[-1] + (axis[1] - axis[0]), direction)
        worst = scale = 0.0
        for fi, fj in GRID_PROBES:
            i, j = int(fi * n), int(fj * n)
            ref = g(axis[i], axis[j])
            worst = max(worst, abs(at(i, j, d) - ref))
            scale = max(scale, abs(ref))
        if worst > RK4_RTOL * scale:
            return f"{direction}: kernel differs from RK4 rebuild by {worst / scale:.3g} relative"
    return None


def check_limit(cmd: dict, path) -> str | None:
    rows = _read_csv(path)
    if {row[3] for row in rows} != {"plus", "minus"}:
        return "limit study lacks a direction"
    for row in rows:
        if row[13] != "true":
            return f"row not converged: {row}"
        if not _finite(*(float(x) for x in row[4:13])) or float(row[12]) > LIMIT_TOL:
            return f"limit differs from the formal kernel: abs_diff={row[12]}"
    return None


def check_scan(cmd: dict, path) -> str | None:
    re_min, re_max, im_min, im_max = cmd["box"]
    p = potential(cmd["potential"])
    r_out = p.b + 1.0
    for row in _read_csv(path):
        z, resid = complex(float(row[0]), float(row[1])), float(row[2])
        if not _finite(z.real, z.imag, resid):
            return f"non-finite root row {row}"
        if not (re_min <= z.real <= re_max and im_min <= z.imag <= im_max):
            return f"root {z} outside the box"
        if resid >= RESIDUAL_TOL:
            return f"root {z} has residual {resid}"
        # at a pole of the outgoing kernel chi beyond b is a pure exp(+ikr) wave:
        # its exp(-ikr) amplitude y - y'/(ik) vanishes
        chi = integrate_schrodinger(p, z, 0.0, 1.0, 0.0, r_out, RK4_STEP)
        k = cmath.sqrt(z)
        y, dy = chi.values[-1], chi.derivatives[-1]
        if abs(y - dy / (1j * k)) > OUTGOING_TOL * abs(y + dy / (1j * k)):
            return f"root {z}: RK4 chi has an incoming part beyond b"
    return None


def check_verify(cmd: dict, path) -> str | None:
    with open(path) as fh:
        report = json.load(fh)
    if report["pass"] != (cmd["expect_rc"] == 0):
        return f"report pass={report['pass']} for expected exit code {cmd['expect_rc']}"
    return None


CHECKS = {"grid": check_grid, "limit": check_limit, "scan": check_scan, "verify": check_verify}


def check(cmd: dict, rc, path) -> str | None:
    """Why ``cmd`` failed, or ``None``; a wrong exit code fails before any reading."""
    if rc != cmd["expect_rc"]:
        return f"exit code {rc}, expected {cmd['expect_rc']}"
    try:
        return CHECKS[cmd["kind"]](cmd, path)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return f"unreadable output: {exc!r}"
