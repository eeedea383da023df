"""Batch front end: kernel grids, limit studies, verification runs, pole scans.

All numeric output is written with 17 significant digits (``%.17g``) so
re-running a command reproduces its output byte for byte; complex values are
always split into re/im fields, never serialized as "a+bi" strings.  Exit
codes: 0 on success, 1 when a requested check fails (a pole scan that accepts
another number of roots than its box's certified zero count included) or a
limit row does not converge, 2 on configuration errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from collections.abc import Iterable

import numpy as np

from .errors import ConfigError, DomainError, PoleError
from .kernel import boundary_limits, find_kernel_poles, kernel_grid
from .model import PiecewisePotential, SquareBarrier
from .verification import run_verification


def parse_complex(text: str) -> complex:
    """Parse '1.5+0.2i' style energies, or a bare real; refuse a value that is not finite."""
    try:
        z = complex(re.sub(r"[iI]$", "j", text.strip()))  # only a trailing i is the unit
    except ValueError as exc:
        raise ConfigError(f"cannot parse complex number from {text!r}") from exc
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ConfigError(f"complex number {text!r} is not finite")
    return z


#: a grid on one axis, and the (r, s) grid of a request, must have fewer points than this
MAX_GRID_POINTS = 10**6


def _grid_spec(text: str) -> tuple[float, float, int]:
    """(start, step, n) of a closed-open start:stop:step grid of n points; nothing is listed."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"grid spec must be start:stop:step, got {text!r}")
    try:
        start, stop, step = (float(x) for x in parts)
    except ValueError as exc:
        raise ConfigError(f"non-numeric grid spec {text!r}") from exc
    if not all(math.isfinite(x) for x in (start, stop, step)):
        raise ConfigError(f"grid spec entries must be finite, got {text!r}")
    if step <= 0.0 or stop <= start:
        raise ConfigError(f"grid spec needs stop > start and step > 0, got {text!r}")
    count = (stop - start) / step * (1.0 + 1e-12)
    if not count < MAX_GRID_POINTS:
        raise ConfigError(f"grid spec {text!r} asks for {MAX_GRID_POINTS} points or more")
    n = int(count)
    if start + n * step >= stop - 1e-12 * step:
        n -= 1
    return start, step, n + 1


def parse_grid(text: str) -> list[float]:
    """closed-open start:stop:step grid; points are start + j*step, never accumulated."""
    start, step, n = _grid_spec(text)
    return [start + j * step for j in range(n)]


def _add_potential_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--v0", type=float, help="barrier height (well if negative)")
    sub.add_argument("--a", type=float, help="inner edge of the barrier")
    sub.add_argument("--b", type=float, help="outer edge of the barrier")
    sub.add_argument(
        "--breakpoints", type=str, default=None, help="comma list r1,...,rN for a staircase potential"
    )
    sub.add_argument(
        "--heights", type=str, default=None, help="comma list v0,...,vN (one more than breakpoints, last 0)"
    )


def _add_request_args(sub: argparse.ArgumentParser, energy_help: str) -> None:
    """The potential, ``--energy`` and the r and s points of a kernel request."""
    _add_potential_args(sub)
    sub.add_argument("--energy", required=True, help=energy_help)
    for axis in ("r", "s"):
        sub.add_argument(f"--{axis}", type=float, default=None)
        sub.add_argument(f"--{axis}-grid", type=str, default=None, help="start:stop:step")


def _build_potential(args):
    if args.breakpoints is not None or args.heights is not None:
        if (args.v0, args.a, args.b) != (None, None, None):
            raise ConfigError("give either --v0/--a/--b or --breakpoints/--heights, not both")
        if args.breakpoints is None or args.heights is None:
            raise ConfigError("staircase potentials need both --breakpoints and --heights")
        try:
            bps = tuple(float(x) for x in args.breakpoints.split(","))
            hts = tuple(float(x) for x in args.heights.split(","))
        except ValueError as exc:
            raise ConfigError("non-numeric entry in --breakpoints/--heights") from exc
        try:
            return PiecewisePotential(bps, hts)
        except DomainError as exc:
            raise ConfigError(f"invalid staircase potential: {exc}") from exc
    if args.v0 is None or args.a is None or args.b is None:
        raise ConfigError("square barriers need --v0, --a and --b")
    try:
        return SquareBarrier(args.v0, args.a, args.b)
    except DomainError as exc:
        raise ConfigError(f"invalid barrier: {exc}") from exc


def _points(args, axis: str):
    """(n, points) of the ``--axis`` or ``--axis-grid`` points: how many, and a call listing them."""
    scalar, grid = getattr(args, axis), getattr(args, f"{axis}_grid")
    if (scalar is None) == (grid is None):
        raise ConfigError(f"exactly one of --{axis} / --{axis}-grid is required")
    if grid is None and not math.isfinite(scalar):
        raise ConfigError(f"--{axis} must be finite, got {scalar}")
    return (1, lambda: [scalar]) if grid is None else (_grid_spec(grid)[2], lambda: parse_grid(grid))


def _request(args):
    """(potential, energy, r points, s points) of an ``eval`` or ``limit-study`` command.

    Refuses r and s points that form ``MAX_GRID_POINTS`` (r, s) pairs or more, before listing them.
    """
    p, energy = _build_potential(args), parse_complex(args.energy)
    (n_r, rs), (n_s, ss) = _points(args, "r"), _points(args, "s")
    if n_r * n_s >= MAX_GRID_POINTS:
        raise ConfigError(f"--r and --s ask for {n_r * n_s} (r, s) points, {MAX_GRID_POINTS} or more")
    return p, energy, rs(), ss()


def _directions(args) -> list[str]:
    if args.direction == "both":
        return ["plus", "minus"]
    return [args.direction or "plus"]


def _write_json(path: str, payload) -> None:
    """Write ``payload`` as indented JSON with sorted keys, in one write."""
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w", newline="") as fh:
        fh.write(text + "\n")


def _write_rows(args, header: list[str], blocks: Iterable[str]) -> None:
    """Write a table to ``args.out`` as CSV or as JSON rows, per ``args.format``.

    Each block is whole CSV rows, each ended by a newline; no field holds a
    comma or a quote, so none needs CSV quoting.
    """
    if args.format == "csv":
        with open(args.out, "w", newline="") as fh:
            fh.write(",".join(header) + "\n")
            fh.writelines(blocks)
    else:
        rows = [dict(zip(header, line.split(","))) for block in blocks for line in block.splitlines()]
        _write_json(args.out, {"rows": rows})


def _value_fields(values: np.ndarray, square: bool) -> list[list[str]]:
    """The "g_re,g_im" fields of every entry of one complex kernel grid, row by row.

    With ``square`` true, each entry below the diagonal takes the fields of its
    mirror (j, i); a row's other entries are printed by one ``%`` over their parts.
    """
    parts = np.ascontiguousarray(values).view(float)
    rows: list[list[str]] = []
    for i, row in enumerate(parts):
        fields = [rows[j][i] for j in range(i)] if square else []
        own = row[2 * len(fields):].tolist()
        fields.extend(("%.17g,%.17g;" * (len(own) // 2) % tuple(own)).split(";")[:-1])
        rows.append(fields)
    return rows


def _conjugates(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Mask of the entries of the grid ``b`` that are the conjugates of ``a``'s, bit for bit."""
    a, b = (np.ascontiguousarray(g).view(np.uint64) for g in (a, b))
    # equal real words, and imaginary words that differ in the sign bit alone
    return (a[:, 0::2] == b[:, 0::2]) & ((a[:, 1::2] ^ b[:, 1::2]) == np.uint64(1 << 63))


def _reflected_fields(fields: list[list[str]], values: np.ndarray, conjugate: np.ndarray,
                      square: bool) -> list[list[str]]:
    """:func:`_value_fields` of ``values``, from ``fields``, those of a grid it mostly conjugates.

    An entry where ``conjugate`` is true takes its field in ``fields`` with the
    sign of g_im flipped; only the other entries are printed.  With ``square``
    true, each entry below the diagonal takes the field of its mirror (j, i),
    as in :func:`_value_fields`.
    """
    others: dict[int, list[int]] = {}  # row -> the columns printed anew
    for i, j in np.argwhere(~conjugate).tolist():
        others.setdefault(i, []).append(j)
    rows: list[list[str]] = []
    for i, row in enumerate(fields):
        out = [rows[j][i] for j in range(i)] if square else []
        start = len(out)
        # one "re,im" field per entry: "," -> ",-" flips every g_im, and ",--" -> "," undoes -(-x)
        out.extend(";".join(row[start:]).replace(",", ",-").replace(",--", ",").split(";"))
        for j in others.get(i, ()):
            if j >= start:
                g = complex(values[i, j])
                out[j] = "%.17g,%.17g" % (g.real, g.imag)
        rows.append(out)
    return rows


def cmd_eval(args) -> int:
    """Write the kernel on the ``--r`` x ``--s`` grid, one row per entry and direction.

    A grid is square when its r and s axes print the same ``%.17g`` fields
    (so -0.0 and 0.0 never match).  There G(r, s) = G(s, r) bit for bit:
    :func:`~sqgreen.kernel.kernel_grid` evaluates each wave once, elementwise,
    on the radii of both axes, and forms every entry as chi(min) * omega(max) / W
    from those values, so an entry and its mirror multiply the same numbers.
    Each entry below the diagonal therefore reuses the digits of its mirror,
    which halves the ``%.17g`` conversions.  With ``--direction both`` at real
    E, the minus grid is still built from omega_minus, but for a real potential
    it is the plus grid's conjugate, bit for bit, away from exact zeros: each
    such entry reuses the plus entry's digits with the sign of g_im flipped
    (:func:`_reflected_fields`), and only the others are printed.  Each r-row
    is then written as one string, ``r_field.join(templates) % cells``, with a
    ``%s`` cell per entry and direction.
    """
    p, energy, rs, ss = _request(args)

    if energy.imag != 0.0:
        if args.direction is not None:
            raise ConfigError(
                "--direction applies to real energies; at complex E the tail solution "
                "follows the sign of Im E"
            )
        e, directions = energy, [None]
    else:
        e, directions = energy.real, _directions(args)
    r_fields = ["%.17g" % r for r in rs]
    s_fields = ["%.17g" % s for s in ss]
    square = r_fields == s_fields
    # one grid per direction, each from a single wave pair; popped once printed
    values = [kernel_grid(p, e, rs, ss, d) for d in directions]
    conjugate = _conjugates(*values) if len(values) == 2 else None  # "minus" against "plus"
    grids = [_value_fields(values.pop(0), square)]
    if values:
        grids.append(_reflected_fields(grids[0], values.pop(), conjugate, square))
    provenances = ["resolvent_kernel" if d is None else f"formal_{d}" for d in directions]

    header = ["r", "s", "e_re", "e_im", "g_re", "g_im", "provenance"]
    e_fields = "%.17g,%.17g" % (e.real, e.imag)
    templates = ["", *(f",{s},{e_fields},%s,{prov}\n" for s in s_fields for prov in provenances)]

    def blocks():  # lazily, so that a CSV never holds more than one r-row's text
        cells: list[str] = [""] * (len(templates) - 1)
        for i, r_field in enumerate(r_fields):
            for d, fields in enumerate(grids):
                cells[d :: len(grids)] = fields[i]
            yield r_field.join(templates) % tuple(cells)

    _write_rows(args, header, blocks())
    return 0


def cmd_limit_study(args) -> int:
    """Write the limit study of every (r, s) point, one row per sample and direction.

    The studies of a point come from :func:`~sqgreen.kernel.boundary_limits`:
    a second direction's trajectory is the conjugate of the first's, so its
    rows reuse the first's k, mu and g_re digits, and its g_im digits with
    the sign flipped.
    """
    p, energy, rs, ss = _request(args)
    directions = _directions(args)

    header = [
        "r", "s", "e", "direction", "k", "mu", "g_re", "g_im",
        "extrapolated_re", "extrapolated_im", "formal_re", "formal_im",
        "abs_diff", "converged",
    ]
    blocks = []
    any_flagged = False
    for r in rs:
        for s in ss:
            first, *others = studies = boundary_limits(p, energy, r, s, directions, mu0=args.mu0)
            samples = enumerate(zip(first.mu_sequence, first.samples))
            cells = tuple(v for k, (mu, g) in samples for v in (k, mu, g.real, g.imag))
            # "k,mu,g_re" and "g_im" of each sample, printed once for every direction
            fields = ("%d,%.17g,%.17g;%.17g;" * (len(cells) // 4) % cells).split(";")[:-1]
            if others:  # the conjugate trajectory: each g_im with its sign flipped
                reflected = fields[:]
                reflected[1::2] = [g[1:] if g[0] == "-" else "-" + g for g in fields[1::2]]
            for direction, study in zip(directions, studies):
                any_flagged |= not study.converged
                x, f = study.extrapolated, study.formal
                head = "%.17g,%.17g,%.17g,%s" % (r, s, energy.real, direction)
                tail = "%.17g,%.17g,%.17g,%.17g,%.17g,%s" % (
                    x.real, x.imag, f.real, f.imag, study.abs_diff, str(study.converged).lower()
                )
                rows = fields if study is first else reflected
                blocks.append(f"{head},%s,%s,{tail}\n" * (len(rows) // 2) % tuple(rows))

    _write_rows(args, header, blocks)
    return 1 if any_flagged else 0


def cmd_verify(args) -> int:
    report = run_verification(
        _build_potential(args),
        parse_complex(args.energy),
        seed=args.seed,
        n_random=args.n_random,
        wronskian_scale=args.corrupt_wronskian,
    )
    _write_json(args.out, report)
    return 0 if report["pass"] else 1


def cmd_pole_scan(args) -> int:
    p = _build_potential(args)
    parts = args.box.split(":")
    if len(parts) != 4:
        raise ConfigError("--box must be re_min:re_max:im_min:im_max")
    try:
        box = tuple(float(x) for x in parts)
    except ValueError as exc:
        raise ConfigError(f"non-numeric --box entry in {args.box!r}") from exc
    roots = find_kernel_poles(p, box, seed_density=args.seed_density)

    header = ["re", "im", "residual"]
    rows = ["%.17g,%.17g,%.17g\n" % (z.real, z.imag, res) for z, res in zip(roots, roots.residuals)]
    _write_rows(args, header, rows)
    if roots.certified is not None and len(roots) != roots.certified:
        print(
            f"error: zero count mismatch: the argument principle counts {roots.certified} "
            f"zeros of c- in the box, the scan accepted {len(roots)}",
            file=sys.stderr,
        )
        return 1
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sqgreen",
        description="Green functions of the s-wave Schrodinger operator with a square-barrier "
        "or staircase potential",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate kernel values on a grid")
    _add_request_args(p_eval, "complex energy, e.g. 1.5+0.2i")
    p_eval.add_argument(
        "--direction",
        choices=["plus", "minus", "both"],
        default=None,
        help="formal kernel at real E (default plus); not allowed at complex E",
    )
    p_eval.add_argument("--format", choices=["csv", "json"], default="csv")
    p_eval.add_argument("--out", required=True)

    p_limit = sub.add_parser("limit-study", help="follow the kernel to the real axis")
    _add_request_args(p_limit, "real positive energy")
    p_limit.add_argument("--mu0", type=float, default=None, help="starting offset (default 0.05 E)")
    p_limit.add_argument("--direction", choices=["plus", "minus", "both"], default="both")
    p_limit.add_argument("--format", choices=["csv", "json"], default="csv")
    p_limit.add_argument("--out", required=True)

    p_verify = sub.add_parser(
        "verify",
        help="run the full invariant suite",
        description="Run the full invariant suite on one barrier or staircase. The RK4 "
        "oracle steps region by region, with more steps at higher energies, and refuses "
        "a run longer than its step budget.",
    )
    _add_potential_args(p_verify)
    p_verify.add_argument("--energy", required=True, help="real positive energy")
    p_verify.add_argument("--seed", type=int, default=0, help="seed for randomized instances")
    p_verify.add_argument(
        "--n-random", type=int, default=2, help="number of seeded random instances (>= 0)"
    )
    p_verify.add_argument(
        "--corrupt-wronskian",
        type=float,
        default=1.0,
        help="test hook: scale the kernel normalization (finite, nonzero) so the jump "
        "check must fail",
    )
    p_verify.add_argument("--out", required=True)

    p_poles = sub.add_parser("pole-scan", help="zeros of the kernel denominator in a box")
    _add_potential_args(p_poles)
    p_poles.add_argument("--box", required=True, help="re_min:re_max:im_min:im_max")
    p_poles.add_argument("--seed-density", type=float, default=0.25, help="Newton grid spacing")
    p_poles.add_argument("--format", choices=["csv", "json"], default="csv")
    p_poles.add_argument("--out", required=True)

    return parser


#: a token such as -0.7,1,0 or -1.5+0.2i, which can only be an option's value
_DASH_VALUE = re.compile(r"-[0-9.]")


def _attach_dash_values(argv: list[str]) -> list[str]:
    """Rewrite ``--opt -0.7,1,0`` as ``--opt=-0.7,1,0``.

    argparse takes a token that starts with '-' for an option unless it is a
    plain negative number, so comma lists and complex energies with a leading
    minus would otherwise be refused.
    """
    out: list[str] = []
    for token in argv:
        prev = out[-1] if out else ""
        if prev.startswith("--") and prev != "--" and "=" not in prev and _DASH_VALUE.match(token):
            out[-1] = f"{prev}={token}"
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_attach_dash_values(sys.argv[1:] if argv is None else list(argv)))
    try:
        # looked up at call time, so a rebound cmd_* runs even with the cached parser
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    except (ConfigError, DomainError, PoleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
