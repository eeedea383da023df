"""Batch front end: kernel grids, limit studies, verification runs, pole scans.

All numeric output is written with 17 significant digits so re-running a
command reproduces its output byte for byte; complex values are always split
into re/im fields, never serialized as "a+bi" strings.  Exit codes: 0 on
success, 1 when a requested check fails or a limit row does not converge,
2 on configuration errors.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import re
import sys

from .errors import ConfigError, DomainError, NonConvergenceError, PoleError
from .kernel import (
    boundary_limit,
    find_kernel_poles,
    formal_green,
    kernel_grid,
    kernel_pole_residual,
)
from .model import SquareBarrier
from .piecewise import PiecewisePotential
from .verification import run_verification


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def parse_complex(text: str) -> complex:
    """Parse '1.5+0.2i' style energies; a bare real is accepted too."""
    cleaned = text.strip().replace("i", "j").replace("I", "j")
    try:
        return complex(cleaned)
    except ValueError as exc:
        raise ConfigError(f"cannot parse complex number from {text!r}") from exc


def parse_grid(text: str) -> list[float]:
    """closed-open start:stop:step grid; points are start + j*step, never accumulated."""
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
    n = int((stop - start) / step * (1.0 + 1e-12))
    if start + n * step >= stop - 1e-12 * step:
        n -= 1
    return [start + j * step for j in range(n + 1)]


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


def _build_potential(args):
    if args.breakpoints is not None or args.heights is not None:
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


def _points(args, flag_scalar: str, flag_grid: str) -> list[float]:
    scalar = getattr(args, flag_scalar.replace("-", "_"))
    grid = getattr(args, flag_grid.replace("-", "_"))
    if (scalar is None) == (grid is None):
        raise ConfigError(f"exactly one of --{flag_scalar} / --{flag_grid} is required")
    if grid is not None:
        return parse_grid(grid)
    if not math.isfinite(scalar):
        raise ConfigError(f"--{flag_scalar} must be finite, got {scalar}")
    return [scalar]


def _directions(args) -> list[str]:
    if args.direction == "both":
        return ["plus", "minus"]
    return [args.direction]


def _write_csv(path: str, header: list[str], rows: list[list[str]]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _write_json(path: str, payload) -> None:
    with open(path, "w", newline="") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_eval(args) -> int:
    p = _build_potential(args)
    energy = parse_complex(args.energy)
    rs = _points(args, "r", "r-grid")
    ss = _points(args, "s", "s-grid")

    if energy.imag != 0.0:
        e, directions = energy, [None]
    else:
        if not isinstance(p, SquareBarrier):
            raise ConfigError("real-energy kernels are defined for square barriers only")
        if energy.real <= 0.0:
            raise ConfigError("real energies must be positive for the formal kernels")
        e, directions = energy.real, _directions(args)
    # one grid per direction, each from a single wave pair
    grids = [
        (kernel_grid(p, e, rs, ss, d).tolist(), "resolvent_kernel" if d is None else f"formal_{d}")
        for d in directions
    ]

    header = ["r", "s", "e_re", "e_im", "g_re", "g_im", "provenance"]
    e_fields = [_fmt(e.real), _fmt(e.imag)]
    s_fields = [_fmt(s) for s in ss]
    rows = []
    for i, r in enumerate(rs):
        r_field = _fmt(r)
        for j, s_field in enumerate(s_fields):
            for values, provenance in grids:
                g = values[i][j]
                rows.append([r_field, s_field, *e_fields, _fmt(g.real), _fmt(g.imag), provenance])

    if args.format == "csv":
        _write_csv(args.out, header, rows)
    else:
        _write_json(args.out, {"rows": [dict(zip(header, row)) for row in rows]})
    return 0


def cmd_limit_study(args) -> int:
    p = _build_potential(args)
    if not isinstance(p, SquareBarrier):
        raise ConfigError("limit studies compare against the square-barrier formal kernels")
    energy = parse_complex(args.energy)
    if energy.imag != 0.0 or energy.real <= 0.0:
        raise ConfigError("limit studies need a real positive --energy")
    e = energy.real
    rs = _points(args, "r", "r-grid")
    ss = _points(args, "s", "s-grid")

    header = [
        "r", "s", "e", "direction", "k", "mu", "g_re", "g_im",
        "extrapolated_re", "extrapolated_im", "formal_re", "formal_im",
        "abs_diff", "converged",
    ]
    rows = []
    any_flagged = False
    for r in rs:
        for s in ss:
            for direction in _directions(args):
                try:
                    study = boundary_limit(p, e, r, s, direction, mu0=args.mu0)
                except NonConvergenceError as exc:
                    study = exc.partial
                    any_flagged = True
                formal = formal_green(p, e, r, s, direction).value
                diff = abs(study.extrapolated - formal)
                for k, (mu, g) in enumerate(zip(study.mu_sequence, study.samples)):
                    rows.append(
                        [_fmt(r), _fmt(s), _fmt(e), direction, str(k), _fmt(mu),
                         _fmt(g.real), _fmt(g.imag),
                         _fmt(study.extrapolated.real), _fmt(study.extrapolated.imag),
                         _fmt(formal.real), _fmt(formal.imag),
                         _fmt(diff), str(study.converged).lower()]
                    )

    if args.format == "csv":
        _write_csv(args.out, header, rows)
    else:
        _write_json(args.out, {"rows": [dict(zip(header, row)) for row in rows]})
    return 1 if any_flagged else 0


def cmd_verify(args) -> int:
    p = _build_potential(args)
    if not isinstance(p, SquareBarrier):
        raise ConfigError("verification currently runs on square barriers")
    energy = parse_complex(args.energy)
    if energy.imag != 0.0 or energy.real <= 0.0:
        raise ConfigError("verification needs a real positive --energy")
    report = run_verification(
        p,
        energy.real,
        seed=args.seed,
        n_random=args.n_random,
        wronskian_scale=args.corrupt_wronskian,
    )
    _write_json(args.out, report)
    return 0 if report["pass"] else 1


def cmd_pole_scan(args) -> int:
    p = _build_potential(args)
    if not isinstance(p, SquareBarrier):
        raise ConfigError("pole scans are defined for square barriers")
    parts = args.box.split(":")
    if len(parts) != 4:
        raise ConfigError("--box must be re_min:re_max:im_min:im_max")
    try:
        box = tuple(float(x) for x in parts)
    except ValueError as exc:
        raise ConfigError(f"non-numeric --box entry in {args.box!r}") from exc
    roots = find_kernel_poles(p, box, seed_density=args.seed_density)

    header = ["re", "im", "residual"]
    rows = [[_fmt(z.real), _fmt(z.imag), _fmt(kernel_pole_residual(p, z))] for z in roots]
    if args.format == "csv":
        _write_csv(args.out, header, rows)
    else:
        _write_json(args.out, {"rows": [dict(zip(header, row)) for row in rows]})
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sqgreen",
        description="Green functions of the s-wave square-barrier Schrodinger operator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate kernel values on a grid")
    _add_potential_args(p_eval)
    p_eval.add_argument("--energy", required=True, help="complex energy, e.g. 1.5+0.2i")
    p_eval.add_argument("--r", type=float, default=None)
    p_eval.add_argument("--r-grid", type=str, default=None, help="start:stop:step")
    p_eval.add_argument("--s", type=float, default=None)
    p_eval.add_argument("--s-grid", type=str, default=None, help="start:stop:step")
    p_eval.add_argument("--direction", choices=["plus", "minus", "both"], default="plus")
    p_eval.add_argument("--format", choices=["csv", "json"], default="csv")
    p_eval.add_argument("--out", required=True)
    p_eval.set_defaults(func=cmd_eval)

    p_limit = sub.add_parser("limit-study", help="follow the kernel to the real axis")
    _add_potential_args(p_limit)
    p_limit.add_argument("--energy", required=True, help="real positive energy")
    p_limit.add_argument("--r", type=float, default=None)
    p_limit.add_argument("--r-grid", type=str, default=None)
    p_limit.add_argument("--s", type=float, default=None)
    p_limit.add_argument("--s-grid", type=str, default=None)
    p_limit.add_argument("--mu0", type=float, default=None, help="starting offset (default 0.05 E)")
    p_limit.add_argument("--direction", choices=["plus", "minus", "both"], default="both")
    p_limit.add_argument("--format", choices=["csv", "json"], default="csv")
    p_limit.add_argument("--out", required=True)
    p_limit.set_defaults(func=cmd_limit_study)

    p_verify = sub.add_parser("verify", help="run the full invariant suite")
    _add_potential_args(p_verify)
    p_verify.add_argument("--energy", required=True, help="real positive energy")
    p_verify.add_argument("--seed", type=int, default=0, help="seed for randomized instances")
    p_verify.add_argument("--n-random", type=int, default=2)
    p_verify.add_argument(
        "--corrupt-wronskian",
        type=float,
        default=1.0,
        help="test hook: scale the kernel normalization so the jump check must fail",
    )
    p_verify.add_argument("--out", required=True)
    p_verify.set_defaults(func=cmd_verify)

    p_poles = sub.add_parser("pole-scan", help="Newton scan for kernel denominator zeros")
    _add_potential_args(p_poles)
    p_poles.add_argument("--box", required=True, help="re_min:re_max:im_min:im_max")
    p_poles.add_argument("--seed-density", type=float, default=0.25, help="seed grid spacing")
    p_poles.add_argument("--format", choices=["csv", "json"], default="csv")
    p_poles.add_argument("--out", required=True)
    p_poles.set_defaults(func=cmd_pole_scan)

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
        return args.func(args)
    except (ConfigError, DomainError, PoleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
