"""Seeded inputs for the benchmark workloads.

Every workload turns a seed into a plan: a list of ``sqgreen`` command lines
(without ``--out``), each with the exit code it must return and what its
output check needs to know.  The same seed always gives the same plan.

Draws exclude only the documented edges of the package's domain:

* every energy keeps ``|E - v_j| >= 0.05`` from each region height ``v_j``
  (the branch points of the momenta, where the package refuses to evaluate);
* barrier edges, staircase breakpoints and ``verify``'s diagonal point sit on
  the 1e-3 lattice that ``check_distributional_equation`` and the RK4 oracle
  require;
* complex grid energies have ``Im E > 0``.

No instance is ever dropped because of how the program handles it: a draw
that makes a command fail counts as a failed command.
"""

from __future__ import annotations

import random

BRANCH_MARGIN = 0.05
GRID_AXIS = "0:5:0.05"
SMOKE_GRID_AXIS = "0:5:0.5"
SCAN_BOX = "0.5:40:-6:-0.01"
SMOKE_SCAN_BOX = "0.5:10:-3:-0.01"


def _lattice(x: float) -> float:
    """The nearest point of the 1e-3 lattice."""
    return round(x, 3)


def _num(x: float) -> str:
    return repr(float(x))


def _energy(rng: random.Random, heights, lo: float, hi: float) -> float:
    """Real part in (lo, hi) at least BRANCH_MARGIN away from every region height."""
    while True:
        e = rng.uniform(lo, hi)
        if all(abs(e - v) >= BRANCH_MARGIN for v in heights):
            return e


def _barrier(rng: random.Random, v_lo: float, v_hi: float, w_lo=0.5, w_hi=1.5) -> dict:
    """Height in (v_lo, v_hi), inner edge in (0.5, 1.5), width in (w_lo, w_hi)."""
    v0 = rng.uniform(v_lo, v_hi)
    a = _lattice(rng.uniform(0.5, 1.5))
    b = _lattice(a + rng.uniform(w_lo, w_hi))
    return {"v0": v0, "a": a, "b": b}


def _flag(name: str, value) -> str:
    # --name=value: argparse would take a value such as "-0.7,1" for an option
    return f"--{name}={value}"


def _barrier_args(p: dict) -> list[str]:
    return [_flag(key, _num(p[key])) for key in ("v0", "a", "b")]


def _heights(p: dict) -> tuple[float, ...]:
    return tuple(p["heights"]) if "heights" in p else (0.0, p["v0"], 0.0)


def _command(argv, potential, kind, expect_rc=0, **extra) -> dict:
    return {"argv": argv, "expect_rc": expect_rc, "kind": kind, "potential": potential, **extra}


def grid_plan(rng: random.Random, smoke: bool) -> list[dict]:
    """``eval`` on 100x100 (r, s) grids: complex energy on a barrier and on a
    3-step staircase, real energy with both directions on the barrier.

    Why: each distinct (energy, direction) gets about 1e4 kernel samples, yet
    the waves are rebuilt for every sample, and 4e4 CSV rows get formatted.
    Grid batching, wave caching and the cli formatter show here; the pole
    scan and the oracle do nothing.
    """
    axis = SMOKE_GRID_AXIS if smoke else GRID_AXIS
    grid = ["--r-grid", axis, "--s-grid", axis]
    barrier = _barrier(rng, 2.0, 8.0)
    edges = [_lattice(rng.uniform(0.4, 1.0))]
    for _ in range(2):
        edges.append(_lattice(edges[-1] + rng.uniform(0.4, 1.0)))
    stair = {
        "breakpoints": edges,
        "heights": [rng.uniform(-2.0, 2.0), rng.uniform(0.0, 8.0), rng.uniform(-3.0, 5.0), 0.0],
    }
    plan = []
    for p, args in (
        (barrier, _barrier_args(barrier)),
        (stair, [_flag("breakpoints", ",".join(map(_num, stair["breakpoints"]))),
                 _flag("heights", ",".join(map(_num, stair["heights"])))]),
    ):
        hts = _heights(p)
        e = complex(_energy(rng, hts, 0.2, max(2.0, 2.0 * max(hts))), rng.uniform(0.1, 1.0))
        energy = f"{_num(e.real)}+{_num(e.imag)}i"
        plan.append(_command(["eval", *args, _flag("energy", energy), *grid], p, "grid",
                             energy=[e.real, e.imag], directions=["plus"], axis=axis))
    e = _energy(rng, _heights(barrier), 0.2, 2.0 * barrier["v0"])
    plan.append(_command(["eval", *_barrier_args(barrier), _flag("energy", _num(e)),
                          "--direction", "both", *grid], barrier, "grid",
                         energy=[e, 0.0], directions=["plus", "minus"], axis=axis))
    return plan


def limit_plan(rng: random.Random, smoke: bool) -> list[dict]:
    """Many ``limit-study`` commands on one barrier, each at its own real
    energy and (r, s) pair, both directions.

    Why: every kernel sample (about 27 halvings x 2 directions) sits at a
    distinct complex energy, so a per-energy cache or grid batching gains
    nothing here, while batching the mu sequence or building waves more
    cheaply does.  The many short commands also expose the per-command cli
    cost, such as rebuilding the argument parser.
    """
    barrier = _barrier(rng, 2.0, 8.0)
    plan = []
    for _ in range(3 if smoke else 150):
        e = _energy(rng, _heights(barrier), 0.2, 2.0 * barrier["v0"])
        r, s = (round(rng.uniform(0.05, barrier["b"] + 2.0), 4) for _ in range(2))
        plan.append(_command(["limit-study", *_barrier_args(barrier), _flag("energy", _num(e)),
                              _flag("r", _num(r)), _flag("s", _num(s))], barrier, "limit"))
    return plan


def scan_plan(rng: random.Random, smoke: bool) -> list[dict]:
    """``pole-scan`` over a wide box at the default seed spacing: about 3.8k
    Newton seeds and 2.4e5 denominator evaluations per barrier.

    Why: ``chi_coefficients`` and ``branch_sqrt`` take almost all the time,
    with no wave objects, grids or output volume.  Batched Newton with an
    analytic derivative, poles routed through the engine and a contour
    certificate all land here.

    The Newton work falls with the barrier height and width (over random
    barriers, height alone correlates -0.88 with it).  So a pass scans one
    barrier from each of three height bands, each with a width from its own
    third of the range, and its work varies little from seed to seed.
    """
    box = SMOKE_SCAN_BOX if smoke else SCAN_BOX
    heights = ((2.5, 3.5),) if smoke else ((2.5, 3.5), (4.5, 5.5), (6.5, 7.5))
    widths = [(0.5, 5 / 6), (5 / 6, 7 / 6), (7 / 6, 1.5)]
    rng.shuffle(widths)
    plan = []
    for (v_lo, v_hi), (w_lo, w_hi) in zip(heights, widths):
        barrier = _barrier(rng, v_lo, v_hi, w_lo, w_hi)
        plan.append(_command(["pole-scan", *_barrier_args(barrier), _flag("box", box)],
                             barrier, "scan", box=[float(x) for x in box.split(":")]))
    return plan


def verify_plan(rng: random.Random, smoke: bool) -> list[dict]:
    """``verify`` on seeded instances (the acceptance tests' distribution),
    plus a negative control with a corrupted Wronskian that must exit 1.

    Why: the RK4 loop of the oracle dominates; engine changes should barely
    move this workload, and it is the only one where the ``oracle`` and
    ``verification`` layers do most of the work.
    """
    plan = []
    for j in range(1 if smoke else 20):
        v0 = rng.uniform(-5.0, 10.0)
        a = _lattice(rng.uniform(0.2, 3.0))
        b = _lattice(a + rng.uniform(0.3, 2.0))
        barrier = {"v0": v0, "a": a, "b": b}
        e = _energy(rng, _heights(barrier), 0.1, max(0.2, 2.0 * v0 + 5.0))
        argv = ["verify", *_barrier_args(barrier), _flag("energy", _num(e)),
                _flag("seed", rng.randrange(2**31))]
        plan.append(_command(argv, barrier, "verify"))
        if j == 0:
            plan.append(_command(argv + [_flag("corrupt-wronskian", "1.001")], barrier, "verify",
                                 expect_rc=1))
    return plan


PLANS = {"grid": grid_plan, "limit": limit_plan, "scan": scan_plan, "verify": verify_plan}


def plan(workload: str, seed: int, smoke: bool = False) -> list[dict]:
    """The command list of one pass of ``workload`` for ``seed``."""
    return PLANS[workload](random.Random(f"{workload}:{seed}"), smoke)
