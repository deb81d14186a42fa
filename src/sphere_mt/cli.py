"""Command-line front end: invariant checks, functional reports, bubble
sweeps, constrained minimization, and the energy-expansion table.

Exit codes are a total function of the outcome class:

    0   success
    1   invariant failure (cmd check)
    2   precondition violation (grid sizes, degrees, dilations, values,
        a grid too large to allocate)
    3   file error (missing, unreadable or malformed)
    10  blow-up detected
    11  iteration cap reached
    64  usage error

Every subcommand is deterministic given its flags and --seed; rerunning
reproduces JSON/CSV output byte-for-byte on the same platform.

The argparse tree is built once per process (build_parser is cached), so
an in-process main(argv) only parses.  check's zonal invariants run on
one column: the curvature residual is a max over the columns of
Delta w and exp(2w), and the total weight's ones and the pullback's
u = 0 are stride-0 broadcasts.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import sys

import numpy as np

from . import __version__
from . import conformal, functional, harmonics, optimize
from .errors import FormatError, InvariantViolation, RangeOverflowError
from .grid import FOUR_PI, ScalarField, _column, build_grid, integrate_values
from .io import read_field, report_json, write_csv, write_field, write_report

EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_PRECONDITION = 2
EXIT_FILE = 3
EXIT_BLOWUP = 10
EXIT_CAP = 11
EXIT_USAGE = 64

DEFAULT_N_THETA = 64
DEFAULT_N_PHI = 128
DEFAULT_SEED = 42


class _Parser(argparse.ArgumentParser):
    """argparse with the conventional 64 exit code on usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(EXIT_USAGE)


def _parse_float_list(text: str, flag: str) -> list[float]:
    try:
        values = [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise ValueError(f"cannot parse {flag} value {text!r}") from exc
    if not all(math.isfinite(v) for v in values):
        raise ValueError(f"{flag} values must be finite, got {text!r}")
    return values


# ---------------------------------------------------------------- check

def _check_suite(grid, L: int, seed: int):
    """Yield (name, passed, detail) for the invariant suite."""
    rng = np.random.default_rng(seed)
    shape = (grid.n_theta, grid.n_phi)

    # a broadcast 1 is zonal, so this is n_phi times the sum of the weights
    total = integrate_values(grid, np.broadcast_to(1.0, shape))
    yield ("quadrature.total_weight",
           abs(total - FOUR_PI) <= 1e-12 * FOUR_PI,
           f"sum w = {total!r}")

    worst = max(abs(integrate_values(grid, grid.xyz[:, :, i])) for i in range(3))
    yield ("quadrature.first_moments", worst <= 1e-13, f"max |int x_i| = {worst:.3e}")

    # x_i x_j == x_j x_i bitwise, so the 6 products with j >= i cover all 9
    worst = 0.0
    for i in range(3):
        for j in range(i, 3):
            v = integrate_values(grid, grid.xyz[:, :, i] * grid.xyz[:, :, j])
            expect = FOUR_PI / 3.0 if i == j else 0.0
            worst = max(worst, abs(v - expect) / (FOUR_PI / 3.0))
    yield ("quadrature.second_moments", worst <= 1e-10,
           f"max rel dev = {worst:.3e}")

    coeff = rng.uniform(-1.0, 1.0, (L + 1) ** 2)
    spec = harmonics.HarmonicSpectrum(L=L, coeff=coeff)
    f = harmonics.synthesize(spec, grid)
    back = harmonics.analyze(f, L)
    err = float(np.max(np.abs(back.coeff - coeff)))
    yield ("transform.round_trip", err <= 1e-10, f"L={L}, max coeff err = {err:.3e}")

    parseval = abs(integrate_values(grid, f.values ** 2) - float(np.sum(coeff ** 2)))
    rel = parseval / float(np.sum(coeff ** 2))
    yield ("transform.parseval", rel <= 1e-10, f"rel err = {rel:.3e}")

    # a Moebius dilation is t >= 1, and below n_theta = 8 the grid
    # resolves none
    if conformal.max_bubble_t(grid) >= 1.0:
        t_area = min(4.0, conformal.max_bubble_t(grid))
        w = conformal.mobius_factor(conformal.MobiusMap(conformal.NORTH, t_area), grid)
        # w is zonal: exp(2w) is taken on one column, once for both checks
        e2w = functional._exp2(grid, w.values)
        area = integrate_values(grid, e2w)
        yield ("conformal.area_preservation",
               abs(area - FOUR_PI) <= 1e-8 * FOUR_PI,
               f"t={t_area}, area = {area!r}")

        # both are zonal, and a max over their columns is exact
        lap = harmonics._field_laplacian(w)
        resid = float(np.max(np.abs(_column(lap) + _column(e2w) - 1.0)))
        yield ("conformal.curvature_equation", resid <= 1e-5,
               f"t={t_area}, max residual = {resid:.3e}")

    g_mid = conformal.green_two_pole_value(np.pi / 2.0)
    expect = -4.0 * conformal.OBSTRUCTION_CONSTANT
    yield ("green.midline_value", abs(g_mid - expect) <= 1e-9,
           f"G(pi/2) = {g_mid!r}")

    h = 1e-3
    th = np.pi / 3.0
    gv = conformal.green_two_pole_value
    fd = ((gv(th + h) - 2.0 * gv(th) + gv(th - h)) / h ** 2
          + (gv(th + h) - gv(th - h)) / (2.0 * h) / math.tan(th))
    yield ("green.interior_laplacian", abs(-fd - (-4.0)) <= 1e-4,
           f"FD -Lap G(pi/3) = {-fd:.8f}")

    if conformal.max_bubble_t(grid) >= 2.0 and grid.n_phi % 2 == 0:
        pair = conformal.bubble_pair(2.0, grid)
        rep = functional.evaluate(pair.field)
        worst = float(np.max(np.abs(rep.moments)))
        yield ("bubble_pair.zero_moments", worst <= 1e-10,
               f"t=2, max |moment| = {worst:.3e}")

        # stride 0: ScalarField takes u = 0 as zonal by its stride, no scan
        zero = ScalarField(grid, np.broadcast_to(0.0, shape))
        tu = conformal.mobius_pullback(zero, conformal.MobiusMap(conformal.NORTH, 2.0))
        J = functional.evaluate(tu).onofri_J
        yield ("pullback.onofri_equality", abs(J) <= 1e-6,
               f"t=2, J = {J:.3e}")


def cmd_check(args) -> int:
    grid = build_grid(args.n_theta, args.n_phi)
    harmonics._check_degree(grid, args.L)
    if args.field:
        f = read_field(args.field)
        print(f"PASS  field_file.valid            "
              f"({f.grid.n_theta}x{f.grid.n_phi}, "
              f"range [{f.min():.4g}, {f.max():.4g}])")

    failed = None
    for name, ok, detail in _check_suite(grid, args.L, args.seed):
        print(f"{'PASS' if ok else 'FAIL'}  {name:30s} {detail}")
        if not ok and failed is None:
            failed = name
    if failed is not None:
        print(f"first failing invariant: {failed}", file=sys.stderr)
        return EXIT_INVARIANT
    return EXIT_OK


# ------------------------------------------------------------- evaluate

def _load_or_make_field(args) -> ScalarField:
    if args.field:
        return read_field(args.field)
    grid = build_grid(DEFAULT_N_THETA if args.n_theta is None else args.n_theta,
                      DEFAULT_N_PHI if args.n_phi is None else args.n_phi)
    if args.make_bubble_pair is not None:
        return conformal.bubble_pair(args.make_bubble_pair, grid).field
    return ScalarField(grid, np.zeros((grid.n_theta, grid.n_phi)))


def cmd_evaluate(args) -> int:
    if args.field and (args.n_theta is not None or args.n_phi is not None):
        print("sphere-mt evaluate: error: --n-theta/--n-phi cannot be used "
              "with --field, whose grid comes from the file", file=sys.stderr)
        return EXIT_USAGE
    f = _load_or_make_field(args)
    report = functional.evaluate(f, alpha=args.alpha, eps=args.eps)
    if args.out:
        write_report(args.out, report)
    else:
        print(report_json(report))
    return EXIT_OK


# ---------------------------------------------------------------- sweep

def sweep_grid_sizes(t_max: float, n_theta: int, n_phi: int) -> tuple[int, int]:
    """Grow the grid so the largest requested dilation stays resolvable;
    a grown grid takes n_phi = max(n_phi, 2 n_theta)."""
    need = int(math.ceil(conformal._CORE_NODES * t_max))
    if need > n_theta:
        return need, max(n_phi, 2 * need)
    return n_theta, n_phi


def bubble_sweep_rows(t_values, alphas, grid):
    rows = []
    for t in t_values:
        pair = conformal.bubble_pair(float(t), grid)
        rep = functional.evaluate(pair.field)
        row = [float(t), rep.avg_grad_sq, rep.avg_u, rep.log_avg_exp, rep.mass]
        row += [dataclasses.replace(rep, alpha=a).i_alpha for a in alphas]
        rows.append(row)
    return rows


def cmd_sweep(args) -> int:
    if not 1.0 <= args.t_min <= args.t_max < math.inf:
        raise ValueError("need 1 <= t-min <= t-max < inf")
    if args.steps < 2:
        raise ValueError("need at least 2 steps")
    alphas = _parse_float_list(args.alpha_list, "--alpha-list")

    grid = build_grid(*sweep_grid_sizes(args.t_max, args.n_theta, args.n_phi))
    t_values = np.linspace(args.t_min, args.t_max, args.steps)
    rows = bubble_sweep_rows(t_values, alphas, grid)
    header = (["t", "avg_grad_sq", "avg_u", "log_avg_exp", "mass"]
              + [f"I_alpha[{a:g}]" for a in alphas])
    text = write_csv(args.out, header, rows)
    if not args.out:
        sys.stdout.write(text)
    return EXIT_OK


# ------------------------------------------------------------- minimize

def _minimize_config(args) -> optimize.MinimizeConfig:
    kind = args.init.replace("-", "_")
    return optimize.MinimizeConfig(
        eps=args.eps if args.eps is not None else 0.0,
        L=args.L, n_theta=args.n_theta, n_phi=args.n_phi,
        tol_grad=args.tol_grad, tol_constraint=args.tol_constraint,
        max_outer=args.max_outer, max_inner=args.max_inner,
        init_kind=kind, init_seed=args.seed, init_scale=args.scale,
        init_t=args.t, init_path=args.init_file)


def cmd_minimize(args) -> int:
    """One run (--eps) or one ladder (--continuation): one output path,
    and the exit code of the worst status (blow-up, cap, converged); a
    ladder classified blowing_up exits as a blow-up."""
    config = _minimize_config(args)
    ladder = args.continuation is not None
    if ladder:
        eps_list = _parse_float_list(args.continuation, "--continuation")
        out = optimize.continuation(eps_list, config)
        results = out.results
    else:
        out = optimize.minimize(config)
        results = (out,)
    if args.out_prefix:
        write_report(f"{args.out_prefix}.report.json", out)
        for res in results:
            tag = f".eps{res.eps:g}" if ladder else ""
            write_field(f"{args.out_prefix}{tag}.field.bin", res.u_star,
                        params={"eps": res.eps, "L": config.L,
                                "status": res.status})
    else:
        print(report_json(out))
    statuses = {res.status for res in results}
    if (optimize.STATUS_BLOWUP in statuses
            or (ladder and out.classification == "blowing_up")):
        return EXIT_BLOWUP
    return EXIT_OK if statuses == {optimize.STATUS_CONVERGED} else EXIT_CAP


# ------------------------------------------------------------ expansion

def cmd_expansion(args) -> int:
    r_values = _parse_float_list(args.R_list, "--R-list")
    t_values = _parse_float_list(args.t_list, "--t-list")
    header = [f.name for f in dataclasses.fields(functional.ExpansionReport)]
    rows = [dataclasses.astuple(functional.energy_expansion_report(t, r))
            for t in t_values for r in r_values]
    text = write_csv(args.out, header, rows)
    if not args.out:
        sys.stdout.write(text)
    return EXIT_OK


# ----------------------------------------------------------------- main

def _add_grid_flags(p):
    p.add_argument("--n-theta", type=int, default=DEFAULT_N_THETA,
                   help=f"colatitude nodes (default {DEFAULT_N_THETA})")
    p.add_argument("--n-phi", type=int, default=DEFAULT_N_PHI,
                   help=f"longitude nodes (default {DEFAULT_N_PHI})")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on the first call.  Every
    later call returns it, so callers only parse with it (parse_args
    keeps no state between calls) and never add to or change it."""
    parser = _Parser(prog="sphere-mt",
                     description="Spectral toolkit for the improved "
                                 "Moser-Trudinger functional on the sphere.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="run the invariant suite")
    _add_grid_flags(p)
    p.add_argument("--L", type=int, default=16, help="transform test degree")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--field", default=None, help="also validate this FieldFile")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("evaluate", help="functional report for a field")
    _add_grid_flags(p)
    # None tells a grid flag given next to --field from the default
    p.set_defaults(n_theta=None, n_phi=None)
    src = p.add_mutually_exclusive_group()
    src.add_argument("--field", default=None, help="FieldFile to evaluate")
    src.add_argument("--make-bubble-pair", type=float, default=None,
                     metavar="T", help="evaluate the two-bubble field")
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--out", default=None, help="write report JSON here")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("sweep", help="bubble-family functional table")
    _add_grid_flags(p)
    p.add_argument("--t-min", type=float, default=2.0)
    p.add_argument("--t-max", type=float, default=20.0)
    p.add_argument("--steps", type=int, default=7)
    p.add_argument("--alpha-list", default="0.4,0.5,0.6")
    p.add_argument("--out", default=None, help="write CSV here")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("minimize", help="constrained minimization")
    _add_grid_flags(p)
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--eps", type=float, default=None)
    mode.add_argument("--continuation", default=None,
                      metavar="EPS_LIST", help="decreasing eps ladder, e.g. 0.4,0.3")
    p.add_argument("--init", default="zero",
                   choices=["zero", "random", "bubble-pair", "file"])
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--scale", type=float, default=0.1,
                   help="random init amplitude")
    p.add_argument("--t", type=float, default=2.0, help="bubble-pair init dilation")
    p.add_argument("--init-file", default=None)
    p.add_argument("--L", type=int, default=16)
    p.add_argument("--tol-grad", type=float, default=1e-8)
    p.add_argument("--tol-constraint", type=float, default=1e-8)
    p.add_argument("--max-outer", type=int, default=30)
    p.add_argument("--max-inner", type=int, default=400)
    p.add_argument("--out-prefix", default=None,
                   help="write <prefix>.report.json and <prefix>.field.bin")
    p.set_defaults(func=cmd_minimize)

    p = sub.add_parser("expansion", help="energy-expansion table")
    p.add_argument("--R-list", default="0.5,1,5,10")
    p.add_argument("--t-list", default="2,4,8")
    p.add_argument("--out", default=None, help="write CSV here")
    p.set_defaults(func=cmd_expansion)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except RangeOverflowError as exc:
        print(f"blow-up: {exc}", file=sys.stderr)
        return EXIT_BLOWUP
    except InvariantViolation as exc:
        print(f"invariant failure: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except FormatError as exc:
        print(f"format error: {exc}", file=sys.stderr)
        return EXIT_FILE
    except OSError as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return EXIT_FILE
    except (ValueError, MemoryError) as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
