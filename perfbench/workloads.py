"""The benchmark's three workloads, their correctness gates, and the
layer-probe pass of a traced run.

Every input is drawn from the workload seed; pass p of a run always
gets the same inputs (its generator is seeded with (seed, p)), so a
pass can be replayed and its counts compared exactly.  Each operation
checks its own outputs at the repository's stated tolerances and
raises GateFailure when one is missed.

Spans (tracer.span) wrap each call the benchmark makes into a public
function of a sphere_mt module.  Calls made inside the library, such as
the transforms inside optimize, are invisible from here; a traced run
therefore adds a probe pass that makes those calls directly.
"""

from __future__ import annotations

import contextlib
import io as _stdio
import math
import time
from functools import partial
from pathlib import Path

import numpy as np

from sphere_mt import cli, conformal, functional, grid, harmonics, io, optimize

# ladder: the defaults of `sphere-mt minimize --continuation`
EPS_LADDER = (0.4, 0.3, 0.2, 0.1, 0.05)
LADDER_GRID = (cli.DEFAULT_N_THETA, cli.DEFAULT_N_PHI)
LADDER_L = 16
RANDOM_SCALE = 0.1          # CLI default --scale
BUBBLE_T = (2.0, 6.0)       # bubble_pair starts draw t from here

# hires: `sphere-mt sweep --t-max 32` grows the grid to 256x512
SWEEP_T = (2.0, 32.0)
SWEEP_ALPHAS = (0.4, 0.5, 0.6)
ROWS_PER_PASS = 6
VERIFY_T = (2.0, 16.0)      # Moebius factors checked at eps = 1/2
PULLBACK_T = (1.5, 3.0)

# quadrature: `sphere-mt check` sizes and criterion 4's tall rule
CHECK_SIZES = ((48, 96), (64, 128), (256, 512))
CHECKS_PER_PASS = 12
TALL = (24576, 4)

# generator streams outside the pass numbers, never counted
WARMUP_STREAM = 2 ** 31 - 2
PROBE_STREAM = 2 ** 31 - 1

# gates, at the tolerances the repository states
TOL_CONSTRAINT = 1e-8       # optimizer constraint violation
TOL_RESIDUAL = 1e-6         # EL norm and |KW| of a minimizer
TOL_MOMENTS = 1e-10         # bubble-pair first moments
TOL_ONOFRI = 1e-6           # |J| of a Moebius pullback
TOL_MOBIUS_EL = 1e-6        # EL norm of w_t at eps = 1/2 for t <= 16
TOL_MOBIUS_KW = 1e-10       # |KW| of w_t at eps = 1/2
TOL_GREEN_AVG = 1e-8        # |avg G| on the tall rule (criterion 4)

# grids and transform degrees each workload's set-up builds; the larger
# degree is the grid's anti-aliasing bound, used by evaluate/residuals
SETUP = {
    "ladder": ((64, 128, (16, 62)),),
    "hires": ((256, 512, (254,)), (64, 128, (62,))),
    "quadrature": ((48, 96, (16, 46)), (64, 128, (16, 62)),
                   (256, 512, (16, 254))),
}


class GateFailure(Exception):
    """An output missed its correctness gate."""


def gate(ok: bool, what: str):
    if not ok:
        raise GateFailure(what)


def size(g) -> str:
    return f"{g.n_theta}x{g.n_phi}"


def unit_vector(rng) -> np.ndarray:
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def first_call(g, L: int) -> float:
    """Seconds for the first synthesize+analyze at (grid, L)."""
    t0 = time.perf_counter()
    f = harmonics.synthesize(
        harmonics.HarmonicSpectrum(L=L, coeff=np.zeros((L + 1) ** 2)), g)
    harmonics.analyze(f, L)
    return time.perf_counter() - t0


def warm(name: str):
    """Build the workload's grids and transform tables.

    Returns ({(n_theta, n_phi): grid}, {"<size>_L<L>": first-call seconds}).
    """
    grids, firsts = {}, {}
    for nt, nph, degrees in SETUP[name]:
        g = grid.build_grid(nt, nph)
        grids[(nt, nph)] = g
        for L in degrees:
            firsts[f"{size(g)}_L{L}"] = first_call(g, L)
    return grids, firsts


class Workload:
    """A closed loop of operations with one caller.

    Durations of op_kind operations give op_s, of aux_kind ones aux_s;
    samples maps a kind to its durations.  The loop stops no earlier
    than after min_ops op_kind operations.  Operations of the first
    count_passes passes (and of the probe pass) record exact counts,
    which must be the same on every run with the same seed.
    """

    name = ""
    op_kind = ""
    aux_kind = ""
    count_passes = 0
    min_ops = 20
    cold_kinds = ()     # kinds with no lazy state, too slow to warm up

    def __init__(self, seed: int, tracer, workdir: Path, grids: dict,
                 inject_fault: bool = False):
        self.seed = seed
        self.tr = tracer
        self.workdir = workdir
        self.grids = grids
        self.fault = inject_fault
        self.samples: dict[str, list[float]] = {}
        self.stats: dict[tuple, dict] = {}
        self.mismatches: list[str] = []

    def rng(self, stream: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, stream])

    def get_grid(self, nt: int, nph: int):
        if (nt, nph) not in self.grids:
            self.grids[(nt, nph)] = grid.build_grid(nt, nph)
        return self.grids[(nt, nph)]

    def take_fault(self) -> bool:
        """True exactly once if a wrong result is to be injected."""
        hit, self.fault = self.fault, False
        return hit

    def record(self, key: tuple, stats: dict):
        """Keep the counts of operation key; a second run of the same
        operation must reproduce them exactly."""
        before = self.stats.setdefault(key, stats)
        self.mismatches += [f"{key} {k}: {before[k]} then {v}"
                            for k, v in stats.items() if before[k] != v]

    @property
    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for stats in self.stats.values():
            for k, v in stats.items():
                out[k] = out.get(k, 0) + int(v)
        return out

    def pass_ops(self, p: int) -> list:
        """The (kind, callable) operations of pass p, in order."""
        raise NotImplementedError

    def warmup_ops(self) -> list:
        """One operation of each kind, on inputs no pass uses, so lazy
        state (tables, allocator arenas) is in place before timing."""
        firsts = {}
        for kind, fn in self.pass_ops(WARMUP_STREAM):
            if kind not in self.cold_kinds:
                firsts.setdefault(kind, fn)
        return list(firsts.values())

    def replay_ops(self) -> list:
        """Operations re-run after the loop to check that counts repeat."""
        return []


class Ladder(Workload):
    """Repeated eps-ladders, random and bubble-pair starts alternating,
    each followed by a write and read-back of every rung."""

    name = "ladder"
    op_kind = "ladder"
    aux_kind = "rung_io"
    count_passes = 2        # the first four ladders

    def __init__(self, *args, **kw):
        super().__init__(*args, **kw)
        self.last = None    # final rung of the latest ladder, for probes

    def configs(self, stream: int):
        rng = self.rng(stream)
        nt, nph = LADDER_GRID
        base = dict(eps=EPS_LADDER[0], L=LADDER_L, n_theta=nt, n_phi=nph)
        return (optimize.MinimizeConfig(
                    init_kind="random", init_seed=int(rng.integers(2 ** 31)),
                    init_scale=RANDOM_SCALE, **base),
                optimize.MinimizeConfig(
                    init_kind="bubble_pair",
                    init_t=float(rng.uniform(*BUBBLE_T)), **base))

    def pass_ops(self, p: int) -> list:
        return [(self.op_kind, partial(
                    self.ladder, cfg, partial(self.record, (p, j))
                    if p < self.count_passes else None))
                for j, cfg in enumerate(self.configs(p))]

    def replay_ops(self) -> list:
        return [fn for _, fn in self.pass_ops(0)[:1]]

    def ladder(self, cfg, on_stats=None) -> dict:
        with self.tr.span("optimize.continuation"):
            cont = optimize.continuation(EPS_LADDER, cfg)
        t0 = time.perf_counter()
        nbytes, bad_reads = self.rung_io(cont)
        self.samples.setdefault(self.aux_kind, []).append(
            time.perf_counter() - t0)
        self.last = cont.results[-1]
        stats = {
            "optimize.inner_iters": sum(e.inner_iters for r in cont.results
                                        for e in r.trace),
            "optimize.outer_iters": sum(len(r.trace) for r in cont.results),
            "optimize.converged": sum(s == optimize.STATUS_CONVERGED
                                      for s in cont.statuses),
            "optimize.rungs": len(cont.results),
            "optimize.ladders": 1,
            "io.bytes_written": nbytes,
        }
        if on_stats is not None:
            on_stats(stats)
        for r in cont.results:
            gate(r.status == optimize.STATUS_CONVERGED,
                 f"eps={r.eps}: status {r.status}")
            gate(r.constraint_violation < TOL_CONSTRAINT,
                 f"eps={r.eps}: violation {r.constraint_violation:.3e}")
            gate(r.el_residual_norm < TOL_RESIDUAL,
                 f"eps={r.eps}: EL norm {r.el_residual_norm:.3e}")
            kw = float(np.max(np.abs(r.kw_residual)))
            gate(kw < TOL_RESIDUAL, f"eps={r.eps}: |KW| {kw:.3e}")
        gate(not bad_reads, f"field read-back differs at eps {bad_reads}")
        return stats

    def rung_io(self, cont) -> tuple[int, list]:
        """Write each rung's field and report, read the fields back.

        Returns the bytes written and the eps of every rung whose field
        did not read back bit-exactly.
        """
        nbytes, bad = 0, []
        for k, res in enumerate(cont.results):
            lab = size(res.u_star.grid)
            fpath = self.workdir / f"rung{k}.field.bin"
            rpath = self.workdir / f"rung{k}.report.json"
            with self.tr.span("io.write_field", lab):
                io.write_field(fpath, res.u_star,
                               params={"eps": res.eps, "L": LADDER_L,
                                       "status": res.status})
            with self.tr.span("io.write_report"):
                io.write_report(rpath, res)
            nbytes += fpath.stat().st_size + rpath.stat().st_size
            with self.tr.span("io.read_field", lab):
                back = io.read_field(fpath).values
            if self.take_fault():
                back = back.copy()
                back.flat[0] += 1e-12
            if not same_bits(back, res.u_star.values):
                bad.append(res.eps)
        return nbytes, bad


class Hires(Workload):
    """The bubble-pair sweep at t_max = 32 on the grown 256x512 grid,
    with EL/KW verification of Moebius factors and Onofri-equality
    checks of spline pullbacks."""

    name = "hires"
    op_kind = "row"
    aux_kind = "verify"

    def __init__(self, *args, **kw):
        super().__init__(*args, **kw)
        self.big = self.get_grid(*cli.sweep_grid_sizes(
            SWEEP_T[1], cli.DEFAULT_N_THETA, cli.DEFAULT_N_PHI))
        self.small = self.get_grid(*LADDER_GRID)

    def pass_ops(self, p: int) -> list:
        # rows sit on both sides of the verification, so they sample
        # the machine at more points in time
        rng = self.rng(p)
        rows = [(self.op_kind, partial(self.row, float(t)))
                for t in rng.uniform(*SWEEP_T, ROWS_PER_PASS)]
        verify = (self.aux_kind, partial(
            self.verify, unit_vector(rng), float(rng.uniform(*VERIFY_T))))
        pullbacks = [("pullback", self.pullback_op(g, rng))
                     for g in (self.big, self.small)]
        half = ROWS_PER_PASS // 2
        return rows[:half] + [verify] + rows[half:] + pullbacks

    def pullback_op(self, g, rng):
        return partial(self.pullback, g, unit_vector(rng),
                       float(rng.uniform(*PULLBACK_T)), unit_vector(rng),
                       float(rng.uniform(*PULLBACK_T)))

    def row(self, t: float):
        """One `sweep` row: bubble_pair + evaluate, then the alpha columns."""
        lab = size(self.big)
        with self.tr.span("conformal.bubble_pair", lab):
            pair = conformal.bubble_pair(t, self.big)
        with self.tr.span("functional.evaluate", lab):
            rep = functional.evaluate(pair.field)
        row = [t, rep.avg_grad_sq, rep.avg_u, rep.log_avg_exp, rep.mass]
        row += [a * rep.avg_grad_sq + 2.0 * rep.avg_u - rep.log_avg_exp
                for a in SWEEP_ALPHAS]
        moments = rep.moments + (1.0 if self.take_fault() else 0.0)
        worst = float(np.max(np.abs(moments)))
        gate(worst <= TOL_MOMENTS, f"t={t}: max |moment| {worst:.3e}")
        gate(all(math.isfinite(v) for v in row), f"t={t}: non-finite row")

    def verify(self, pole: np.ndarray, t: float):
        """w_t solves -Lap w = e^{2w} - 1, the EL equation at eps = 1/2;
        el_residual also returns its Kazdan-Warner defects."""
        g = self.big
        w = conformal.mobius_factor(conformal.MobiusMap(pole, t), g)
        with self.tr.span("functional.el_residual", size(g)):
            rep = functional.el_residual(w, 0.5)
        gate(rep.el_residual_norm <= TOL_MOBIUS_EL,
             f"t={t}: EL norm {rep.el_residual_norm:.3e}")
        kw = float(np.max(np.abs(rep.kw_residual)))
        gate(kw <= TOL_MOBIUS_KW, f"t={t}: |KW| {kw:.3e}")

    def kazdan_warner(self, pole: np.ndarray, t: float):
        """The KW defects of v = 2 w_t - ln(4 pi), which has unit mass
        and solves Lap v + 8 pi e^v = 2, timed on their own."""
        g = self.big
        w = conformal.mobius_factor(conformal.MobiusMap(pole, t), g)
        v = grid.ScalarField(g, 2.0 * w.values - math.log(grid.FOUR_PI))
        with self.tr.span("functional.kazdan_warner_residual", size(g)):
            kw = functional.kazdan_warner_residual(
                v, grid.constant_field(g, 8.0 * math.pi), 2.0)
        worst = float(np.max(np.abs(kw)))
        gate(worst <= TOL_MOBIUS_KW, f"t={t}: |KW| {worst:.3e}")

    def pullback(self, g, pole_u, s, pole_map, t):
        """Pull back the Moebius factor w_s by another dilation: the
        result is again a conformal factor, so Onofri's J is zero."""
        lab = size(g)
        u = conformal.mobius_factor(conformal.MobiusMap(pole_u, s), g)
        with self.tr.span("conformal.mobius_pullback", lab):
            tu = conformal.mobius_pullback(u, conformal.MobiusMap(pole_map, t))
        with self.tr.span("functional.evaluate", lab):
            J = functional.evaluate(tu).onofri_J
        gate(abs(J) <= TOL_ONOFRI, f"{lab} s={s} t={t}: J {J:.3e}")


class Quadrature(Workload):
    """In-process `sphere-mt check` at three sizes, and criterion 4's
    tall rule with a round trip of its Green's-function field."""

    name = "quadrature"
    op_kind = "check"
    aux_kind = "tall_rule"
    count_passes = 1
    min_ops = CHECKS_PER_PASS
    cold_kinds = ("tall_rule", "tall_read")

    def __init__(self, *args, **kw):
        super().__init__(*args, **kw)
        self.tall_field = None      # written by tall_rule, read by tall_read

    def pass_ops(self, p: int) -> list:
        # the checks are split in thirds around the tall rule and its
        # read-back, so they sample the machine across the whole pass
        rng = self.rng(p)
        checks = [(self.op_kind, partial(self.check_round,
                                         int(rng.integers(2 ** 31))))
                  for _ in range(CHECKS_PER_PASS)]
        third = CHECKS_PER_PASS // 3
        return (checks[:third] + [(self.aux_kind, partial(self.tall_rule, p))]
                + checks[third:2 * third] + [("tall_read", self.tall_read)]
                + checks[2 * third:])

    def check_round(self, seed: int):
        for nt, nph in CHECK_SIZES:
            self.check(nt, nph, seed)

    def check(self, nt: int, nph: int, seed: int):
        argv = ["check", "--n-theta", str(nt), "--n-phi", str(nph),
                "--seed", str(seed)]
        with self.tr.span("cli.check", f"{nt}x{nph}"), \
                contextlib.redirect_stdout(_stdio.StringIO()):
            rc = cli.main(argv)
        if self.take_fault():
            rc = cli.EXIT_INVARIANT
        gate(rc == cli.EXIT_OK, f"check {nt}x{nph} seed {seed}: exit {rc}")

    def tall_path(self) -> Path:
        return self.workdir / "tall.field.bin"

    def tall_rule(self, p: int):
        """Build the tall rule, average G on it, write G to a file."""
        lab = f"{TALL[0]}x{TALL[1]}"
        with self.tr.span("grid.build_grid", lab):
            g = grid.build_grid(*TALL)
        with self.tr.span("conformal.green_two_pole", lab):
            green = conformal.green_two_pole(g)
        with self.tr.span("grid.average", lab):
            avg = grid.average(green)
        with self.tr.span("io.write_field", lab):
            io.write_field(self.tall_path(), green,
                           params={"kind": "green_two_pole"})
        self.tall_field = green
        if p < self.count_passes:
            self.record(("tall", p),
                        {"io.bytes_written": self.tall_path().stat().st_size})
        if self.take_fault():
            avg += 1.0
        gate(abs(avg) <= TOL_GREEN_AVG, f"|avg G| = {abs(avg):.3e}")

    def tall_read(self):
        """Read G back; read_field rebuilds the tall grid."""
        with self.tr.span("io.read_field", f"{TALL[0]}x{TALL[1]}"):
            back = io.read_field(self.tall_path())
        gate(same_bits(back.values, self.tall_field.values),
             "tall read-back differs")


WORKLOADS = {cls.name: cls for cls in (Ladder, Hires, Quadrature)}


def probe_ops(wl: Workload, want) -> list:
    """Operations that time, at the named sizes, each layer call the
    workload's own loop sampled too rarely.

    want(name, label) is how many more samples that span needs.  Inputs
    come from the workload seed; on `ladder` the 64x128 probes use the
    workload's own latest minimizer.  The first-call probe runs at once,
    before any other 256x512 work can build the tables it times.
    """
    tr = wl.tr
    rng = wl.rng(PROBE_STREAM)
    g64, g256 = wl.get_grid(*LADDER_GRID), wl.get_grid(256, 512)
    if want("harmonics.first_call", "256x512_L254"):
        tr.add("harmonics.first_call", "256x512_L254", first_call(g256, 254))
    ops = []

    def timed(name, label, fn):
        ops.extend(("probe", partial(_span_call, tr, name, label, fn))
                   for _ in range(want(name, label)))

    for nt, nph in CHECK_SIZES:
        timed("grid.build_grid", f"{nt}x{nph}", partial(grid.build_grid, nt, nph))

    if isinstance(wl, Ladder) and wl.last is not None:
        spec64 = harmonics.HarmonicSpectrum(L=LADDER_L, coeff=wl.last.coeff)
        u64, eps64 = wl.last.u_star, wl.last.eps
    else:
        coeff = RANDOM_SCALE * rng.standard_normal((LADDER_L + 1) ** 2)
        coeff[0] = 0.0
        spec64 = harmonics.HarmonicSpectrum(L=LADDER_L, coeff=coeff)
        u64, eps64 = harmonics.synthesize(spec64, g64), EPS_LADDER[-1]
    w256 = conformal.mobius_factor(
        conformal.MobiusMap(unit_vector(rng), float(rng.uniform(*VERIFY_T))),
        g256)
    spec256 = harmonics.analyze(w256, 254)
    for label, spec, g, f in (("64x128_L16", spec64, g64, u64),
                              ("256x512_L254", spec256, g256, w256)):
        timed("harmonics.synthesize", label, partial(harmonics.synthesize, spec, g))
        timed("harmonics.analyze", label, partial(harmonics.analyze, f, spec.L))
    for lab, f, eps in (("64x128", u64, eps64), ("256x512", w256, 0.5)):
        timed("functional.evaluate", lab, partial(functional.evaluate, f))
        timed("functional.el_residual", lab,
              partial(functional.el_residual, f, eps))

    hires = Hires(wl.seed, tr, wl.workdir, wl.grids)
    ops.extend(("probe", partial(hires.kazdan_warner, unit_vector(rng),
                                 float(rng.uniform(*VERIFY_T))))
               for _ in range(want("functional.kazdan_warner_residual", "256x512")))
    ops.extend(("probe", partial(hires.row, float(rng.uniform(*SWEEP_T))))
               for _ in range(want("conformal.bubble_pair", "256x512")))
    for g in (g64, g256):
        ops.extend(("probe", hires.pullback_op(g, rng))
                   for _ in range(want("conformal.mobius_pullback", size(g))))

    if want("optimize.continuation", ""):
        ladder = Ladder(wl.seed, tr, wl.workdir, {})
        ops.extend(("probe", partial(ladder.ladder, cfg,
                                     partial(wl.record, ("probe", j))))
                   for j, cfg in enumerate(ladder.configs(PROBE_STREAM)))

    quad = Quadrature(wl.seed, tr, wl.workdir, {})
    for nt, nph in CHECK_SIZES:
        ops.extend(("probe", partial(quad.check, nt, nph,
                                     int(rng.integers(2 ** 31))))
                   for _ in range(want("cli.check", f"{nt}x{nph}")))
    tall = f"{TALL[0]}x{TALL[1]}"
    if want("grid.build_grid", tall) or want("io.read_field", tall):
        ops += [("probe", partial(quad.tall_rule, PROBE_STREAM)),
                ("probe", quad.tall_read)]
    return ops


def _span_call(tr, name, label, fn):
    with tr.span(name, label):
        fn()
