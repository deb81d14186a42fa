"""Golden-output contract for the sphere-mt command line.

Each case runs one CLI command in-process and compares its exit code and
parsed stdout with a committed reference in tests/golden/<case>.json.
Every output field is compared under the single tolerance table
TOLERANCES, looked up by field name; a field the table does not name
fails the test, so a new output field needs a decision here.  Iteration
counts and trace lengths are not compared: only the last trace entry of
each run is.

tests/golden/regen.py reruns the cases, prints every field that would
move and, with --write, rewrites the references.
"""

import contextlib
import csv
import io
import json
import math
from pathlib import Path

import pytest

from sphere_mt.cli import main, sweep_grid_sizes

from _oracles import (FOUR_PI, pair_energy, pair_i_alpha, pair_mass,
                      single_bubble_average)

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

_LADDER = ["minimize", "--continuation", "0.4,0.3,0.2,0.1,0.05"]
CASES = {
    "check": ["check"],
    "check_256x512": ["check", "--n-theta", "256", "--n-phi", "512",
                      "--L", "100", "--seed", "7"],
    "evaluate": ["evaluate"],
    "evaluate_bubble_pair": ["evaluate", "--make-bubble-pair", "4",
                             "--alpha", "0.4", "--eps", "0.2"],
    "sweep": ["sweep", "--t-min", "2", "--t-max", "32", "--steps", "9"],
    "minimize_random": ["minimize", "--eps", "0.25", "--init", "random",
                        "--seed", "3"],
    "minimize_blowup": ["minimize", "--eps", "0.25", "--init", "random",
                        "--seed", "3", "--scale", "20"],
    "ladder_random": _LADDER + ["--init", "random", "--seed", "11"],
    "ladder_bubble_pair": _LADDER + ["--init", "bubble-pair", "--t", "3.7"],
    "expansion": ["expansion"],
}

# (relative, absolute) bounds: a number passes if
# |new - ref| <= max(relative * |ref|, absolute).  Non-numbers compare with ==.
EXACT = (0.0, 0.0)
# Value-level numbers; the absolute floor covers moments that are 0 by symmetry.
VALUE = (1e-12, 1e-14)
# Minimizer iterate-level outputs, the gate the acceptance tests and perfbench
# apply: the bubble-pair ladder ends at u = 0 with each of these near 1e-8,
# where any change to the exp(2u) arithmetic moves them by up to ~1e-7.
ITERATE = (0.0, 1e-6)
# Iteration counts and the penalty they reach describe the path, not the result.
NOT_COMPARED = None

TOLERANCES = {
    # the run and its outcome
    "argv": EXACT, "exit_code": EXACT, "type": EXACT, "status": EXACT,
    "statuses": EXACT, "classification": EXACT, "stop_reason": EXACT,
    "header": EXACT, "n_theta": EXACT, "n_phi": EXACT, "eps": EXACT,
    "eps_list": EXACT, "alpha": EXACT,
    # check: the printed residuals are roundoff, gated by PASS/FAIL itself
    "invariant": EXACT, "result": EXACT,
    # evaluate, sweep and expansion numbers; the minimizer's value level
    "rows": VALUE, "avg_grad_sq": VALUE, "avg_u": VALUE,
    "log_avg_exp": VALUE, "mass": VALUE, "masses": VALUE, "moments": VALUE,
    "normalized_moments": VALUE, "onofri_J": VALUE, "improved_I": VALUE,
    "shifted_I": VALUE, "i_alpha": VALUE, "i_eps": VALUE, "value": VALUE,
    "objective": VALUE,
    # minimizer iterate level
    "coeff": ITERATE, "min": ITERATE, "max": ITERATE, "max_u": ITERATE,
    "max_values": ITERATE, "multipliers": ITERATE,
    "constraint_violation": ITERATE, "violation": ITERATE,
    "grad_norm": ITERATE, "el_residual_norm": ITERATE,
    "kw_residual": ITERATE,
    # the path taken
    "outer": NOT_COMPARED, "inner_iters": NOT_COMPARED, "mu": NOT_COMPARED,
}

# Container fields: compared field by field, not by one rule.
_CONTAINERS = {"output", "results", "trace", "u_star"}
_UNNAMED = object()


def parse_stdout(command: str, text: str):
    """check: one {invariant, result} per line; sweep and expansion: the
    CSV header and float rows; every other command: its JSON report."""
    if command == "check":
        return [dict(zip(("result", "invariant"), line.split()[:2]))
                for line in text.splitlines()]
    if command in ("sweep", "expansion"):
        header, *rows = csv.reader(io.StringIO(text))
        return {"header": header,
                "rows": [[float(cell) for cell in row] for row in rows]}
    return json.loads(text)


def run_case(name: str) -> dict:
    """Run one case in-process; the document its reference stores."""
    argv = CASES[name]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return {"argv": argv, "exit_code": code,
            "output": parse_stdout(argv[0], out.getvalue())}


def reference_path(name: str) -> Path:
    return GOLDEN_DIR / f"{name}.json"


def field_diffs(ref, new, path="", rule=_UNNAMED):
    """Yield (path, ref, new, verdict) for every field where new differs
    from ref, and for every field TOLERANCES does not name; verdict is
    "within", "not compared" or starts with "OUTSIDE"."""
    if isinstance(ref, dict):
        if not isinstance(new, dict) or ref.keys() != new.keys():
            yield (f"{path}.keys", sorted(ref),
                   sorted(new) if isinstance(new, dict) else new, "OUTSIDE")
            return
        for key in ref:
            a, b = ref[key], new[key]
            if key == "trace":
                a, b = a[-1:], b[-1:]
            sub = rule if key in _CONTAINERS else TOLERANCES.get(key, _UNNAMED)
            yield from field_diffs(a, b, f"{path}.{key}", sub)
    elif isinstance(ref, list):
        if not isinstance(new, list) or len(ref) != len(new):
            yield path, ref, new, "OUTSIDE"
            return
        for i, (a, b) in enumerate(zip(ref, new)):
            yield from field_diffs(a, b, f"{path}[{i}]", rule)
    elif rule is _UNNAMED:
        yield path, ref, new, "OUTSIDE (no tolerance for this field)"
    elif ref == new:
        return
    elif rule is NOT_COMPARED:
        yield path, ref, new, "not compared"
    elif _is_number(ref) and _is_number(new):
        rel, floor = rule
        ok = abs(new - ref) <= max(rel * abs(ref), floor)
        yield path, ref, new, "within" if ok else "OUTSIDE"
    else:
        yield path, ref, new, "OUTSIDE"


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden_reference(name):
    path = reference_path(name)
    assert path.is_file(), f"no reference {path.name}; run tests/golden/regen.py --write"
    ref = json.loads(path.read_text(encoding="utf-8"))
    bad = [d for d in field_diffs(ref, run_case(name)) if d[3].startswith("OUTSIDE")]
    assert not bad, "\n".join(f"{p}: {a!r} -> {b!r} {v}" for p, a, b, v in bad)


def test_every_reference_has_a_case():
    assert sorted(p.stem for p in GOLDEN_DIR.glob("*.json")) == sorted(CASES)


def pair_columns(t: float) -> dict:
    """The bubble pair's avg_grad_sq, avg_u, log_avg_exp and mass at
    dilation t from the 1-D oracles."""
    mass = pair_mass(t)
    return {"avg_grad_sq": pair_energy(t) / FOUR_PI,
            "avg_u": 2.0 * single_bubble_average(t),
            "log_avg_exp": math.log(mass / FOUR_PI), "mass": mass}


def test_bubble_pair_references_lie_near_the_oracle():
    # the references are regenerated from the code, so a rewrite is also
    # judged against the true values: the 1-D oracles (validated up to
    # t = 256), with a bound per grid.  On the sweep the largest
    # distances sit at t = 32, and a 40-digit quadrature puts them in the
    # code (avg_grad_sq -1.04e-12, log_avg_exp -1.16e-12), not the oracle
    sweep = json.loads(reference_path("sweep").read_text(encoding="utf-8"))
    assert sweep_grid_sizes(32.0, 64, 128) == (256, 512)
    header, rows = sweep["output"]["header"], sweep["output"]["rows"]
    assert header[1:5] == ["avg_grad_sq", "avg_u", "log_avg_exp", "mass"]
    assert header[5:] == ["I_alpha[0.4]", "I_alpha[0.5]", "I_alpha[0.6]"]
    assert max(row[0] for row in rows) <= 32.0
    for row in rows:  # 256x512, t = 2 ... 32
        t = row[0]
        for alpha, value in zip((0.4, 0.5, 0.6), row[5:]):
            assert abs(value - pair_i_alpha(t, alpha)) <= 1e-12, (t, alpha)
        oracle = pair_columns(t)
        for name, value in zip(header[1:4], row[1:4]):
            bound = 1e-14 if name == "avg_u" else 2e-12
            assert abs(value - oracle[name]) <= bound, (t, name)
        assert abs(row[4] - oracle["mass"]) <= 2e-12 * oracle["mass"], (t, "mass")

    ref = json.loads(reference_path("evaluate_bubble_pair").read_text(encoding="utf-8"))
    out = ref["output"]  # 64x128, t = 4
    assert ref["argv"][:3] == ["evaluate", "--make-bubble-pair", "4"]
    assert abs(out["i_alpha"] - pair_i_alpha(4.0, out["alpha"])) <= 1e-13
    for name, value in pair_columns(4.0).items():
        assert abs(out[name] - value) <= 1e-14, name
