import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphere_mt import FormatError, ScalarField, build_grid, minimize, MinimizeConfig
from sphere_mt.cli import main, sweep_grid_sizes
from sphere_mt.io import (format_cell, read_field, to_jsonable, write_csv,
                          write_field, write_report)


@pytest.fixture()
def sample_field(grid_small):
    rng = np.random.default_rng(17)
    vals = rng.standard_normal((grid_small.n_theta, grid_small.n_phi))
    return ScalarField(grid_small, vals)


# ------------------------------------------------------------ FieldFile

def test_binary_round_trip_is_bit_exact(tmp_path, sample_field):
    path = tmp_path / "f.field.bin"
    write_field(path, sample_field, params={"note": "test"})
    back = read_field(path)
    assert back.grid.n_theta == sample_field.grid.n_theta
    assert np.array_equal(back.values, sample_field.values)


def test_zonal_field_file_is_the_full_grid_and_reads_back_zonal(tmp_path):
    # a zonal field is stored as a broadcast column, but its file holds
    # every node, as a contiguous copy of the same values writes it
    from sphere_mt import bubble_pair, constant_field, green_two_pole
    from sphere_mt.io import _header
    g = build_grid(24, 48)
    for f in (bubble_pair(2.5, g).field, green_two_pole(g),
              constant_field(g, -0.75)):
        assert f.values.strides[1] == 0
        path = tmp_path / "z.field.bin"
        write_field(path, f, params={"t": 2.5})
        payload = np.ascontiguousarray(f.values).astype("<f8").tobytes()
        header = _header(f, {"t": 2.5}, hashlib.sha256(payload).hexdigest())
        assert path.read_bytes() == (json.dumps(header, sort_keys=True)
                                     .encode() + b"\n" + payload)
        back = read_field(path)
        assert back.values.strides[1] == 0
        assert back.values.tobytes() == f.values.tobytes()


def test_field_file_is_the_header_line_and_the_values(tmp_path):
    # the file is the sorted JSON header, a newline and the values as
    # little-endian float64, for a full and for a zonal field
    from sphere_mt import bubble_pair
    g = build_grid(24, 48)
    full = ScalarField(g, np.random.default_rng(5).standard_normal((24, 48)))
    for f in (full, bubble_pair(2.5, g).field):
        path = tmp_path / "f.field.bin"
        write_field(path, f, params={"t": 2.5})
        values = f.values.astype("<f8").tobytes()
        header = {"format_version": 1, "kind": "field", "encoding": "binary",
                  "n_theta": 24, "n_phi": 48, "count": 24 * 48,
                  "params": {"t": 2.5},
                  "sha256": hashlib.sha256(values).hexdigest()}
        assert path.read_bytes() == (json.dumps(header, sort_keys=True)
                                     .encode() + b"\n" + values)
        back = read_field(path)
        assert back.values.tobytes() == f.values.tobytes()
        assert back.values.strides == f.values.strides


def test_field_io_holds_one_copy_of_the_payload(tmp_path):
    # read_field views the payload of the file's bytes, so the field's own
    # copy is the only other one; write_field hashes and writes the
    # contiguous values themselves, which a zonal field must form once
    import tracemalloc
    from sphere_mt import bubble_pair
    g = build_grid(128, 256)
    nbytes = 8 * g.n_nodes
    full = ScalarField(g, np.random.default_rng(6).standard_normal((128, 256)))
    for f, write_bound in ((full, 0.5), (bubble_pair(3.0, g).field, 1.5)):
        path = tmp_path / "f.field.bin"
        write_field(path, f)
        read_field(path)  # warm every cache first
        tracemalloc.start()
        try:
            write_field(path, f)
            write_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            read_field(path)
            read_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert write_peak < write_bound * nbytes
        assert read_peak < 2.5 * nbytes


def test_json_encoded_field_is_a_format_error(tmp_path, sample_field, capsys):
    # binary is the only FieldFile encoding: a header line that embeds the
    # values (numeric or not) and no payload is malformed input
    path = tmp_path / "f.field.json"
    write_field(path, sample_field)
    header = json.loads(path.read_bytes().split(b"\n", 1)[0])
    header["encoding"] = "json"
    for values in (sample_field.values.ravel().tolist(),
                   ["x"] * sample_field.grid.n_nodes):
        header["values"] = values
        path.write_text(json.dumps(header, sort_keys=True) + "\n")
        with pytest.raises(FormatError):
            read_field(path)
        assert main(["check", "--field", str(path)]) == 3
        assert capsys.readouterr().err.startswith("format error:")


@pytest.mark.parametrize("n_theta, n_phi", [(0, 0), (1, 4), (-2, -4)])
def test_header_grid_below_minimum_is_a_format_error(tmp_path, capsys,
                                                     n_theta, n_phi):
    # count, payload and hash match the header, but no grid has this shape
    count = n_theta * n_phi
    payload = np.zeros(count, dtype="<f8").tobytes()
    header = {"format_version": 1, "kind": "field", "encoding": "binary",
              "n_theta": n_theta, "n_phi": n_phi, "count": count,
              "params": {}, "sha256": hashlib.sha256(payload).hexdigest()}
    path = tmp_path / "f.field.bin"
    path.write_bytes(json.dumps(header, sort_keys=True).encode() + b"\n" + payload)
    with pytest.raises(FormatError):
        read_field(path)
    assert main(["check", "--field", str(path)]) == 3
    assert capsys.readouterr().err.startswith("format error:")


@pytest.mark.parametrize("sizes", [
    {"n_theta": 8.9, "count": 128.4},           # int() truncated both
    {"n_theta": 8.0, "n_phi": 16.0, "count": 128.0},
    {"n_theta": "8", "n_phi": "16", "count": "128"},
    {"n_phi": True},
])
def test_header_sizes_must_be_json_integers(tmp_path, capsys, sizes):
    # an 8x16 payload whose count and hash match; only the size types differ
    payload = np.zeros(128, dtype="<f8").tobytes()
    header = {"format_version": 1, "kind": "field", "encoding": "binary",
              "n_theta": 8, "n_phi": 16, "count": 128, "params": {},
              "sha256": hashlib.sha256(payload).hexdigest(), **sizes}
    path = tmp_path / "f.field.bin"
    path.write_bytes(json.dumps(header, sort_keys=True).encode() + b"\n" + payload)
    with pytest.raises(FormatError, match="not an integer"):
        read_field(path)
    assert main(["evaluate", "--field", str(path)]) == 3
    assert capsys.readouterr().err.startswith("format error:")


def test_corrupted_payload_detected(tmp_path, sample_field):
    path = tmp_path / "f.field.bin"
    write_field(path, sample_field)
    blob = bytearray(path.read_bytes())
    blob[-5] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError):
        read_field(path)


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(st.integers(2, 40), st.integers(4, 81), st.integers(0, 2 ** 32 - 1),
       st.data())
def test_property_field_file_round_trip_and_corruption(n_theta, n_phi, seed,
                                                        data):
    # random bit patterns cover subnormals, -0.0 and both extremes; a
    # non-finite pattern (1 in 2048) becomes 0.0
    rng = np.random.default_rng(seed)
    values = rng.integers(0, 2 ** 64, (n_theta, n_phi),
                          dtype=np.uint64).view(float)
    values[~np.isfinite(values)] = 0.0
    f = ScalarField(build_grid(n_theta, n_phi), values)
    # hypothesis runs a test many times per fixture, hence no tmp_path
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "f.field.bin"
        write_field(path, f)
        back = read_field(path)
        assert back.grid is f.grid
        assert back.values.tobytes() == f.values.tobytes()

        blob = bytearray(path.read_bytes())
        i = data.draw(st.integers(blob.index(b"\n") + 1, len(blob) - 1))
        blob[i] ^= data.draw(st.integers(1, 255))
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="payload hash mismatch"):
            read_field(path)


def test_truncated_payload_detected(tmp_path, sample_field):
    path = tmp_path / "f.field.bin"
    write_field(path, sample_field)
    blob = path.read_bytes()
    path.write_bytes(blob[:-16])
    with pytest.raises(FormatError):
        read_field(path)


def test_garbage_header_detected(tmp_path):
    path = tmp_path / "junk"
    path.write_bytes(b"\x00\x01\x02 not a header\nmore junk")
    with pytest.raises(FormatError):
        read_field(path)


def test_header_shape_mismatch_detected(tmp_path, sample_field):
    import json as _json
    path = tmp_path / "f.field.bin"
    write_field(path, sample_field)
    blob = path.read_bytes()
    cut = blob.index(b"\n")
    header = _json.loads(blob[:cut])
    header["count"] = header["count"] - 1
    path.write_bytes(_json.dumps(header, sort_keys=True).encode() + blob[cut:])
    with pytest.raises(FormatError):
        read_field(path)


def test_nan_payload_detected(tmp_path, sample_field):
    path = tmp_path / "f.field.bin"
    vals = sample_field.values.copy()
    write_field(path, sample_field)
    blob = bytearray(path.read_bytes())
    header_len = blob.index(b"\n") + 1
    import hashlib, json as _json
    bad = vals.copy()
    bad[0, 0] = np.nan
    payload = np.ascontiguousarray(bad, dtype="<f8").tobytes()
    header = _json.loads(blob[:header_len - 1])
    header["sha256"] = hashlib.sha256(payload).hexdigest()
    path.write_bytes(_json.dumps(header, sort_keys=True).encode() + b"\n" + payload)
    with pytest.raises(FormatError):
        read_field(path)


# ------------------------------------------------------------- reports

def test_report_floats_round_trip(tmp_path):
    res = minimize(MinimizeConfig(eps=0.25, L=8, n_theta=24, n_phi=48,
                                  init_kind="random", init_seed=4,
                                  init_scale=0.05))
    path = tmp_path / "run.report.json"
    write_report(path, res)
    data = json.loads(path.read_text())
    assert data["type"] == "MinimizeResult"
    assert data["status"] == res.status
    assert data["value"] == res.value  # repr round trip is exact
    assert data["trace"][0]["mass"] == res.trace[0].mass
    # strict JSON: reparse with no NaN allowed
    json.loads(path.read_text(), parse_constant=lambda c: pytest.fail(c))


def test_to_jsonable_handles_fields_and_arrays(grid_small):
    f = ScalarField(grid_small, np.zeros((24, 48)))
    out = to_jsonable({"field": f, "arr": np.arange(3.0), "nanval": float("nan")})
    assert out["field"]["n_theta"] == 24
    assert out["arr"] == [0.0, 1.0, 2.0]
    assert out["nanval"] is None


def test_to_jsonable_arrays_match_elementwise_conversion():
    # a finite numeric array is one tolist(); any non-finite entry sends
    # it through the per-entry path, which maps NaN and Inf to null
    def elementwise(a):
        return [to_jsonable(v) for v in a.tolist()]

    rng = np.random.default_rng(8)
    cases = [rng.standard_normal(289), np.arange(5), np.array([True, False]),
             np.zeros(0), np.float32([0.1, 2.5]), np.array([-0.0, 5e-324]),
             rng.standard_normal((3, 4)), np.array([1.0, np.nan, -np.inf]),
             np.array([[1.5, np.inf], [2.0, 3.0]])]
    for a in cases:
        out = to_jsonable(a)
        assert json.dumps(out) == json.dumps(elementwise(a))
    assert to_jsonable(cases[-2]) == [1.0, None, None]
    assert to_jsonable(cases[-1]) == [[1.5, None], [2.0, 3.0]]
    with pytest.raises(TypeError):
        to_jsonable(np.array([1j]))


def test_csv_cells_round_trip(tmp_path):
    rows = [[1.0 / 3.0, np.float64(0.1), 7], [2.0 ** -40, 1e300, -1]]
    path = tmp_path / "t.csv"
    text = write_csv(path, ["a", "b", "c"], rows)
    lines = text.strip().split("\n")
    assert lines[0] == "a,b,c"
    for line, row in zip(lines[1:], rows):
        cells = line.split(",")
        assert float(cells[0]) == float(row[0])
        assert float(cells[1]) == float(row[1])
    assert path.read_text() == text
    assert format_cell(1.0 / 3.0) == repr(1.0 / 3.0)


# ----------------------------------------------------------------- CLI

def test_cli_check_passes_on_default_grid(capsys):
    assert main(["check", "--n-theta", "32", "--n-phi", "64"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


@pytest.mark.parametrize("n_theta", [2, 4, 7])
def test_cli_check_passes_on_grids_that_resolve_no_dilation(capsys, n_theta):
    # max_bubble_t < 1 below n_theta = 8: the conformal invariants are
    # skipped there, not run at a dilation t < 1
    argv = ["check", "--n-theta", str(n_theta), "--n-phi", str(2 * n_theta),
            "--L", "0"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out and "conformal." not in out


def test_cli_check_rejects_unresolvable_degree(capsys):
    # anti-aliasing precondition: n_theta=2 cannot carry L=16
    assert main(["check", "--n-theta", "2", "--n-phi", "4", "--L", "16"]) == 2
    # a grid size of 0 is rejected, not replaced by the default
    assert main(["evaluate", "--n-theta", "0", "--n-phi", "0"]) == 2
    assert main(["evaluate", "--n-phi", "0"]) == 2
    assert main(["minimize", "--eps", "0.2", "--n-theta", "0"]) == 2


# Malformed run parameters, non-finite numbers and missing files: each is
# a named error with its exit code, never a traceback or a printed result.
_MISSING = "{missing}"


@pytest.mark.parametrize("argv, code", [
    (["minimize", "--continuation", "0.4,0.3", "--max-outer", "0"], 2),
    (["minimize", "--continuation", ","], 2),
    (["minimize", "--continuation", ""], 2),
    (["minimize", "--eps", "0.2", "--max-outer", "-1"], 2),
    (["minimize", "--eps", "0.2", "--max-inner", "-1"], 2),
    (["minimize", "--eps", "0.2", "--L", "-1"], 2),
    (["check", "--L", "-1"], 2),
    (["minimize", "--eps", "0.2", "--tol-grad", "nan"], 2),
    (["minimize", "--eps", "0.2", "--init", "file"], 2),
    (["minimize", "--eps", "0.25", "--init-file", _MISSING], 2),
    (["minimize", "--continuation", "0.4,0.3", "--init", "random",
      "--init-file", _MISSING], 2),
    (["evaluate", "--eps", "1"], 2),
    (["evaluate", "--eps", "1.5"], 2),
    (["evaluate", "--alpha", "nan"], 2),
    (["evaluate", "--make-bubble-pair", "100", "--n-theta", "24",
      "--n-phi", "47"], 2),
    (["evaluate", "--make-bubble-pair", "100", "--n-theta", "24",
      "--n-phi", "48"], 2),
    (["sweep", "--alpha-list", "nan"], 2),
    (["sweep", "--t-max", "inf"], 2),
    # grids too large to allocate: numpy refuses the 28.4 PiB node array
    # before it touches memory
    (["sweep", "--t-max", "1e15"], 2),
    (["evaluate", "--n-theta", "8000000000000000", "--n-phi", "4"], 2),
    (["expansion", "--t-list", "nan"], 2),
    (["expansion", "--R-list", "inf"], 2),
    # 2 pi R^2 overflows, R^2 underflows to 0, or QUADPACK does not converge
    (["expansion", "--R-list", "1e200"], 2),
    (["expansion", "--R-list", "1e-200"], 2),
    (["expansion", "--R-list", "1e-162"], 2),
    (["expansion", "--R-list", "1e100"], 2),
    (["evaluate", "--field", _MISSING], 3),
    (["check", "--field", _MISSING], 3),
    (["minimize", "--eps", "0.2", "--init", "file", "--init-file", _MISSING], 3),
], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_cli_rejects_malformed_input_with_one_line(argv, code, tmp_path, capsys):
    missing = str(tmp_path / "missing.field.bin")
    assert main([missing if a == _MISSING else a for a in argv]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert "Traceback" not in captured.err


def test_cli_minimize_rejects_an_init_file_of_another_grid(tmp_path, capsys):
    path = tmp_path / "start.field.bin"
    write_field(path, ScalarField(build_grid(64, 128), np.zeros((64, 128))))
    assert main(["minimize", "--eps", "0.2", "--n-theta", "48",
                 "--n-phi", "96", "--init", "file",
                 "--init-file", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "precondition violated: init field grid (64, 128) does not match "
        "run grid (48, 96)"]


def test_cli_check_reports_format_error(tmp_path):
    bad = tmp_path / "bad.field.bin"
    bad.write_bytes(b"garbage\x00\x01")
    assert main(["check", "--field", str(bad)]) == 3


def test_cli_check_exit_1_names_first_failure(monkeypatch, capsys):
    from sphere_mt import cli as cli_mod

    def rigged(grid, L, seed):
        yield ("demo.ok", True, "fine")
        yield ("demo.broken", False, "off by one")
        yield ("demo.also_broken", False, "worse")

    monkeypatch.setattr(cli_mod, "_check_suite", rigged)
    assert main(["check"]) == 1
    captured = capsys.readouterr()
    assert "FAIL  demo.broken" in captured.out
    assert "first failing invariant: demo.broken" in captured.err


def test_cli_usage_error_is_64(capsys):
    with pytest.raises(SystemExit) as info:
        main(["minimize"])  # neither --eps nor --continuation
    assert info.value.code == 64
    with pytest.raises(SystemExit) as info:
        main(["no-such-command"])
    assert info.value.code == 64


def test_cli_cached_parser_is_reused_safely(capsys):
    # one parser serves every in-process call; each call prints and
    # returns exactly what it does on a freshly built parser, so no flag
    # or default leaks from one call into the next
    from sphere_mt import cli as cli_mod

    def run(argv):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = ("SystemExit", exc.code)
        captured = capsys.readouterr()
        return rc, captured.out, captured.err

    calls = [["check", "--L", "3"], ["check"], ["check", "--bogus"],
             ["evaluate", "--make-bubble-pair", "4"], ["evaluate"]]
    parser = cli_mod.build_parser()
    cached = [run(argv) for argv in calls]
    assert cli_mod.build_parser() is parser
    fresh = []
    for argv in calls:
        cli_mod.build_parser.cache_clear()
        fresh.append(run(argv))
    assert cached == fresh
    assert cached[0][0] == 0 and "L=3," in cached[0][1]
    round_trip = [line for line in cached[1][1].splitlines()
                  if "transform.round_trip" in line]
    assert cached[1][0] == 0 and "L=16," in round_trip[0]
    assert cached[2][0] == ("SystemExit", 64) and cached[2][1] == ""
    assert [rc for rc, _, _ in cached[3:]] == [0, 0]
    assert json.loads(cached[3][1])["mass"] != json.loads(cached[4][1])["mass"]


@pytest.mark.parametrize("shape", [(48, 96), (65, 130), (256, 512)])
def test_cli_curvature_equation_is_the_full_grid_max(shape):
    # check takes max|Lap w + exp(2w) - 1| over the columns of the two
    # zonal fields; a max is exact, so it is bitwise the full-grid max
    from sphere_mt import conformal, functional, harmonics
    from sphere_mt.cli import _check_suite
    from sphere_mt.grid import _column

    grid = build_grid(*shape)
    details = {name: detail for name, _, detail in _check_suite(grid, 16, 42)}
    t = min(4.0, conformal.max_bubble_t(grid))
    w = conformal.mobius_factor(conformal.MobiusMap(conformal.NORTH, t), grid)
    lap = harmonics._field_laplacian(w)
    e2w = functional._exp2(grid, w.values)
    assert lap.strides[1] == 0 and e2w.strides[1] == 0
    full = float(np.max(np.abs(np.ascontiguousarray(lap)
                               + np.ascontiguousarray(e2w) - 1.0)))
    column = float(np.max(np.abs(_column(lap) + _column(e2w) - 1.0)))
    assert column.hex() == full.hex()
    assert (details["conformal.curvature_equation"]
            == f"t={t}, max residual = {full:.3e}")


def test_cli_evaluate_zero_field(capsys):
    assert main(["evaluate", "--n-theta", "24", "--n-phi", "48"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert abs(data["improved_I"]) <= 1e-13
    assert abs(data["onofri_J"]) <= 1e-13
    assert max(abs(m) for m in data["moments"]) <= 1e-13


def test_cli_evaluate_bubble_pair_moments(capsys):
    assert main(["evaluate", "--make-bubble-pair", "4",
                 "--alpha", "0.4"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert max(abs(m) for m in data["moments"]) <= 1e-10
    assert data["alpha"] == 0.4


def test_cli_evaluate_field_rejects_grid_flags(tmp_path, capsys):
    # the file fixes the grid, so explicit grid flags are a usage error
    path = tmp_path / "u.field.bin"
    write_field(path, ScalarField(build_grid(8, 16), np.zeros((8, 16))))
    for flags in (["--n-theta", "3", "--n-phi", "4"], ["--n-phi", "128"],
                  ["--n-theta", "64"]):
        assert main(["evaluate", "--field", str(path)] + flags) == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert "--field" in captured.err and "--n-theta" in captured.err
    assert main(["evaluate", "--field", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["mass"] > 0.0


def test_cli_evaluate_overflowing_field_exits_10(tmp_path):
    grid = build_grid(8, 16)
    f = ScalarField(grid, np.full((8, 16), 400.0))
    path = tmp_path / "hot.field.bin"
    write_field(path, f)
    assert main(["evaluate", "--field", str(path)]) == 10


def test_cli_sweep_table(capsys):
    assert main(["sweep", "--t-min", "2", "--t-max", "6", "--steps", "3",
                 "--alpha-list", "0.4,0.6"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0].startswith("t,avg_grad_sq,avg_u,log_avg_exp,mass")
    assert len(lines) == 4
    first = [float(x) for x in lines[1].split(",")]
    assert first[0] == 2.0


def test_sweep_grid_sizes_keeps_a_requested_n_phi():
    # a grown grid takes n_theta = 8 t_max and at least 2 n_theta longitudes
    assert sweep_grid_sizes(32.0, 64, 128) == (256, 512)
    assert sweep_grid_sizes(32.0, 32, 1024) == (256, 1024)
    assert sweep_grid_sizes(4.0, 64, 130) == (64, 130)


def test_cli_sweep_deterministic(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    args = ["sweep", "--t-min", "2", "--t-max", "4", "--steps", "3",
            "--alpha-list", "0.5"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_cli_minimize_writes_outputs(tmp_path, capsys):
    prefix = tmp_path / "run"
    code = main(["minimize", "--eps", "0.25", "--init", "zero",
                 "--out-prefix", str(prefix)])
    assert code == 0
    report = json.loads(Path(f"{prefix}.report.json").read_text())
    assert report["status"] == "converged"
    assert report["value"] <= 1e-8
    field = read_field(f"{prefix}.field.bin")
    assert np.all(field.values == 0.0)


def test_cli_minimize_continuation(tmp_path):
    prefix = tmp_path / "cont"
    code = main(["minimize", "--continuation", "0.4,0.3,0.2",
                 "--out-prefix", str(prefix)])
    assert code == 0
    report = json.loads(Path(f"{prefix}.report.json").read_text())
    assert report["classification"] == "compact"
    assert len(report["results"]) == 3


def test_cli_ladder_classified_blowing_up_exits_10(monkeypatch, capsys):
    # every run converges, but a ladder whose masses explode is classified
    # blowing_up and must exit as a blow-up, not 0
    from dataclasses import replace
    from sphere_mt import cli as cli_mod

    real = cli_mod.optimize.continuation

    def rigged(eps_list, base):
        return replace(real(eps_list, base), classification="blowing_up")

    monkeypatch.setattr(cli_mod.optimize, "continuation", rigged)
    code = main(["minimize", "--continuation", "0.4,0.3", "--L", "8",
                 "--n-theta", "24", "--n-phi", "48"])
    report = json.loads(capsys.readouterr().out)
    assert set(report["statuses"]) == {"converged"}
    assert report["classification"] == "blowing_up"
    assert code == 10


def test_cli_expansion_table(capsys):
    assert main(["expansion", "--t-list", "2", "--R-list", "1,10"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    header = lines[0].split(",")
    assert "I1_closed" in header and "obstruction" in header
    row = dict(zip(header, [float(x) for x in lines[1].split(",")]))
    assert row["obstruction"] == pytest.approx(1.0 - np.log(2.0), abs=1e-15)
    assert row["I1_numeric"] == pytest.approx(row["I1_closed"], rel=1e-6)


# ------------------------------------------------------------- package

def test_package_all_lists_resolvable_non_module_names():
    import types

    import sphere_mt

    assert len(set(sphere_mt.__all__)) == len(sphere_mt.__all__)
    for name in sphere_mt.__all__:
        assert not isinstance(getattr(sphere_mt, name), types.ModuleType), name
    # a submodule importing io at top level must not shadow the stdlib io
    namespace = {}
    exec("from sphere_mt import *", namespace)
    assert "io" not in namespace


def test_evaluate_loads_neither_scipy_interpolate_nor_integrate():
    # only the expansion report loads scipy.integrate, nothing in the
    # package loads scipy.interpolate, and both are most of scipy's import
    # time; a fresh interpreter shows what importing sphere_mt and running
    # evaluate loads
    import sphere_mt

    src = str(Path(sphere_mt.__file__).resolve().parents[1])
    code = ("import sys, sphere_mt\n"
            "from sphere_mt.cli import main\n"
            "assert main(['evaluate']) == 0\n"
            "loaded = [m for m in ('scipy.interpolate', 'scipy.integrate')\n"
            "          if m in sys.modules]\n"
            "assert not loaded, loaded\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr


def test_check_and_pullbacks_load_neither_scipy_interpolate_nor_linalg():
    # the pullback splines are numpy banded fits: check (whose pullback
    # is zonal), an axis pullback of a bubble pair and an off-axis
    # pullback load no scipy.interpolate, nor scipy.linalg in its place
    import sphere_mt

    src = str(Path(sphere_mt.__file__).resolve().parents[1])
    code = ("import sys\n"
            "import numpy as np\n"
            "from sphere_mt import (MobiusMap, bubble_pair, build_grid,\n"
            "                       mobius_factor, mobius_pullback)\n"
            "from sphere_mt.cli import main\n"
            "assert main(['check']) == 0\n"
            "g = build_grid(64, 128)\n"
            "north = MobiusMap(np.array([0.0, 0.0, 1.0]), 2.0)\n"
            "mobius_pullback(bubble_pair(2.0, g).field, north)\n"
            "tilted = MobiusMap(np.array([1.0, 2.0, 2.0]) / 3.0, 1.5)\n"
            "mobius_pullback(mobius_factor(tilted, g), MobiusMap(\n"
            "    np.array([0.6, 0.0, 0.8]), 2.0))\n"
            "loaded = [m for m in ('scipy.interpolate', 'scipy.linalg')\n"
            "          if m in sys.modules]\n"
            "assert not loaded, loaded\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
