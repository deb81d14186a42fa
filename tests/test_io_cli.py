import json

import numpy as np
import pytest

from sphere_mt import FormatError, ScalarField, build_grid, minimize, MinimizeConfig
from sphere_mt.cli import main
from sphere_mt.io import (format_cell, read_field, read_report,
                          to_jsonable, write_csv, write_field, write_report)


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


def test_json_round_trip_is_bit_exact(tmp_path, sample_field):
    path = tmp_path / "f.field.json"
    write_field(path, sample_field, encoding="json")
    back = read_field(path)
    assert np.array_equal(back.values, sample_field.values)


def test_corrupted_payload_detected(tmp_path, sample_field):
    path = tmp_path / "f.field.bin"
    write_field(path, sample_field)
    blob = bytearray(path.read_bytes())
    blob[-5] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError):
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
    data = read_report(path)
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
    (["evaluate", "--eps", "1"], 2),
    (["evaluate", "--eps", "1.5"], 2),
    (["evaluate", "--alpha", "nan"], 2),
    (["sweep", "--alpha-list", "nan"], 2),
    (["sweep", "--t-max", "inf"], 2),
    (["expansion", "--t-list", "nan"], 2),
    (["expansion", "--R-list", "inf"], 2),
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
    report = read_report(f"{prefix}.report.json")
    assert report["status"] == "converged"
    assert report["value"] <= 1e-8
    field = read_field(f"{prefix}.field.bin")
    assert np.all(field.values == 0.0)


def test_cli_minimize_continuation(tmp_path):
    prefix = tmp_path / "cont"
    code = main(["minimize", "--continuation", "0.4,0.3,0.2",
                 "--out-prefix", str(prefix)])
    assert code == 0
    report = read_report(f"{prefix}.report.json")
    assert report["classification"] == "compact"
    assert len(report["results"]) == 3


def test_cli_expansion_table(capsys):
    assert main(["expansion", "--t-list", "2", "--R-list", "1,10"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    header = lines[0].split(",")
    assert "I1_closed" in header and "obstruction" in header
    row = dict(zip(header, [float(x) for x in lines[1].split(",")]))
    assert row["obstruction"] == pytest.approx(1.0 - np.log(2.0), abs=1e-15)
    assert row["I1_numeric"] == pytest.approx(row["I1_closed"], rel=1e-6)


def test_cli_grid_env_override(monkeypatch, capsys):
    monkeypatch.setenv("SPHERE_MT_GRID", "16x32")
    assert main(["evaluate"]) == 0
    # zero field on the overridden grid still reports I = 0
    data = json.loads(capsys.readouterr().out)
    assert abs(data["improved_I"]) <= 1e-13
    monkeypatch.setenv("SPHERE_MT_GRID", "bogus")
    assert main(["evaluate"]) == 2


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
