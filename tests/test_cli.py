"""Command-line interface: formats, determinism, exit codes, schema."""

import csv
import io
import json
import math
import os
import re
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from holoent import (
    StateTensor,
    ToeplitzMatrix,
    bell_vector,
    kernel_basis,
    near_product_entropy,
    page_mean,
)
from holoent import cli
from holoent.cli import main, render_json

GOLDEN = Path(__file__).parent / "golden"

SCHEMA = json.loads(
    resources.files("holoent").joinpath("schemas/output.schema.json").read_text()
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    comments = {}
    body = []
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            comments[key] = value
        elif line:
            body.append(line)
    rows = list(csv.reader(io.StringIO("\n".join(body))))
    return comments, rows[0], rows[1:]


def validate_json(text):
    payload = json.loads(text)
    jsonschema.validate(payload, SCHEMA)
    return payload


def test_bk_series_reproduces_decay_table(capsys):
    code, out, _ = run_cli(capsys, "bk-series", "--k-max", "10")
    assert code == 0
    comments, header, rows = parse_csv(out)
    assert comments["command"] == "bk-series"
    assert header == ["k", "entropy"]
    assert len(rows) == 10
    values = [float(r[1]) for r in rows]
    assert values[0] == pytest.approx(math.log(2), abs=1e-15)
    assert all(a > b for a, b in zip(values, values[1:]))
    for row, value in zip(rows, values):
        assert value == near_product_entropy(int(row[0]))


def test_bk_series_json_schema(capsys):
    code, out, _ = run_cli(capsys, "bk-series", "--k-max", "3", "--format", "json")
    assert code == 0
    payload = validate_json(out)
    assert payload["command"] == "bk-series"
    assert len(payload["data"]["series"]) == 3


def test_bk_series_rejects_zero(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["bk-series", "--k-max", "0"])
    assert excinfo.value.code == 2


def test_kernel_rows_and_dim_line(capsys):
    code, out, _ = run_cli(capsys, "kernel", "--k", "2")
    assert code == 0
    comments, header, rows = parse_csv(out)
    assert comments["dim"] == "4"
    assert len(rows) == 4
    assert header[0] == "vector"
    assert len(header) == 1 + 2 * 9


def test_kernel_json_schema(capsys):
    code, out, _ = run_cli(capsys, "kernel", "--k", "2", "--format", "json")
    assert code == 0
    payload = validate_json(out)
    assert payload["data"]["dim"] == 4
    assert len(payload["data"]["basis"]) == 4


def test_kernel_params_carry_no_tolerance(capsys):
    _, out, _ = run_cli(capsys, "kernel", "--k", "2")
    comments, _, _ = parse_csv(out)
    assert comments == {"command": "kernel", "k": "2", "dim": "4"}
    _, out, _ = run_cli(capsys, "kernel", "--k", "2", "--format", "json")
    assert validate_json(out)["params"] == {"k": 2, "dim": 4}


def test_kernel_rejects_tolerance_flag(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["kernel", "--k", "2", "--tol", "1e-3"])
    assert excinfo.value.code == 2


def test_named_vectors_table(capsys):
    code, out, _ = run_cli(capsys, "named-vectors", "--k", "5")
    assert code == 0
    _, header, rows = parse_csv(out)
    assert header == ["name", "entropy", "schmidt_rank", "restriction_max_abs"]
    table = {row[0]: row for row in rows}
    assert float(table["near_product"][1]) == pytest.approx(near_product_entropy(5), abs=1e-12)
    assert float(table["bell"][1]) == pytest.approx(math.log(2), abs=1e-12)
    assert float(table["max_entropy"][1]) == pytest.approx(math.log(6), abs=1e-12)
    for row in rows:
        assert float(row[3]) <= 1e-12


def test_named_vectors_json_schema(capsys):
    code, out, _ = run_cli(capsys, "named-vectors", "--k", "3", "--format", "json")
    assert code == 0
    validate_json(out)


def test_maximize_reaches_known_optimum(capsys):
    code, out, _ = run_cli(capsys, "maximize", "--k", "3", "--seed", "5")
    assert code == 0
    _, header, rows = parse_csv(out)
    record = dict(zip(header, rows[0]))
    assert float(record["best_value"]) == pytest.approx(math.log(4), abs=1e-6)
    assert record["converged"] == "true"


def test_maximize_trace_json(capsys):
    code, out, _ = run_cli(
        capsys, "maximize", "--k", "2", "--seed", "5", "--restarts", "4",
        "--format", "json", "--trace",
    )
    assert code == 0
    payload = validate_json(out)
    assert len(payload["data"]["restart_values"]) == 4


def test_maximize_deterministic_output(capsys):
    args = ("maximize", "--k", "4", "--seed", "11", "--format", "json")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_maximize_flags_non_convergence(capsys):
    code, out, _ = run_cli(
        capsys, "maximize", "--k", "2", "--seed", "0",
        "--max-iters", "1", "--tol", "1e-15", "--restarts", "2",
    )
    assert code == 3
    _, header, rows = parse_csv(out)
    assert dict(zip(header, rows[0]))["converged"] == "false"


def test_toeplitz_check_passes_by_default(capsys):
    code, out, _ = run_cli(capsys, "toeplitz-check")
    assert code == 0
    comments, header, rows = parse_csv(out)
    assert comments["status"] == "PASS"
    assert float(comments["max_diff"]) <= 1e-10
    assert header == ["matrix", "row", "col", "re", "im"]
    assert len(rows) == 2 * 16


def test_toeplitz_check_detects_shifted_offset(capsys):
    code, out, _ = run_cli(capsys, "toeplitz-check", "--offset", "-1.9")
    assert code == 3  # the check failed; its result is still printed
    comments, _, _ = parse_csv(out)
    assert comments["status"] == "FAIL"
    assert float(comments["max_diff"]) == pytest.approx(0.1, abs=1e-12)


def test_toeplitz_check_json_schema(capsys):
    code, out, _ = run_cli(capsys, "toeplitz-check", "--format", "json")
    assert code == 0
    payload = validate_json(out)
    assert payload["data"]["status"] == "PASS"
    assert payload["data"]["toeplitz"]["dim"] == 4


def test_sphere_average_row(capsys):
    code, out, _ = run_cli(capsys, "sphere-average", "--k", "1", "--n", "2000", "--seed", "7")
    assert code == 0
    comments, header, rows = parse_csv(out)
    assert header == ["k", "n", "mean", "stderr", "page_exact", "asymptotic_prediction", "seed"]
    record = dict(zip(header, rows[0]))
    assert float(record["page_exact"]) == pytest.approx(page_mean(2), abs=1e-15)
    assert abs(float(record["mean"]) - 1 / 3) <= 5 * float(record["stderr"])
    assert record["seed"] == "7"


def test_sphere_average_deterministic(capsys):
    args = ("sphere-average", "--k", "1", "--n", "500", "--seed", "3")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_sphere_average_json_schema(capsys):
    code, out, _ = run_cli(
        capsys, "sphere-average", "--k", "2", "--n", "300", "--seed", "1", "--format", "json"
    )
    assert code == 0
    validate_json(out)


def test_sphere_average_rejects_small_n(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["sphere-average", "--k", "1", "--n", "50"])
    assert excinfo.value.code == 2


def test_no_environment_variable_chooses_the_seed(capsys, monkeypatch):
    args = ("sphere-average", "--k", "1", "--n", "300")
    plain = run_cli(capsys, *args)
    monkeypatch.setenv("HOLOENT_SEED", "7")
    assert run_cli(capsys, *args) == plain
    assert parse_csv(plain[1])[0]["seed"] == "0"


def test_maximize_provenance_records_every_setting(capsys):
    code, out, _ = run_cli(capsys, "maximize", "--k", "3", "--seed", "0")
    assert code == 0
    assert out.splitlines()[:7] == [
        "# command=maximize", "# k=3", "# restarts=16", "# max_iters=1000",
        "# step0=1.0", "# tol=1e-08", "# seed=0",
    ]
    code, out, _ = run_cli(capsys, "maximize", "--k", "3", "--seed", "0", "--format", "json")
    assert code == 0
    assert validate_json(out)["params"] == {
        "k": 3, "restarts": 16, "max_iters": 1000, "step0": 1.0, "tol": 1e-08, "seed": 0,
    }


@pytest.mark.parametrize("argv", [
    ("maximize", "--k", "2", "--step0", "1.0"),
    ("toeplitz-check", "--tol", "1e-10"),
])
def test_removed_settings_are_unknown_arguments(capsys, argv):
    with pytest.raises(SystemExit) as excinfo:
        main(list(argv))
    assert excinfo.value.code == 2
    assert f"unrecognized arguments: {argv[-2]}" in capsys.readouterr().err


def test_entropy_command_reads_state_file(capsys, tmp_path):
    path = tmp_path / "state.json"
    path.write_text(json.dumps(bell_vector(2).to_dict()))
    code, out, _ = run_cli(capsys, "entropy", "--state", str(path))
    assert code == 0
    _, header, rows = parse_csv(out)
    record = dict(zip(header, rows[0]))
    assert float(record["entropy"]) == pytest.approx(math.log(2), abs=1e-12)
    assert record["schmidt_rank"] == "2"


def test_entropy_command_json_schema(capsys, tmp_path):
    path = tmp_path / "state.json"
    path.write_text(json.dumps(bell_vector(1).to_dict()))
    code, out, _ = run_cli(capsys, "entropy", "--state", str(path), "--format", "json")
    assert code == 0
    payload = validate_json(out)
    coeffs = payload["data"]["schmidt_coefficients"]
    assert np.allclose(coeffs, [1 / math.sqrt(2)] * 2, atol=1e-12)


def test_entropy_command_restriction_table(capsys, tmp_path):
    path = tmp_path / "state.json"
    path.write_text(json.dumps({"k": 1, "re": [[0.0, 1.0], [0.0, 0.0]], "im": [[0.0, 0.0], [0.0, 0.0]]}))
    code, out, _ = run_cli(capsys, "entropy", "--state", str(path), "--restriction")
    assert code == 0
    _, header, rows = parse_csv(out)
    assert header == ["d", "re", "im"]
    table = {int(row[0]): (float(row[1]), float(row[2])) for row in rows}
    assert table[-1] == (2.0, 0.0)
    assert table[0] == (0.0, 0.0)
    assert table[1] == (0.0, 0.0)


def test_entropy_command_restriction_json_schema(capsys, tmp_path):
    path = tmp_path / "state.json"
    path.write_text(json.dumps(bell_vector(2).to_dict()))
    code, out, _ = run_cli(
        capsys, "entropy", "--state", str(path), "--restriction", "--format", "json"
    )
    assert code == 0
    payload = validate_json(out)
    assert all(row["re"] == 0.0 and row["im"] == 0.0 for row in payload["data"]["restriction"])


def test_entropy_command_missing_file_maps_to_usage_error(capsys):
    code, _, err = run_cli(capsys, "entropy", "--state", "/nonexistent/state.json")
    assert code == 2
    assert "entropy" in err


def test_output_file_writing(capsys, tmp_path):
    target = tmp_path / "series.csv"
    code, out, _ = run_cli(capsys, "bk-series", "--k-max", "2", "--out", str(target))
    assert code == 0
    assert out == ""
    comments, _, rows = parse_csv(target.read_text())
    assert comments["command"] == "bk-series"
    assert len(rows) == 2


def test_existing_output_file_is_replaced_not_truncated(capsys, tmp_path):
    target = tmp_path / "series.csv"
    target.write_text("stale\n" * 1000)
    with open(target) as old:
        code, _, _ = run_cli(capsys, "bk-series", "--k-max", "2", "--out", str(target))
        assert code == 0
        # the old file was unlinked, not rewritten: an open handle still reads it
        assert os.fstat(old.fileno()).st_nlink == 0
        assert old.read() == "stale\n" * 1000
    comments, _, rows = parse_csv(target.read_text())
    assert comments["command"] == "bk-series" and len(rows) == 2


def test_linked_output_files_are_written_through(capsys, tmp_path):
    target = tmp_path / "series.csv"
    target.write_text("stale\n")
    os.link(target, tmp_path / "hard.csv")
    (tmp_path / "soft.csv").symlink_to(target)
    for name in ("hard.csv", "soft.csv"):
        target.write_text("stale\n")
        code, _, _ = run_cli(capsys, "bk-series", "--k-max", "2", "--out", str(tmp_path / name))
        assert code == 0
        assert (tmp_path / "soft.csv").is_symlink()
        assert os.stat(target).st_nlink == 2
        assert target.read_text().startswith("# command=bk-series\n")
        assert (tmp_path / "hard.csv").read_text() == target.read_text()


def test_output_path_that_cannot_be_opened_is_usage_error(capsys, tmp_path):
    target = tmp_path / "missing" / "series.csv"
    code, out, err = run_cli(capsys, "bk-series", "--k-max", "2", "--out", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith("holoent bk-series: ") and err.count("\n") == 1
    assert not target.exists()


@pytest.mark.parametrize("text", [
    '{"k": 1,',
    "[1]",
    '"x"',
    '{"k": null, "re": [[1.0, 0.0], [0.0, 0.0]], "im": [[0.0, 0.0], [0.0, 0.0]]}',
    '{"k": 1.7, "re": [[1.0, 0.0], [0.0, 0.0]], "im": [[0.0, 0.0], [0.0, 0.0]]}',
    '{"k": 1.0, "re": [[1.0, 0.0], [0.0, 0.0]], "im": [[0.0, 0.0], [0.0, 0.0]]}',
    '{"k": true, "re": [[1.0, 0.0], [0.0, 0.0]], "im": [[0.0, 0.0], [0.0, 0.0]]}',
    '{"k": 1, "re": {"a": 1}, "im": [[0, 0], [0, 0]]}',
    '{"k": 1, "re": [[1.0, 0.0], [0.0, 0.0]], "im": [[0, 0], [0]]}',
    '{"k": 1, "re": [[1.0, "x"], [0.0, 0.0]], "im": [[0, 0], [0, 0]]}',
    '{"re": [[1.0, 0.0], [0.0, 0.0]], "im": [[0, 0], [0, 0]]}',
    '{"k": 1, "im": [[0, 0], [0, 0]]}',
    '{"k": 1, "re": [[1.0, 0.0], [0.0, 0.0]]}',
])
def test_malformed_state_record_is_usage_error(capsys, monkeypatch, text):
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, out, err = run_cli(capsys, "entropy", "--state", "-")
    assert code == 2
    assert out == ""
    assert err.startswith("holoent entropy: ")


@pytest.mark.parametrize("text, field", [
    ('{"k": 1, "re": {"a": 1}, "im": [[0, 0], [0, 0]]}', "'re'"),
    ('{"k": 1, "re": [[1.0, 0.0], [0.0, 0.0]], "im": [[0, 0], [0]]}', "'im'"),
    ('{"re": [[1.0, 0.0], [0.0, 0.0]], "im": [[0, 0], [0, 0]]}', "'k'"),
    ('{"k": 1, "re": [[1.0, 0.0], [0.0, 0.0]]}', "'im'"),
])
def test_malformed_state_record_names_the_field(capsys, monkeypatch, text, field):
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, _, err = run_cli(capsys, "entropy", "--state", "-")
    assert code == 2
    assert field in err and err.count("\n") == 1


def test_a_key_error_is_a_bug_not_a_usage_error(monkeypatch):
    # no input path raises KeyError, so main lets one through instead of exiting 2
    def broken(args):
        raise KeyError("params")

    monkeypatch.setitem(cli._COMMANDS, "bk-series", broken)
    with pytest.raises(KeyError, match="params"):
        main(["bk-series", "--k-max", "2"])


def test_entropy_command_takes_one_svd(capsys, monkeypatch):
    svd = np.linalg.svd
    calls = []

    def counting_svd(*args, **kwargs):
        calls.append(args)
        return svd(*args, **kwargs)

    record = json.loads((GOLDEN / "state_k2.json").read_text())
    c = np.array(record["re"]) + 1j * np.array(record["im"])
    c /= np.linalg.norm(c)
    state = json.dumps({"k": 2, "re": c.real.tolist(), "im": c.imag.tolist()})
    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    for fmt in ("csv", "json"):
        calls.clear()
        monkeypatch.setattr("sys.stdin", io.StringIO(state))
        code, _, _ = run_cli(capsys, "entropy", "--state", "-", "--format", fmt)
        assert code == 0
        assert len(calls) == 1


@pytest.mark.parametrize("k", [1, 2, 5])
def test_named_vectors_command_takes_one_svd_per_state(capsys, monkeypatch, k):
    svd = np.linalg.svd
    calls = []

    def counting_svd(*args, **kwargs):
        calls.append(args)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    for fmt in ("csv", "json"):
        calls.clear()
        code, _, _ = run_cli(capsys, "named-vectors", "--k", str(k), "--format", fmt)
        assert code == 0
        assert len(calls) == 3


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("coeffs", [[[0.6, 0, 0], [0, 0, 0], [0, 0, 0.6]], [[0, 0, 0]] * 3])
def test_entropy_command_rejects_non_unit_states(capsys, monkeypatch, fmt, coeffs):
    state = json.dumps({"k": 2, "re": coeffs, "im": [[0, 0, 0]] * 3})
    monkeypatch.setattr("sys.stdin", io.StringIO(state))
    code, out, err = run_cli(capsys, "entropy", "--state", "-", "--format", fmt)
    assert code == 2 and out == ""
    assert "normalize before computing entropy" in err


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", ["data", "params"])
def test_non_finite_json_output_is_usage_error(capsys, monkeypatch, value, where):
    record = {"params": {"k": 2}, "columns": ["k", "value"], "rows": [[2, 0.5]],
              "data": {"k": 2, "value": 0.5}}
    record[where]["value"] = value
    monkeypatch.setitem(cli._COMMANDS, "sphere-average", lambda args: record)
    code, out, err = run_cli(capsys, "sphere-average", "--k", "2", "--n", "100",
                             "--format", "json")
    assert code == 2
    assert out == ""
    assert err.startswith("holoent sphere-average: ") and err.count("\n") == 1


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 2


def test_level_above_weight_range_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "named-vectors", "--k", "517")
    assert code == 2
    assert out == ""
    assert "516" in err


NAN_STATE = '{"k": 1, "re": [[NaN, 0.0], [0.0, 0.0]], "im": [[0.0, 0.0], [0.0, Infinity]]}'


@pytest.mark.parametrize("argv", [
    ("toeplitz-check", "--offset", "nan", "--format", "json"),
    ("toeplitz-check", "--offset", "-inf"),
    ("maximize", "--k", "2", "--tol", "0"),
    ("maximize", "--k", "2", "--tol", "-1"),
    ("maximize", "--k", "2", "--tol", "nan", "--format", "json"),
    ("maximize", "--k", "2", "--tol", "inf"),
    ("toeplitz-check", "--offset", "inf"),
    ("maximize", "--k", "2", "--tol", "-inf"),
    ("entropy", "--state", "{state}", "--restriction", "--format", "json"),
    ("entropy", "--state", "{state}"),
])
def test_non_finite_input_is_usage_error(capsys, tmp_path, argv):
    path = tmp_path / "state.json"
    path.write_text(NAN_STATE)
    argv = [arg.replace("{state}", str(path)) for arg in argv]
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_entropy_refuses_a_restriction_that_is_not_finite(capsys, monkeypatch, fmt):
    state = '{"k": 1, "re": [[1e308, 1e308], [1e308, 1e308]], "im": [[0, 0], [0, 0]]}'
    monkeypatch.setattr("sys.stdin", io.StringIO(state))
    code, out, err = run_cli(capsys, "entropy", "--state", "-", "--restriction", "--format", fmt)
    assert code == 2 and out == ""
    assert err == "holoent entropy: the restriction of the state is not finite\n"


def test_render_json_rejects_unknown_objects():
    with pytest.raises(TypeError, match="object is not JSON serializable"):
        render_json("kernel", {"params": {}, "data": {"basis": [object()]}})


# Outputs that are pure arithmetic (no LAPACK, no RNG), so their bytes do
# not depend on the platform; the entropy case reads tests/golden/state_k2.json.
GOLDEN_CASES = {
    "bk_series_k10": ("bk-series", "--k-max", "10"),
    "toeplitz_check": ("toeplitz-check",),
    "toeplitz_check_offset": ("toeplitz-check", "--offset", "-1.9"),
    "entropy_restriction": ("entropy", "--state", "-", "--restriction"),
}
# a failed check exits 3 and still prints its result
GOLDEN_EXIT_CODES = {"toeplitz_check_offset": 3}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_output_matches_golden_bytes(capsys, monkeypatch, name, fmt):
    monkeypatch.setattr("sys.stdin", io.StringIO((GOLDEN / "state_k2.json").read_text()))
    code, out, _ = run_cli(capsys, *GOLDEN_CASES[name], "--format", fmt)
    assert code == GOLDEN_EXIT_CODES.get(name, 0)
    assert out.encode() == (GOLDEN / f"{name}.{fmt}").read_bytes()


def csv_text(value):
    return str(value).lower() if isinstance(value, bool) else str(value)


def json_records(command, data):
    """The JSON records that correspond, in order, to the CSV rows."""
    if command == "kernel":
        n = data["k"] + 1
        return [
            {"vector": index} | {f"{part}_{i}_{j}": state[part][i][j]
                                 for i in range(n) for j in range(n) for part in ("re", "im")}
            for index, state in enumerate(data["basis"])
        ]
    if command == "named-vectors":
        return data["vectors"]
    return [data]


@pytest.mark.parametrize("argv", [
    ("kernel", "--k", "3"),
    ("named-vectors", "--k", "4"),
    ("maximize", "--k", "3", "--seed", "2", "--restarts", "4"),
    ("sphere-average", "--k", "2", "--n", "400", "--seed", "5"),
    ("entropy", "--state", "-"),
])
def test_csv_and_json_carry_equal_shared_fields(capsys, monkeypatch, argv):
    state = json.dumps({"k": 2, "re": [[0.6, 0, 0], [0, 0, 0], [0, 0, 0.8]],
                        "im": [[0, 0, 0]] * 3})
    monkeypatch.setattr("sys.stdin", io.StringIO(state))
    _, out, _ = run_cli(capsys, *argv)
    comments, header, rows = parse_csv(out)
    monkeypatch.setattr("sys.stdin", io.StringIO(state))
    _, out, _ = run_cli(capsys, *argv, "--format", "json")
    payload = json.loads(out)

    assert comments == {"command": payload["command"],
                        **{key: csv_text(value) for key, value in payload["params"].items()}}
    records = json_records(argv[0], payload["data"])
    assert len(rows) == len(records)
    shared = 0
    for row, record in zip(rows, records):
        for key, text in zip(header, row):
            if key in record:
                assert text == csv_text(record[key]), key
                shared += 1
    assert shared >= 2 * len(rows)


# Byte identity of the renderers with the stdlib: every row through
# csv.writer, and every value through json.dumps(indent=2).

def reference_kernel_csv(k, basis):
    n = k + 1
    buffer = io.StringIO()
    buffer.write(f"# command=kernel\n# k={k}\n# dim={len(basis)}\n")
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["vector"] + [f"{part}_{i}_{j}" for i in range(n) for j in range(n)
                                  for part in ("re", "im")])
    writer.writerows([index, *state.coeffs.view(float).ravel().tolist()]
                     for index, state in enumerate(basis))
    return buffer.getvalue()


def reference_json(command, result):
    def to_dict(value):
        if isinstance(value, (StateTensor, ToeplitzMatrix)):
            return value.to_dict()
        if isinstance(value, np.ndarray):
            return value.tolist()
        raise TypeError(f"{type(value).__name__} is not JSON serializable")

    payload = {"command": command, "params": result["params"], "data": result["data"]}
    return json.dumps(payload, indent=2, default=to_dict, allow_nan=False) + "\n"


def command_record(*argv):
    args = cli.build_parser().parse_args(list(argv))
    return cli._COMMANDS[args.command](args)


# the kernel's CSV is written from its mode blocks and its JSON from the
# dense basis, so each format is checked against the stdlib separately;
# the kernel record holds its JSON data only when asked for JSON
@pytest.mark.parametrize("k", [*range(1, 13), 20])
def test_kernel_output_is_byte_identical_to_the_stdlib(capsys, k):
    basis = kernel_basis(k)
    code, out, _ = run_cli(capsys, "kernel", "--k", str(k))
    assert code == 0
    assert out == reference_kernel_csv(k, basis)
    code, out, _ = run_cli(capsys, "kernel", "--k", str(k), "--format", "json")
    assert code == 0
    assert out == reference_json("kernel",
                                 command_record("kernel", "--k", str(k), "--format", "json"))


def test_kernel_csv_at_level_40_is_byte_identical_to_the_stdlib(capsys):
    # 1600 states in 79 mode blocks, where modes d and -d share one array
    # and so one text per row
    code, out, _ = run_cli(capsys, "kernel", "--k", "40")
    assert code == 0
    assert out == reference_kernel_csv(40, kernel_basis(40))


def test_kernel_csv_builds_no_state_and_no_dense_basis(capsys, monkeypatch):
    expected = reference_kernel_csv(7, kernel_basis(7))

    def refuse(*args):
        raise AssertionError("the CSV path built a dense state")

    monkeypatch.setattr(cli.restriction, "kernel_basis", refuse)
    monkeypatch.setattr(cli.restriction, "StateTensor", refuse)
    code, out, _ = run_cli(capsys, "kernel", "--k", "7")
    assert code == 0
    assert out == expected


@pytest.mark.parametrize("argv", [
    ("named-vectors", "--k", "6"),
    ("maximize", "--k", "3", "--seed", "1", "--restarts", "3", "--trace"),
    ("entropy", "--state", "{state}"),
    ("entropy", "--state", "{state}", "--restriction"),
    ("toeplitz-check",),
])
def test_json_output_is_byte_identical_to_the_stdlib(tmp_path, argv):
    path = tmp_path / "state.json"
    path.write_text(json.dumps(bell_vector(3).to_dict()))
    argv = [arg.replace("{state}", str(path)) for arg in argv]
    result = command_record(*argv)
    assert render_json(argv[0], result) == reference_json(argv[0], result)


SPECIAL_VALUES = [-0.0, 5e-324, 1e-05, 0.0001, 1e16, 9999999999999998.0, -2.5, 1 / 3]


def synthetic_states(k):
    """States whose coefficients hold awkward floats, repeats, zero rows and full rows."""
    n = k + 1
    rng = np.random.default_rng(k)
    states = []
    for seed in range(4):
        values = rng.choice(SPECIAL_VALUES + [0.0] * 8, size=(n, n, 2))
        values[seed % n] = 0.0  # an all-zero row
        values[(seed + 1) % n] = rng.choice(SPECIAL_VALUES, size=(n, 2))  # no zeros
        states.append(StateTensor(k, values[..., 0] + 1j * values[..., 1]))
    states.append(StateTensor(k, np.full((n, n), -0.0 - 0.0j)))
    states.append(StateTensor(k, np.zeros((n, n))))
    return states


def mode_block(k, d, start, submatrix):
    """A block in restriction._kernel_blocks's layout: submatrix's rows are
    the states start, start + 1, ..., placed on the diagonal of mode d."""
    diagonal = np.arange(max(0, d), min(k, k + d) + 1)
    return np.arange(start, start + len(submatrix)), diagonal * (k + 2) - d, submatrix, d


def states_of_blocks(k, blocks):
    """The dense states of mode blocks, one per submatrix row, by index."""
    states = {}
    for rows, cols, submatrix, _ in blocks:
        for index, values in zip(rows.tolist(), submatrix):
            coeffs = np.zeros((k + 1) ** 2, dtype=complex)
            coeffs[cols] = values
            states[index] = StateTensor(k, coeffs.reshape(k + 1, k + 1))
    return [states[index] for index in sorted(states)]


def inject_blocks(monkeypatch, blocks):
    """Make blocks the kernel of every level, for the CSV and the JSON path."""
    monkeypatch.setattr(cli.restriction, "_kernel_blocks", lambda level, modes: blocks)


def synthetic_blocks(k):
    """Blocks of every mode d = -k..k, each its own array, whose values are
    awkward floats with repeats and zeros; the d = 0 block holds a state
    of -0.0 only and a state of exact zeros."""
    rng = np.random.default_rng(k)
    blocks, start = [], 0
    for d in range(-k, k + 1):
        values = rng.choice(SPECIAL_VALUES + [0.0] * 4, size=(1 + (d + k) % 3, k + 1 - abs(d)))
        if d == 0:
            values = np.vstack([values, np.full(k + 1, -0.0), np.zeros(k + 1)])
        blocks.append(mode_block(k, d, start, values))
        start += len(values)
    return blocks


@pytest.mark.parametrize("k", [1, 2, 5])
def test_special_coefficients_render_like_the_stdlib(capsys, monkeypatch, k):
    blocks = synthetic_blocks(k)
    states = states_of_blocks(k, blocks)
    inject_blocks(monkeypatch, blocks)
    code, out, _ = run_cli(capsys, "kernel", "--k", str(k))
    assert code == 0
    assert out == reference_kernel_csv(k, states)
    code, out, _ = run_cli(capsys, "kernel", "--k", str(k), "--format", "json")
    assert code == 0
    assert out == reference_json("kernel", {"params": {"k": k, "dim": len(states)},
                                            "data": {"k": k, "dim": len(states),
                                                     "basis": states}})


def test_csv_renders_repeated_special_values_across_blocks(capsys, monkeypatch):
    """Values repeat across blocks and across a d/-d pair: modes 1 and -1
    share one array, so one text per row, while modes 2 and -2 hold
    different arrays of one shape, whose texts must not be shared."""
    k = 3
    nan_a, nan_b = np.array([0x7FF8000000000001, 0xFFF8000000000002], np.uint64).view(float)
    pool = SPECIAL_VALUES + [-0.0, 5e-324, math.inf, -math.inf] + [0.0] * 6
    rng = np.random.default_rng(23)
    shared = rng.choice(pool, size=(5, 3))
    shared[1, 0] = nan_a
    shared[3] = 0.0  # an all-zero state, twice
    minus_two, plus_two = rng.choice(pool, size=(2, 4, 2))
    plus_two[2, 1] = nan_b
    layout = [(-2, minus_two), (-1, shared), (0, rng.choice(pool, size=(6, 4))),
              (1, shared), (2, plus_two)]
    blocks, start = [], 0
    for d, values in layout:
        blocks.append(mode_block(k, d, start, values))
        start += len(values)
    states = states_of_blocks(k, blocks)
    inject_blocks(monkeypatch, blocks)
    # the dense fill keeps each float's bits, NaN payloads included
    basis = kernel_basis(k)
    payloads = np.array([basis[5].coeffs[0, 1].real, basis[22].coeffs[3, 1].real])
    assert payloads.view(np.uint64).tolist() == [0x7FF8000000000001, 0xFFF8000000000002]
    code, out, _ = run_cli(capsys, "kernel", "--k", str(k))
    assert code == 0
    assert out == reference_kernel_csv(k, states)
    assert out.count("nan") == 3 and "-inf" in out and "5e-324" in out and "-0.0" in out


def test_json_refuses_the_first_non_finite_value_in_document_order():
    """Arrays are rendered grouped by width, but the error names the value
    json.dumps meets first: the 4x4 inf matrix comes before the 3x3 NaN
    state, although the 3x3 group opens the document."""
    data = [StateTensor(2, np.eye(3) / np.sqrt(3)),
            ToeplitzMatrix(1, np.full((4, 4), np.inf)),
            StateTensor(2, np.full((3, 3), np.nan))]
    result = {"params": {"k": 2}, "data": data}
    with pytest.raises(ValueError) as expected:
        reference_json("kernel", result)
    assert str(expected.value).endswith("inf")
    with pytest.raises(ValueError, match="^" + re.escape(str(expected.value)) + "$"):
        render_json("kernel", result)


def assert_refused_like_the_stdlib(data, value):
    """render_json refuses data with json.dumps's own error, which names value."""
    result = {"params": {"k": 1}, "data": data}
    with pytest.raises(ValueError) as expected:
        reference_json("entropy", result)
    assert str(expected.value).endswith(": " + repr(value))
    with pytest.raises(ValueError, match="^" + re.escape(str(expected.value)) + "$"):
        render_json("entropy", result)


def test_a_non_finite_array_before_a_non_finite_scalar_is_named_first():
    """json.dumps meets the inf coefficient of "a" before the NaN of "b"."""
    assert_refused_like_the_stdlib(
        {"a": StateTensor(1, [[np.inf, 0], [0, 1]]), "b": math.nan}, math.inf)


def test_a_non_finite_scalar_before_a_non_finite_array_is_named_first():
    """json.dumps meets the NaN of "a" before the inf coefficient of "b"."""
    assert_refused_like_the_stdlib(
        {"a": math.nan, "b": StateTensor(1, [[np.inf, 0], [0, 1]])}, math.nan)


def test_a_state_with_finite_re_and_an_infinite_im_is_refused_with_it():
    """The "re" array is placed, then json.dumps meets the -inf of "im"."""
    assert_refused_like_the_stdlib(
        StateTensor(1, [[1, 0], [0, complex(0, -math.inf)]]), -math.inf)


def test_arrays_render_like_the_stdlib_at_every_depth():
    states = synthetic_states(2)
    matrix = ToeplitzMatrix(1, np.outer(SPECIAL_VALUES[:4], SPECIAL_VALUES[4:])
                            + 1j * np.eye(4))
    data = {"state": states[0], "nested": [[states[1], {"matrix": matrix}], states[2:]],
            "values": np.array(SPECIAL_VALUES)}
    result = {"params": {"k": 2}, "data": data}
    assert render_json("kernel", result) == reference_json("kernel", result)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_coefficients_keep_their_stdlib_behaviour(capsys, monkeypatch, value):
    # one state of mode -1 with value at cell (1, 2), one of mode 2 at (2, 0)
    blocks = [mode_block(2, -1, 0, np.array([[0.0, value]])),
              mode_block(2, 2, 1, np.array([[value]]))]
    states = states_of_blocks(2, blocks)
    inject_blocks(monkeypatch, blocks)
    # CSV writes the float's repr, as csv.writer does
    code, out, _ = run_cli(capsys, "kernel", "--k", "2")
    assert code == 0
    assert out == reference_kernel_csv(2, states)
    assert out.count(repr(value)) == 2
    # JSON refuses, with json.dumps's message, and exits 2
    result = {"params": {"k": 2, "dim": 2}, "data": {"k": 2, "dim": 2, "basis": states}}
    with pytest.raises(ValueError) as expected:
        reference_json("kernel", result)
    with pytest.raises(ValueError, match="^" + re.escape(str(expected.value)) + "$"):
        render_json("kernel", result)
    code, out, err = run_cli(capsys, "kernel", "--k", "2", "--format", "json")
    assert code == 2 and out == ""
    assert err == f"holoent kernel: {expected.value}\n"


def run_cli_exit(capsys, *argv):
    """(exit code, stdout) of an in-process main(), a usage error included."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    return code, capsys.readouterr().out


SHARED_PARSER_RUNS = [
    ("maximize", "--k", "3", "--seed", "1", "--restarts", "3", "--trace", "--format", "json"),
    ("maximize", "--k", "3"),
    ("maximize", "--k", "2", "--tol", "0"),
    ("sphere-average", "--k", "2", "--n", "300"),
    ("kernel", "--k", "2", "--format", "json"),
]


def test_the_parser_is_built_once_and_shared_by_every_run(capsys):
    assert cli.build_parser() is cli.build_parser()
    shared = [run_cli_exit(capsys, *argv) for argv in SHARED_PARSER_RUNS]
    fresh = []
    for argv in SHARED_PARSER_RUNS:
        cli.build_parser.cache_clear()
        fresh.append(run_cli_exit(capsys, *argv))
    assert shared == fresh
    assert [code for code, _ in shared] == [0, 0, 2, 0, 0]
    # the traced run's options do not leak into the plain run after it
    assert "restart_values" in shared[0][1]
    assert "restart_values" not in shared[1][1] and "trace" not in shared[1][1]
