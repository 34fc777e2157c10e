"""End-to-end command-line interface tests."""

import json
import tracemalloc

import numpy as np
import pytest

from nos import simlab
from nos.census import leak_census
from nos.cli import EXIT_INFEASIBLE, EXIT_IO, EXIT_OK, EXIT_VALIDATION, _emit, main
from nos.io import read_subgroup


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def _json(stdout):
    payload = json.loads(stdout)
    assert payload["schema_version"] == 1
    return payload


def test_construct_oracle(tmp_path, capsys):
    out = tmp_path / "s.nos"
    code, stdout, _ = _run(capsys, "construct", "--n", "8", "--order", "8", "--out", str(out))
    assert code == EXIT_OK
    payload = _json(stdout)
    assert payload["delta_abs"] == 0.0 and payload["method"] == "oracle"
    assert read_subgroup(out).order == 8


def test_construct_greedy_when_oracle_impossible(tmp_path, capsys):
    out = tmp_path / "s.nos"
    code, stdout, _ = _run(
        capsys, "construct", "--n", "6", "--order", "8", "--seed", "1", "--out", str(out)
    )
    assert code == EXIT_OK
    payload = _json(stdout)
    assert payload["method"] == "greedy"
    assert payload["delta_abs"] > 0.0


def test_construct_bad_order(capsys):
    code, _, err = _run(capsys, "construct", "--n", "4", "--order", "3")
    assert code == EXIT_INFEASIBLE
    assert "power of two" in err


def test_delta_command(tmp_path, capsys):
    sub = tmp_path / "s.nos"
    sub.write_text("NOS1 2 2\n+1 +1\n+1 -1\n", encoding="utf-8")
    code, stdout, _ = _run(capsys, "delta", str(sub))
    assert code == EXIT_OK
    payload = _json(stdout)
    assert payload["delta"] == 0.0 and payload["delta_abs"] == 0.0
    assert payload["scaled_histogram"] == {"0": 1, "2": 1}


def test_delta_full_group_n2_histogram(tmp_path, capsys):
    sub = tmp_path / "full.nos"
    sub.write_text("NOS1 2 4\n+1 +1\n-1 +1\n+1 -1\n-1 -1\n", encoding="utf-8")
    code, stdout, _ = _run(capsys, "delta", str(sub))
    assert code == EXIT_OK
    assert _json(stdout)["scaled_histogram"] == {"-2": 1, "0": 2, "2": 1}


def test_delta_malformed_file(tmp_path, capsys):
    sub = tmp_path / "bad.nos"
    sub.write_text("NOS1 2 3\n+1 +1\n-1 +1\n+1 -1\n", encoding="utf-8")
    code, _, err = _run(capsys, "delta", str(sub))
    assert code == EXIT_VALIDATION
    assert "not closed" in err


def test_delta_of_a_tiny_file_with_a_huge_header(tmp_path, capsys):
    # nothing is allocated by the M of the header: no (M, n) array of 931 GiB
    sub = tmp_path / "huge.nos"
    sub.write_text("NOS1 1000000 1000000\n+1\n", encoding="ascii")
    code, _, err = _run(capsys, "delta", str(sub))
    assert code == EXIT_VALIDATION
    assert "header promises 1000000 rows, found 1" in err


def test_delta_missing_file(tmp_path, capsys):
    code, _, _ = _run(capsys, "delta", str(tmp_path / "nope.nos"))
    assert code == EXIT_IO


def test_test_command_subgroup(tmp_path, capsys):
    sub = tmp_path / "s.nos"
    sub.write_text("NOS1 2 2\n+1 +1\n+1 -1\n", encoding="utf-8")
    data = tmp_path / "x.txt"
    data.write_text("3.0\n1.0\n", encoding="utf-8")
    code, stdout, _ = _run(
        capsys, "test", str(data), "--subgroup", str(sub), "--alpha", "0.5"
    )
    assert code == EXIT_OK
    payload = _json(stdout)
    assert payload["p_value"] == 0.5 and payload["reject"] is True


def test_test_command_t_matches_full_orthogonal(tmp_path, capsys):
    data = tmp_path / "x.txt"
    data.write_text("\n".join(str(v) for v in [1.2, -0.3, 0.8, 2.0]), encoding="utf-8")
    _, out_t, _ = _run(capsys, "test", str(data), "--t")
    _, out_f, _ = _run(capsys, "test", str(data), "--full-orthogonal")
    assert _json(out_t)["p_value"] == pytest.approx(_json(out_f)["p_value"], abs=1e-12)


def test_test_command_mc_seeded(tmp_path, capsys):
    data = tmp_path / "x.txt"
    data.write_text("\n".join(str(v) for v in np.linspace(0, 2, 10)), encoding="utf-8")
    _, out1, _ = _run(capsys, "test", str(data), "--mc", "32", "--seed", "4")
    _, out2, _ = _run(capsys, "test", str(data), "--mc", "32", "--seed", "4")
    assert _json(out1) == _json(out2)


def test_test_command_requires_one_mode(tmp_path, capsys):
    data = tmp_path / "x.txt"
    data.write_text("1.0\n2.0\n", encoding="utf-8")
    code, _, err = _run(capsys, "test", str(data))
    assert code == EXIT_VALIDATION
    assert "exactly one" in err


def test_test_command_dimension_mismatch(tmp_path, capsys):
    sub = tmp_path / "s.nos"
    sub.write_text("NOS1 2 2\n+1 +1\n+1 -1\n", encoding="utf-8")
    data = tmp_path / "x.txt"
    data.write_text("1.0\n2.0\n3.0\n", encoding="utf-8")
    code, _, _ = _run(capsys, "test", str(data), "--subgroup", str(sub))
    assert code == EXIT_VALIDATION


@pytest.mark.parametrize("command", ["test", "delta"])
def test_non_finite_direction_is_a_validation_error(tmp_path, capsys, command):
    sub = tmp_path / "s.nos"
    sub.write_text("NOS1 4 2\n+1 +1 +1 +1\n+1 -1 +1 -1\n", encoding="utf-8")
    iota = tmp_path / "d.txt"
    iota.write_text("0.5\nnan\n0.5\n0.5\n", encoding="utf-8")
    data = tmp_path / "x.txt"
    data.write_text("1.0\n2.0\n0.5\n-1.0\n", encoding="utf-8")
    argv = ["test", str(data), "--subgroup", str(sub), "--alpha", "0.5"] if command == "test" else ["delta", str(sub)]
    code, stdout, err = _run(capsys, *argv, "--iota", str(iota))
    assert code == EXIT_VALIDATION and stdout == ""
    assert "non-finite" in err


def test_test_command_two_sample(tmp_path, capsys):
    data = tmp_path / "x.txt"
    data.write_text("2.0\n1.5\n-0.5\n-1.0\n", encoding="utf-8")
    code, stdout, _ = _run(
        capsys, "test", str(data), "--mc", "8", "--two-sample", "2", "2", "--seed", "0"
    )
    assert code == EXIT_OK
    assert 0.0 < _json(stdout)["p_value"] <= 1.0


def test_census_command(tmp_path, capsys):
    out = tmp_path / "census.json"
    code, _, _ = _run(capsys, "census", "--n", "4", "--rank", "2", "--out", str(out))
    assert code == EXIT_OK
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert payload["subgroup_counts"]["2"] == 35
    assert payload["distinct_counts"]["2"] == 6


def test_census_report_bytes_are_the_json_text(tmp_path, capsys):
    expected = json.dumps({"schema_version": 1, **leak_census(4).to_dict()}, indent=2, sort_keys=True) + "\n"
    out = tmp_path / "census.json"
    code, stdout, _ = _run(capsys, "census", "--n", "4")
    assert code == EXIT_OK and stdout == expected
    assert _run(capsys, "census", "--n", "4", "--out", str(out))[0] == EXIT_OK
    assert out.read_bytes() == expected.encode("utf-8")


def test_emit_streams_the_report(tmp_path):
    # building the whole text first holds at least its own size
    report = {"rows": [[i + 0.25, -i, i * 1e-3] for i in range(10_000)]}
    size = len(json.dumps({"schema_version": 1, **report}, indent=2, sort_keys=True))
    tracemalloc.start()
    try:
        _emit(report, str(tmp_path / "big.json"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (tmp_path / "big.json").stat().st_size == size + 1
    assert peak < size / 4, (peak, size)


def test_census_guard(capsys):
    code, _, _ = _run(capsys, "census", "--n", "13")
    assert code == EXIT_INFEASIBLE


def test_simulate_command(capsys):
    code, stdout, _ = _run(
        capsys, "simulate", "--n", "8", "--mu", "0.0", "1.0", "--M", "8",
        "--tests", "oracle-signflip", "t", "--reps", "500", "--alpha", "0.125", "--seed", "2",
    )
    assert code == EXIT_OK
    payload = _json(stdout)
    assert len(payload["cells"]) == 4


def test_power_curve_command(capsys):
    code, stdout, _ = _run(
        capsys, "power-curve", "--n", "8", "--M", "8", "--snr", "0.0", "2.0",
        "--reps", "500", "--seed", "3",
    )
    assert code == EXIT_OK
    payload = _json(stdout)
    assert payload["curve"][1]["subgroup_power"] == 1.0


def test_power_curve_default_subgroup_needs_power_of_two_M(capsys):
    code, stdout, err = _run(capsys, "power-curve", "--n", "10", "--M", "10", "--reps", "10")
    assert code == EXIT_INFEASIBLE and stdout == ""
    assert err == "error: default oracle subgroup needs power-of-two M, got 10\n"


def test_simulate_unknown_named_subgroup_runs_no_cell(capsys, monkeypatch):
    monkeypatch.setattr(simlab, "_rejects_for", lambda *a: pytest.fail("a cell ran"))
    code, stdout, err = _run(
        capsys, "simulate", "--n", "16", "--mu", "0", "--M", "16", "--tests", "t", "subgroup:foo",
        "--reps", "100", "--alpha", "0.0625",
    )
    assert code == EXIT_VALIDATION and stdout == ""
    assert err == "error: unknown test id 'subgroup:foo'\n"


def test_pvar_command(capsys):
    code, stdout, _ = _run(
        capsys, "pvar", "--n", "8", "--mu", "0.5", "--M", "8",
        "--datasets", "20", "--resamples", "50", "--seed", "4",
    )
    assert code == EXIT_OK
    payload = _json(stdout)
    assert payload["avg_var_subgroup_permuted"] >= 0.0
    assert payload["avg_var_mc"] >= 0.0
