"""End-to-end coverage of the sched command line interface."""
import csv
import dataclasses
import hashlib
import importlib
import io
import json
import logging
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from schedlab import adversary, throughput
from schedlab.cli import CSV_VERSION, main
from schedlab.fileio import _decimal_column, read_instance


def run_cli(capsys, *argv):
    """Run ``sched`` in-process; return its exit code, stdout and stderr.

    Logging starts with no handler, as in a shell, so whatever ``main``
    logs reaches the captured stderr.  Every usage error (exit 2) must
    write exactly one line, ``error: <message>``.
    """
    root = logging.getLogger()
    handlers, level = root.handlers[:], root.level
    root.handlers.clear()
    try:
        code = main(list(argv))
    finally:
        root.handlers[:] = handlers
        root.setLevel(level)
    captured = capsys.readouterr()
    if code == 2:
        assert captured.err.startswith("error: "), captured.err
        assert captured.err.count("\n") == 1, captured.err
    return code, captured.out, captured.err


def parse_csv(out):
    """Split a versioned CSV emission into dict rows."""
    lines = out.strip().split("\n")
    assert lines[0] == CSV_VERSION
    return list(csv.DictReader(io.StringIO("\n".join(lines[1:]))))


@pytest.fixture
def adversary_file(tmp_path):
    path = tmp_path / "adv.json"
    assert main(["gen", "adversary", "--n", "4", "--big-n", "16",
                 "--out", str(path)]) == 0
    return str(path)


class TestGen:
    def test_adversary_job_count(self, capsys, adversary_file):
        inst = read_instance(open(adversary_file).read())
        assert len(inst.jobs) == 33
        assert inst.model == "unit-min"

    def test_equal_deadline_shapes(self, capsys, tmp_path):
        path = tmp_path / "ed.json"
        code, _, _ = run_cli(capsys, "gen", "equal-deadline", "--kappa", "3",
                             "--jobs", "12", "--seed", "3", "--out", str(path))
        assert code == 0
        inst = read_instance(open(path).read())
        for j in inst.jobs:
            assert j.d == 7
            assert Fraction(j.p).denominator & (Fraction(j.p).denominator - 1) == 0
            assert j.r + j.p <= 7

    def test_deterministic_bytes(self, capsys, tmp_path):
        one, two = tmp_path / "a.json", tmp_path / "b.json"
        for path in (one, two):
            code, _, _ = run_cli(capsys, "gen", "random-unit", "--jobs", "30",
                                 "--horizon", "12", "--seed", "7",
                                 "--out", str(path))
            assert code == 0
        assert one.read_bytes() == two.read_bytes()

    def test_missing_parameter_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "gen", "adversary")
        assert code == 2
        assert "error" in err

    def test_negative_big_n_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "adv.json"
        code, _, err = run_cli(capsys, "gen", "adversary", "--n", "3",
                               "--big-n", "-5", "--out", str(path))
        assert code == 2
        assert "error: need N >= 0" in err
        assert not path.exists()

    def test_stream_beyond_int64_is_usage_error(self, capsys, tmp_path):
        # floor(N / 2) + N = 1.5e19 jobs: their ids do not fit an int64.
        path = tmp_path / "adv.json"
        code, out, err = run_cli(capsys, "gen", "adversary", "--n", "2",
                                 "--big-n", "10000000000000000000",
                                 "--out", str(path))
        assert code == 2
        assert out == ""
        assert "releases 15000000000000000000 jobs" in err
        assert not path.exists()

    def test_stream_too_large_to_allocate_is_usage_error(self, capsys, tmp_path):
        # 5e18 jobs fit an int64 count, but numpy refuses their columns
        # before allocating anything.
        path = tmp_path / "adv.json"
        code, out, err = run_cli(capsys, "gen", "adversary", "--n", "1",
                                 "--big-n", "5000000000000000000",
                                 "--out", str(path))
        assert code == 2
        assert out == ""
        assert ("error: 5000000000000000000 jobs do not fit in memory as "
                "int64 columns") in err
        assert not path.exists()

    def test_stdout_when_no_out(self, capsys):
        code, out, _ = run_cli(capsys, "gen", "upper-triangular",
                               "--k", "2", "--levels", "2")
        assert code == 0
        inst = read_instance(out)
        assert len(inst.jobs) == 4


class TestRun:
    def test_e_edf_summary(self, capsys, adversary_file):
        code, out, _ = run_cli(capsys, "run", "e-edf",
                               "--instance", adversary_file)
        assert code == 0
        values, = parse_csv(out)
        assert values["cost"] == "44"
        assert values["off"] == "16"
        assert values["ratio"] == "2.75"
        assert values["misses"] == "0"

    def test_alpha_one_misses_exit_one(self, capsys, adversary_file):
        code, out, _ = run_cli(capsys, "run", "alpha-edf", "--alpha", "1",
                               "--instance", adversary_file)
        assert code == 1
        values, = parse_csv(out)
        assert values["misses"] == "8"

    def test_alpha_edf_needs_alpha(self, capsys, adversary_file):
        code, _, err = run_cli(capsys, "run", "alpha-edf",
                               "--instance", adversary_file)
        assert code == 2
        assert "error: alpha-edf needs --alpha" in err

    def test_equal_deadline_single_job(self, capsys, tmp_path):
        path = tmp_path / "one.json"
        path.write_text(json.dumps({
            "model": "equal-deadline",
            "jobs": [{"id": 0, "r": 0, "d": 7, "p": 3}]}))
        code, out, _ = run_cli(capsys, "run", "equal-deadline",
                               "--instance", str(path), "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["peak"] == 1
        assert payload["ok"] is True

    def test_equal_deadline_out_with_non_decimal_lengths(self, capsys, tmp_path):
        path = tmp_path / "third.json"
        path.write_text(json.dumps({
            "model": "equal-deadline",
            "jobs": [{"id": 0, "r": 0, "d": 7, "p": "1/3"},
                     {"id": 1, "r": "1/3", "d": 7, "p": "2.5"}]}))
        out_path = tmp_path / "transcript.json"
        code, out, err = run_cli(capsys, "run", "equal-deadline",
                                 "--instance", str(path),
                                 "--out", str(out_path))
        assert code == 0 and err == ""
        rows = {row["id"]: row
                for row in json.loads(out_path.read_text())["schedule"]}
        assert rows[0]["start"] == 4 and rows[0]["end"] == "13/3"
        assert rows[1]["start"] == "1/3" and rows[1]["end"] == "17/6"
        assert sum(Fraction(row["end"]) - Fraction(row["start"])
                   for row in rows.values()) == Fraction(1, 3) + Fraction(5, 2)

    def test_model_algo_mismatch(self, capsys, adversary_file):
        code, out, err = run_cli(capsys, "run", "equal-deadline",
                                 "--instance", adversary_file)
        assert code == 2
        assert out == ""
        assert err == "error: algo equal-deadline does not apply to model unit-min\n"

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "run", "e-edf",
                               "--instance", "/nonexistent.json")
        assert code == 2

    @pytest.mark.parametrize("horizon", [2**62, 2**63 - 1])
    def test_horizon_too_large_to_allocate_is_usage_error(self, capsys, tmp_path,
                                                          horizon):
        # A valid one-job file whose steps numpy refuses to index before
        # allocating anything.  Near 2^63, np.arange alone returned no
        # steps, and the run reported cost 0 with the job never placed.
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({
            "model": "unit-min", "horizon": horizon,
            "jobs": [{"id": 0, "r": 0, "d": horizon}]}))
        code, out, err = run_cli(capsys, "run", "e-edf", "--instance", str(path))
        assert code == 2
        assert out == ""
        assert (f"error: {horizon} steps do not fit in memory as "
                "int64 columns") in err

    @pytest.mark.parametrize("algo, text, message", [
        ("e-edf", '{"model": "unit-min", "jobs": [{"id": 0, "r": NaN, "d": 1}]}',
         "jobs[0].r: expected a finite number, got nan"),
        ("equal-deadline", '{"model": "equal-deadline", "jobs": '
         '[{"id": 0, "r": 0, "d": 1, "p": 1e400}]}',
         "jobs[0].p: expected a finite number, got inf"),
        ("greedy-baseline", '{"model": "throughput", "k": 1, "jobs": '
         '[{"id": 0, "r": 0, "d": 1, "w": -Infinity}]}',
         "jobs[0].w: expected a finite number, got -inf"),
    ], ids=["unit-min", "equal-deadline", "throughput"])
    def test_non_finite_number_is_usage_error(self, capsys, tmp_path, algo,
                                              text, message):
        path = tmp_path / "inst.json"
        path.write_text(text)
        code, out, err = run_cli(capsys, "run", algo, "--instance", str(path))
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("data, message", [
        (b"[" * 100000, "bad JSON: arrays or objects nested too deeply"),
        (b'{"model": "unit-min", "jobs": [\xff]}', "not UTF-8 text at byte 31"),
    ], ids=["deep", "not-utf8"])
    def test_unreadable_instance_text_is_usage_error(self, capsys, tmp_path,
                                                     data, message):
        path = tmp_path / "inst.json"
        path.write_bytes(data)
        code, out, err = run_cli(capsys, "run", "e-edf", "--instance", str(path))
        assert code == 2
        assert out == ""
        assert message in err

    def test_instance_directory_is_usage_error(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "run", "e-edf",
                                 "--instance", str(tmp_path))
        assert code == 2
        assert out == ""
        assert "error: " in err

    def test_out_directory_is_usage_error(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "gen", "adversary", "--n", "4",
                                 "--out", str(tmp_path))
        assert code == 2
        assert out == ""
        assert "error: " in err

    def test_perturbed_greedy_needs_seed(self, capsys, tmp_path):
        path = tmp_path / "tp.json"
        assert main(["gen", "throughput", "--jobs", "8", "--horizon", "4",
                     "--k", "2", "--seed", "1", "--out", str(path)]) == 0
        code, _, _ = run_cli(capsys, "run", "perturbed-greedy",
                             "--instance", str(path))
        assert code == 2
        code, out, _ = run_cli(capsys, "run", "perturbed-greedy", "--seed", "5",
                               "--instance", str(path), "--format", "json")
        assert code == 0
        assert json.loads(out)["ratio"] <= 1.0

    @pytest.mark.parametrize("algo", [["perturbed-greedy", "--seed", "1"],
                                      ["greedy-baseline"], ["edf-throughput"]])
    def test_weights_below_float_range_ratio_exactly(self, capsys, tmp_path, algo):
        # the weight and OPT both read 0.0 as floats; their exact ratio is 1
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps({"model": "throughput", "k": 1, "jobs": [
            {"id": 0, "r": 0, "d": 1, "w": "1e-400"}]}))
        code, out, err = run_cli(capsys, "run", *algo, "--instance", str(path),
                                 "--format", "json")
        assert (code, err) == (0, "")
        payload = strict_json(out)
        assert (payload["weight"], payload["opt"], payload["ratio"]) == (0.0, 0.0, 1.0)

    def test_edf_throughput_matches_opt(self, capsys, tmp_path):
        path = tmp_path / "tpu.json"
        assert main(["gen", "throughput", "--jobs", "10", "--horizon", "5",
                     "--unweighted", "--seed", "2", "--out", str(path)]) == 0
        code, out, _ = run_cli(capsys, "run", "edf-throughput",
                               "--instance", str(path), "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["weight"] == payload["opt"]


class TestGame:
    def test_interactive_stops_immediately(self, capsys):
        code, out, _ = run_cli(capsys, "game", "e-edf", "--n", "4",
                               "--big-n", "16", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["outcome"] == "stopped"
        assert payload["stopped_at"] == 0
        assert payload["ratio"] == 3.0

    def test_aggregate_summary(self, capsys):
        code, out, _ = run_cli(capsys, "game", "alpha-edf", "--alpha", "1",
                               "--n", "100", "--aggregate", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["missed"] is True

    def test_aggregate_e_no_miss(self, capsys):
        code, out, _ = run_cli(capsys, "game", "e-edf", "--n", "1000",
                               "--aggregate", "--format", "json")
        assert code == 0
        assert json.loads(out)["missed"] is False

    def test_aggregate_int64_overflow_is_usage_error(self, capsys):
        # The stream releases 20749510070558481011 jobs, past 2**63 - 1; an
        # int64 total would wrap to 2302765996848929395.
        code, out, err = run_cli(capsys, "game", "alpha-edf", "--alpha", "2",
                                 "--n", "100", "--big-n",
                                 "4000000000000000000", "--aggregate")
        assert code == 2
        assert out == ""
        assert "error:" in err and "20749510070558481011" in err


    @pytest.mark.parametrize("argv", [[], ["--aggregate"]])
    def test_stream_beyond_int64_is_usage_error(self, capsys, argv):
        code, out, err = run_cli(capsys, "game", "e-edf", "--n", "2",
                                 "--big-n", "10000000000000000000", *argv)
        assert code == 2
        assert out == ""
        assert "releases 15000000000000000000 jobs" in err

    def test_stream_too_large_to_allocate_is_usage_error(self, capsys):
        # Numpy refuses the step's 5e18-job block before allocating it.
        code, out, err = run_cli(capsys, "game", "e-edf", "--n", "1",
                                 "--big-n", "5000000000000000000")
        assert code == 2
        assert out == ""
        assert ("error: 5000000000000000000 jobs do not fit in memory as "
                "int64 columns") in err

    @pytest.mark.parametrize("argv", [
        ["e-edf", "--n", "5", "--big-n", "-3", "--aggregate"],
        ["e-edf", "--n", "5", "--big-n", "-3"],
        ["e-edf", "--n", "0", "--aggregate"],
    ])
    def test_bad_stream_is_usage_error(self, capsys, argv):
        code, out, err = run_cli(capsys, "game", *argv)
        assert code == 2
        assert out == ""
        assert "error: need" in err

    @pytest.mark.parametrize("argv", [
        ["--alpha", "foo"], ["--alpha", "1/0"], ["--alpha", "-1"],
        ["--alpha", "nan", "--aggregate"], ["--alpha", "2", "--rho", "xyz"],
    ])
    def test_unparsable_alpha_or_rho_is_usage_error(self, capsys, argv):
        code, out, err = run_cli(capsys, "game", "alpha-edf", "--n", "5", *argv)
        assert code == 2
        assert out == ""
        assert "error: expected 'e' or a nonnegative number" in err

    @pytest.mark.parametrize("argv", [[], ["--aggregate"]])
    def test_alpha_edf_needs_alpha(self, capsys, argv):
        code, out, err = run_cli(capsys, "game", "alpha-edf", "--n", "5", *argv)
        assert code == 2
        assert out == ""
        assert "error: alpha-edf needs --alpha" in err


class TestVerify:
    def test_certificate_passes(self, capsys, tmp_path):
        path = tmp_path / "unit.json"
        assert main(["gen", "random-unit", "--jobs", "15", "--horizon", "6",
                     "--seed", "3", "--out", str(path)]) == 0
        report = tmp_path / "report.json"
        code, _, _ = run_cli(capsys, "verify", "certificate",
                             "--instance", str(path), "--grid", "200",
                             "--out", str(report))
        assert code == 0
        payload = json.loads(report.read_text())
        assert payload["ok"] is True
        assert len(payload["reports"]) >= 1

    def test_certificate_needs_instance(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "certificate")
        assert code == 2

    @pytest.mark.parametrize("dstar", ["-3", "0"])
    def test_certificate_dstar_below_one_is_usage_error(self, capsys,
                                                        adversary_file, dstar):
        code, out, err = run_cli(capsys, "verify", "certificate",
                                 "--instance", adversary_file, "--dstar", dstar)
        assert code == 2
        assert out == ""
        assert f"error: dstar must be at least 1, got {dstar}" in err

    def test_envelope_clean_prefix(self, capsys, tmp_path):
        report = tmp_path / "env.json"
        code, _, _ = run_cli(capsys, "verify", "envelope", "--n", "100",
                             "--big-n", "10000", "--t-max", "57",
                             "--out", str(report))
        assert code == 0
        assert json.loads(report.read_text())["ok"] is True

    def test_envelope_reports_violations(self, capsys, tmp_path):
        report = tmp_path / "env.json"
        code, _, _ = run_cli(capsys, "verify", "envelope", "--n", "100",
                             "--big-n", "10000", "--t-max", "60",
                             "--out", str(report))
        assert code == 1
        payload = json.loads(report.read_text())
        assert payload["violations"] == [58, 59, 60]
        assert payload["clean_prefix_end"] == 57

    @pytest.mark.parametrize("argv", [
        ["--n", "3", "--big-n", "-10"], ["--n", "0"], ["--n", "5", "--t-max", "-1"],
        ["--n", "10", "--t-max", "50"], ["--n", "10", "--t-max", "10"],
    ])
    def test_envelope_bad_parameters_are_usage_errors(self, capsys, argv):
        code, out, err = run_cli(capsys, "verify", "envelope", *argv)
        assert code == 2
        assert out == ""
        assert "error: " in err

    @pytest.mark.parametrize("big_n", [[], ["--big-n", "1"]])
    def test_envelope_past_int64_steps(self, capsys, big_n):
        n = 2**64
        code, out, err = run_cli(capsys, "verify", "envelope", "--n", str(n),
                                 "--t-max", "5", *big_n)
        assert code == 0 and "Traceback" not in err
        payload = json.loads(out)
        N = n * n if not big_n else 1
        assert payload["N"] == N and payload["ok"] is True
        assert [(row["tstar"], row["off"]) for row in payload["rows"]] == [
            (row.tstar, row.off) for row in adversary.scaling_bound_report(n, N, 5)]

    def test_envelope_echoes_the_stream_size_used(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "envelope", "--n", "4",
                               "--big-n", "0")
        assert code == 0
        assert json.loads(out)["N"] == 0

    def test_equal_deadline_instance_passes(self, capsys, tmp_path):
        path = tmp_path / "ed.json"
        assert main(["gen", "equal-deadline", "--kappa", "4", "--jobs", "20",
                     "--seed", "5", "--out", str(path)]) == 0
        code, out, _ = run_cli(capsys, "verify", "equal-deadline",
                               "--instance", str(path))
        assert code == 0
        assert json.loads(out)["ok"] is True

    def test_reduction_roundtrip(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "reduction", "--count", "20",
                               "--seed", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload["failures"] == []

    @pytest.mark.parametrize("count", ["-1", "0"])
    def test_reduction_count_below_one_is_usage_error(self, capsys, count):
        # An audit that checks nothing could only ever pass.
        code, out, err = run_cli(capsys, "verify", "reduction", "--count", count)
        assert code == 2
        assert out == ""
        assert "error: verify reduction needs --count >= 1" in err

    def test_reduction_catches_mismapped_weights(self, capsys, monkeypatch):
        reduce = throughput.reduce_to_matching

        def rotated(instance):
            mi = reduce(instance)
            return dataclasses.replace(mi, w=mi.w[1:] + mi.w[:1])

        monkeypatch.setattr(throughput, "reduce_to_matching", rotated)
        code, out, _ = run_cli(capsys, "verify", "reduction", "--count", "20",
                               "--seed", "1")
        assert code == 1
        assert json.loads(out)["failures"] != []


#: ``sched gen`` arguments of the files the pinned certificate runs read.
CERTIFICATE_FILES = {
    "random-small": ["random-unit", "--jobs", "40", "--horizon", "12",
                     "--seed", "5"],
    "random-large": ["random-unit", "--jobs", "300", "--horizon", "60",
                     "--seed", "1"],
    "adversary": ["adversary", "--n", "20"],
}

#: Exit code and sha256 of ``sched verify certificate`` stdout, every dstar,
#: by ``(file, --alpha, --grid)``; recorded from the row certificate.
CERTIFICATE_DIGESTS = {
    ('adversary', '2', 7): (1, 'ef3718790435ee53edc33e4d1c9a0d7c4e82a5e230dc0abf92f307107f30c02d'),
    ('adversary', '2', 1000): (1, '371f46dc393d8fccad601364dba1837b0dcba40be3c229ac755e8f7a890de8ed'),
    ('adversary', 'e', 7): (0, 'a907f5dcce8e9860c5f7785ab56905f9cc50cd6ed16b06b0681426e37388bdfa'),
    ('adversary', 'e', 1000): (0, '6b4317b4724b74902a5356352fb16d2b14e8f6f67630df2417489283f50a1f27'),
    ('random-large', '2', 7): (1, '1b02bda03d35cbd60c33c9d18d6d60096fad0b16bae23f6319eb109f212198bd'),
    ('random-large', '2', 1000): (1, 'cc70df45193baa18f27be2e621c7a66c355836b7117d32f441b082f12e6c8202'),
    ('random-large', 'e', 7): (0, '274315e10bc4c76af260dde85045cc17d1e74c504fb506423f320052724be29a'),
    ('random-large', 'e', 1000): (0, '6700067e93a71f8565fed037a0ef99abcc0b59c0eafd686c51ca921cbb72e5f5'),
    ('random-small', '2', 7): (1, '2f67bb7955b7e0b96e25f626aaba63f56c00f7c26462a6c05290a9056a0e2aed'),
    ('random-small', '2', 1000): (1, '343f01c828ea6c4cc31c2c693fd48faa40471541823546c3f4f218727a9a3b6f'),
    ('random-small', 'e', 7): (0, '738143709bb374a8b64ddd85ec63b2eb1e3d547b575f3c38a502e79d59166e29'),
    ('random-small', 'e', 1000): (0, '87a06d6f9a5bc6d3a5e035931827d8b1cb0775be43011aec534a86d078e014b2'),
}


#: equal-deadline files by the reader branch their number strings take:
#: ``_decimal_column`` for every column (``columns``), or ``_num_in`` value
#: by value for a column it declines (``values``).  Each maps to what
#: ``run equal-deadline --format json`` and ``verify equal-deadline`` give:
#: the exit code, stderr, and the sha256 of stdout with the file's path
#: written as ``FILE``.
_EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
READER_BRANCH_OUTPUTS = {
    "decimals": ("columns", [
        {"id": 0, "r": "0.875", "d": 7, "p": "2.5"},
        {"id": 1, "r": 2, "d": "7.0", "p": "0.0625"},
        {"id": 2, "r": "-0", "d": 7, "p": 3},
        {"id": 3, "r": "5.25", "d": 7, "p": "1.75"}], {
        "run": (0, "", "dfebaf971ed27a171327a9d5e266967225eadf6f0704bb2ec4efb835f36b52cb"),
        "verify": (0, "", "8288d373b3fcdbc68c7774a77be6f056db5be79316ca4a921c7588af3eea0e4e")}),
    "ratios": ("values", [
        {"id": 0, "r": 0, "d": 7, "p": "1/3"},
        {"id": 1, "r": "1/3", "d": 7, "p": "2.5"},
        {"id": 2, "r": "6.5", "d": 7, "p": "1/6"}], {
        "run": (0, "", "a016464d4941106e446e5e86a49e5ddb653b67c3a7c51a04b3a8135d3b701f72"),
        "verify": (0, "", "6c452bbe971c94df2c39a67670bb42dbc72df1b959ba5a7f9e770114d385d0a2")}),
    "exponents": ("values", [
        {"id": 0, "r": "5e-1", "d": 7, "p": "25e-1"},
        {"id": 1, "r": "1E0", "d": "7e0", "p": "0.75"}], {
        "run": (0, "", "af0e37879724cc4af9239cd8760e79230bc03362d0013b13d2c6e9d0182912e5"),
        "verify": (0, "", "0c2e711aabbd7b2069c7965deb4137e3ccd1b14c35b5110b8069738e9c31b24a")}),
    "dot-without-digits": ("values", [{"id": 0, "r": "1.", "d": 7, "p": 2}], {
        "run": (0, "", "cb150dfb65a8d500afa5efb19f53568ada16f827b1c971e73cf976308f278700"),
        "verify": (0, "", "63d3b5581eed3afaa0ac5c8d3024586b5d11be2ce183ea39d50522adb7339de5")}),
    "underscore": ("values", [{"id": 0, "r": 0, "d": 7, "p": "1_0"}], dict.fromkeys(
        ("run", "verify"), (2, "error: invalid instance: WindowTooSmall[job 0]: "
                               "r+p=10 exceeds d=7\n", _EMPTY))),
    "stray-character": ("values", [{"id": 0, "r": 0, "d": 7, "p": "2.5x"}], dict.fromkeys(
        ("run", "verify"), (2, "error: jobs[0].p: bad numeric string '2.5x'\n", _EMPTY))),
    "zero-denominator": ("values", [{"id": 0, "r": "1/0", "d": 7, "p": 1}], dict.fromkeys(
        ("run", "verify"), (2, "error: jobs[0].r: bad numeric string '1/0'\n", _EMPTY))),
    "past-the-deadline": ("columns", [{"id": 0, "r": "6.5", "d": 7, "p": "0.75"}],
                          dict.fromkeys(("run", "verify"), (
                              2, "error: invalid instance: WindowTooSmall[job 0]: "
                                 "r+p=29/4 exceeds d=7\n", _EMPTY))),
}


@pytest.mark.parametrize("case", sorted(READER_BRANCH_OUTPUTS))
@pytest.mark.parametrize("command", ["run", "verify"])
def test_equal_deadline_reader_branches(capsys, tmp_path, case, command):
    branch, jobs, outputs = READER_BRANCH_OUTPUTS[case]
    decimal = all(_decimal_column([job.get(key, 1) for job in jobs]) is not None
                  for key in ("r", "d", "p", "w"))
    assert decimal == (branch == "columns")
    path = tmp_path / "ed.json"
    path.write_text(json.dumps({"model": "equal-deadline", "jobs": jobs}))
    argv = [command, "equal-deadline", "--instance", str(path)]
    code, out, err = run_cli(capsys, *argv, *(["--format", "json"]
                                              if command == "run" else []))
    assert "Traceback" not in err
    digest = hashlib.sha256(out.replace(str(path), "FILE").encode()).hexdigest()
    assert (code, err, digest) == outputs[command]


def strict_json(text):
    """``json.loads`` refusing ``NaN`` and ``Infinity``, as ``JSON.parse`` does."""
    def refuse(name):
        raise ValueError(f"non-standard JSON constant {name}")
    return json.loads(text, parse_constant=refuse)


class TestHugeAlpha:
    """An alpha past float range rents machine counts that no float holds:
    the ratio is infinite, written as JSON ``null``, and the certificate
    audit still runs."""

    @pytest.fixture
    def unit_file(self, tmp_path):
        path = tmp_path / "unit.json"
        assert main(["gen", "random-unit", "--jobs", "20", "--horizon", "10",
                     "--out", str(path)]) == 0
        return str(path)

    def test_run(self, capsys, unit_file):
        code, out, err = run_cli(capsys, "run", "alpha-edf", "--instance",
                                 unit_file, "--alpha", "1e400", "--format", "json")
        assert (code, err) == (0, "")
        payload = strict_json(out)
        assert payload["cost"] == payload["off"] * 10**400
        assert payload["ratio"] is None

    def test_game(self, capsys, tmp_path):
        path = tmp_path / "game.json"
        code, out, err = run_cli(capsys, "game", "alpha-edf", "--n", "5",
                                 "--alpha", "1e400", "--format", "json",
                                 "--out", str(path))
        assert (code, err) == (0, "")
        for payload in (strict_json(out), strict_json(path.read_text())):
            assert payload["cost"] == payload["off_final"] * 10**400
            assert payload["ratio"] is None

    def test_verify_certificate(self, capsys, unit_file):
        code, out, err = run_cli(capsys, "verify", "certificate", "--instance",
                                 unit_file, "--alpha", "1e400", "--grid", "7")
        assert (code, err) == (0, "")
        assert json.loads(out)["ok"] is True


class TestCertificateBytes:
    @pytest.mark.parametrize("name, alpha, grid", sorted(CERTIFICATE_DIGESTS))
    def test_every_dstar_is_pinned(self, capsys, tmp_path, monkeypatch,
                                   name, alpha, grid):
        monkeypatch.chdir(tmp_path)
        path = f"{name}.json"
        assert main(["gen", *CERTIFICATE_FILES[name], "--out", path]) == 0
        code, out, _ = run_cli(capsys, "verify", "certificate", "--instance",
                               path, "--alpha", alpha, "--grid", str(grid))
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert (code, digest) == CERTIFICATE_DIGESTS[name, alpha, grid]

    @pytest.mark.parametrize("argv, count", [
        # the file's smallest deadline, 5, is the first dstar checked
        (["--grid", str(2**62)], 5 * 2**62),
        (["--dstar", str(10**20)], 10**20 * 1000),
    ])
    def test_grid_too_large_to_allocate_is_usage_error(self, capsys, tmp_path,
                                                        argv, count):
        # numpy refuses more than 2**63 grid points before allocating any
        path = tmp_path / "unit.json"
        assert main(["gen", "random-unit", "--jobs", "20", "--horizon", "10",
                     "--out", str(path)]) == 0
        code, out, err = run_cli(capsys, "verify", "certificate",
                                 "--instance", str(path), *argv)
        assert code == 2
        assert out == ""
        assert err == (f"error: {count} grid points do not fit in memory as "
                       "a float64 array\n")


class TestBench:
    def test_empty_sweep_header_only(self, capsys, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"cells": []}))
        code, out, _ = run_cli(capsys, "bench", "--spec", str(spec))
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == CSV_VERSION
        assert len(lines) == 2

    def test_aggregate_cells(self, capsys, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"cells": [
            {"kind": "aggregate-game", "alpha": "e", "n": 100},
            {"kind": "aggregate-game", "alpha": "1", "n": 100},
        ]}))
        code, out, _ = run_cli(capsys, "bench", "--spec", str(spec))
        assert code == 0
        rows = parse_csv(out)
        assert rows[0]["missed"] == "False"
        assert rows[1]["missed"] == "True"
        assert all(row["seed"] != "" and row["params"] != "" for row in rows)

    def test_matching_ratio_cell(self, capsys, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"cells": [
            {"kind": "matching-ratio", "gen": "upper-triangular",
             "k": 1, "levels": 4, "trials": 200, "seed": 0},
        ]}))
        code, out, _ = run_cli(capsys, "bench", "--spec", str(spec))
        assert code == 0
        values, = parse_csv(out)
        assert float(values["ratio"]) >= 0.55

    def test_budget_marks_timeout(self, capsys, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"cells": [
            {"kind": "aggregate-game", "alpha": "e", "n": 50000},
        ]}))
        code, out, _ = run_cli(capsys, "bench", "--spec", str(spec),
                               "--budget", "0.0")
        assert code == 1
        assert "timeout" in out

    def test_score_table_too_large_to_allocate_is_usage_error(self, capsys,
                                                              tmp_path):
        # 20 jobs x 1e18 trials of float64 pass the address space, so numpy
        # refuses the table before allocating it and no seed is drawn.
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"cells": [
            {"kind": "matching-ratio", "jobs": 20, "horizon": 8, "k": 2,
             "trials": 10**18},
        ]}))
        code, out, err = run_cli(capsys, "bench", "--spec", str(spec))
        assert code == 2
        assert out == ""
        assert ("error: 1000000000000000000 trials of 20 jobs do not fit in "
                "memory as a float64 score table") in err
        assert "Traceback" not in err

    def test_unknown_cell_kind(self, capsys, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"cells": [{"kind": "mystery"}]}))
        code, _, _ = run_cli(capsys, "bench", "--spec", str(spec))
        assert code == 2


    def test_spec_that_is_not_utf8_is_usage_error(self, capsys, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_bytes(b'{"cells": [\xff]}')
        code, out, err = run_cli(capsys, "bench", "--spec", str(spec))
        assert code == 2
        assert out == ""
        assert err == f"error: {spec}: not UTF-8 text at byte 11\n"

    @pytest.mark.parametrize("text, message", [
        ("{bad", "bench spec"),
        ('[{"kind": "aggregate-game", "n": 5}]', "list of cell objects"),
        ('{"cells": [7]}', "list of cell objects"),
        ('{"cells": [{"kind": ["run"]}]}', "unknown bench cell kind"),
        ('{"cells": [{"kind": "aggregate-game"}]}', "needs n"),
        ('{"cells": [{"kind": "run", "alpha": "e"}]}', "needs instance"),
        ('{"cells": [{"kind": "aggregate-game", "n": "5"}]}',
         "n must be an integer"),
        ('{"cells": [{"kind": "aggregate-game", "n": 5, "N": 2.5}]}',
         "N must be an integer"),
        ('{"cells": [{"kind": "aggregate-game", "n": true}]}',
         "n must be an integer"),
        ('{"cells": [{"kind": "aggregate-game", "n": 5}, '
         '{"kind": "matching-ratio", "trials": false}]}',
         "trials must be an integer"),
        ('{"cells": [{"kind": "matching-ratio", "seed": null}]}',
         "seed must be an integer"),
        ('{"budget": "x", "cells": [{"kind": "aggregate-game", "n": 3}]}',
         "budget must be a number"),
        ('{"budget": NaN, "cells": [{"kind": "aggregate-game", "n": 3}]}',
         "budget must be a number"),
        ('{"budget": -1, "cells": []}', "budget must be a number"),
        ('{"cells": [{"kind": "run", "instance": true}]}',
         "instance must be a file name"),
        ('{"cells": [{"kind": "run", "instance": 2}]}',
         "instance must be a file name"),
        ("[" * 100000, "bench spec"),
        ('{"budget": 1' + "0" * 5000 + "}", "bench spec"),
    ])
    def test_malformed_spec_is_usage_error(self, capsys, tmp_path, text,
                                           message):
        spec = tmp_path / "spec.json"
        spec.write_text(text)
        code, out, err = run_cli(capsys, "bench", "--spec", str(spec))
        assert code == 2
        assert out == ""
        assert "error: " in err and message in err


class TestOversized:
    """Streams and tables past what numpy holds, and numbers past what
    Python reads, exit 2 at once with one ``error:`` line.  Every size is
    one numpy refuses on any host before allocating: past 2**60 int64
    steps or float64 cells."""

    STEPS = 2**62

    @pytest.mark.parametrize("argv, message", [
        (["game", "e-edf", "--n", str(STEPS), "--aggregate"],
         f"{STEPS} steps do not fit in memory as int64 columns"),
        (["game", "e-edf", "--n", str(STEPS)],
         f"{STEPS} steps do not fit in memory as int64 columns"),
        (["game", "e-edf", "--n", str(STEPS), "--big-n", "1", "--aggregate"],
         f"{STEPS} steps do not fit in memory as int64 columns"),
        (["game", "e-edf", "--n", str(2**63 - 1), "--big-n", "0"],
         f"{2**63 - 1} steps do not fit in memory as int64 columns"),
        (["gen", "adversary", "--n", str(STEPS)],
         f"{STEPS} steps do not fit in memory as int64 columns"),
        (["verify", "envelope", "--n", str(10**20)],
         f"{10**20} steps do not fit in memory as Python ints"),
        (["verify", "envelope", "--n", str(STEPS), "--big-n", "1"],
         f"{STEPS} steps do not fit in memory as int64 columns"),
    ])
    def test_stream_refused_at_once(self, capsys, watchdog, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("algo", [["perturbed-greedy", "--seed", "1"],
                                      ["greedy-baseline"], ["edf-throughput"]])
    def test_window_refused_at_once(self, capsys, watchdog, tmp_path, algo):
        path = tmp_path / "tp.json"
        path.write_text(json.dumps({"model": "throughput", "k": 1, "jobs": [
            {"id": 0, "r": 0, "d": self.STEPS}]}))
        code, out, err = run_cli(capsys, "run", *algo, "--instance", str(path))
        assert code == 2
        assert out == ""
        assert err == f"error: {self.STEPS} steps do not fit in memory as int64 columns\n"

    @pytest.mark.parametrize("algo", [["perturbed-greedy", "--seed", "1"],
                                      ["greedy-baseline"]])
    def test_long_window_matched_at_once(self, capsys, watchdog, tmp_path, algo):
        # a million active steps, one segment: the matcher makes one pick
        path = tmp_path / "tp.json"
        path.write_text(json.dumps({"model": "throughput", "k": 1, "jobs": [
            {"id": 0, "r": 0, "d": 10**6}]}))
        code, out, err = run_cli(capsys, "run", *algo, "--instance", str(path),
                                 "--format", "json")
        assert (code, err) == (0, "")
        summary = json.loads(out)
        assert (summary["weight"], summary["opt"], summary["ratio"]) == (1.0, 1.0, 1.0)

    @pytest.mark.parametrize("algo", [["greedy-baseline"],
                                      ["perturbed-greedy", "--seed", "1"]])
    def test_assignment_table_refused_at_once(self, capsys, watchdog,
                                              tmp_path, algo):
        path = tmp_path / "tp.json"
        assert main(["gen", "throughput", "--jobs", "1", "--horizon", "2",
                     "--k", str(2**62 + 1), "--out", str(path)]) == 0
        code, out, err = run_cli(capsys, "run", *algo, "--instance", str(path))
        assert code == 2
        assert out == ""
        assert err.endswith(" cells do not fit in memory as a float64 "
                            "assignment table\n")
        assert "Traceback" not in err

    def test_matching_ratio_cell_refused_at_once(self, capsys, watchdog,
                                                 tmp_path):
        # the matcher offers each step's jobs to at most as many machines
        # as there are jobs, so the trials end and the OPT table is refused
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"cells": [
            {"kind": "matching-ratio", "jobs": 1, "horizon": 2,
             "k": 2**62 + 1, "trials": 2}]}))
        code, out, err = run_cli(capsys, "bench", "--spec", str(spec))
        assert code == 2
        assert out == ""
        assert err.endswith(" cells do not fit in memory as a float64 "
                            "assignment table\n")

    def test_exponent_past_the_digit_limit_refused_at_once(self, capsys, watchdog,
                                                           tmp_path):
        # Fraction("1e-100000000") would build 10**100000000 first
        path = tmp_path / "ed.json"
        path.write_text(json.dumps({"model": "equal-deadline", "jobs": [
            {"id": 0, "r": "1e-100000000", "d": 7, "p": 3}]}))
        code, out, err = run_cli(capsys, "run", "equal-deadline",
                                 "--instance", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "bad numeric string '1e-100000000'" in err

    def test_json_int_past_the_digit_limit_refused(self, capsys, watchdog,
                                                   tmp_path):
        # json.loads refuses a 5000-digit int with a plain ValueError
        path = tmp_path / "ed.json"
        path.write_text('{"model": "equal-deadline", "jobs": [{"id": 0, '
                        '"r": 0, "p": 1, "d": ' + "9" * 5000 + '}]}')
        code, out, err = run_cli(capsys, "run", "equal-deadline",
                                 "--instance", str(path))
        assert code == 2
        assert out == ""
        assert err == (f"error: bad JSON: a number has more than "
                       f"{sys.get_int_max_str_digits()} digits, Python's limit "
                       f"for reading an int from text\n")

    @pytest.mark.parametrize("model, job, message", [
        ("equal-deadline", {"r": 0, "d": "1" * 4000 + "." + "1" * 4000, "p": 1},
         "BadCommonDeadline[instance]: deadline <8000 digits over 4001> is not "
         "of the form 2**k - 1"),
        ("unit-min", {"r": "1" * 4000 + "." + "1" * 4000, "d": 3},
         "WindowTooSmall[job 0]: r+p=<8000 digits over 4001> exceeds d=3; "
         "NonIntegerTime[job 0]: r=<8000 digits over 4001>, d=3 must be integers"),
        ("equal-deadline", {"r": 0, "d": 7, "p": 1, "w": "-" + "1" * 4000 + "." + "1" * 4000},
         "NegativeWeight[job 0]: w=-<8000 digits over 4001>"),
    ])
    def test_number_past_the_digit_limit_named_in_a_violation(
            self, capsys, tmp_path, model, job, message):
        # str() of such a number raises ValueError; the text names its size
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"model": model, "jobs": [{"id": 0, **job}]}))
        algo = "equal-deadline" if model == "equal-deadline" else "e-edf"
        code, out, err = run_cli(capsys, "run", algo, "--instance", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: invalid instance: {message}\n"

    def test_number_past_the_digit_limit_refused_at_write(self, capsys,
                                                          watchdog):
        # the deadline 2**20000 - 1 has 6021 digits
        code, out, err = run_cli(capsys, "gen", "equal-deadline", "--kappa",
                                 "20000", "--jobs", "1")
        assert code == 2
        assert out == ""
        assert err == (f"error: a number has more than "
                       f"{sys.get_int_max_str_digits()} digits, Python's limit "
                       f"for writing an int as text\n")

    def test_weights_past_the_exact_range_refused(self, capsys, tmp_path):
        path = tmp_path / "tp.json"
        path.write_text(json.dumps({"model": "throughput", "k": 1, "jobs": [
            {"id": 0, "r": 0, "d": 1, "w": 2**53 + 1},
            {"id": 1, "r": 0, "d": 1, "w": 2**53}]}))
        code, out, err = run_cli(capsys, "run", "greedy-baseline",
                                 "--instance", str(path))
        assert code == 2
        assert out == ""
        assert "float64 solver's exact range" in err

    def test_fractional_weights_past_the_exact_range_refused(self, capsys,
                                                            tmp_path):
        # 1 + 10**-20 and 1 are both 1.0 as floats: this exited 0 with OPT 1
        path = tmp_path / "tp.json"
        path.write_text(json.dumps({"model": "throughput", "k": 1, "jobs": [
            {"id": 0, "r": 0, "d": 1, "w": "1.00000000000000000001"},
            {"id": 1, "r": 0, "d": 1, "w": 1}]}))
        code, out, err = run_cli(capsys, "run", "greedy-baseline",
                                 "--instance", str(path))
        assert code == 2
        assert out == ""
        assert "float64 solver's exact range" in err


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "schedlab.cli", "gen", "adversary",
         "--n", "4", "--big-n", "16"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert len(read_instance(proc.stdout).jobs) == 33


def test_import_loads_no_scipy():
    # scipy serves only the flow cross-check and the assignment OPT, which
    # import it when called; every other sched call is spared the load.
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, schedlab; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_console_script():
    # Run the installed script when it is on PATH; otherwise check that
    # pyproject.toml names the entry point and run that entry point.
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).resolve().parent.parent
    with open(root / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["sched"]
    assert target == "schedlab.cli:main"
    module, _, attr = target.partition(":")
    assert callable(getattr(importlib.import_module(module), attr))
    argv = ["game", "e-edf", "--n", "4", "--big-n", "16", "--format", "json"]
    if shutil.which("sched") is not None:
        proc = subprocess.run(["sched", *argv], capture_output=True, text=True)
    else:
        path = os.pathsep.join(filter(None, [str(root / "src"),
                                             os.environ.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-m", module, *argv],
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["stopped_at"] == 0
