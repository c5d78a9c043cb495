"""End-to-end coverage of the sched command line interface."""
import csv
import dataclasses
import io
import json
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

from schedlab import throughput
from schedlab.cli import CSV_VERSION, main
from schedlab.core import read_instance


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
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
        code, _, _ = run_cli(capsys, "run", "equal-deadline",
                             "--instance", adversary_file)
        assert code == 2

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "run", "e-edf",
                               "--instance", "/nonexistent.json")
        assert code == 2

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
    ])
    def test_envelope_bad_parameters_are_usage_errors(self, capsys, argv):
        code, out, err = run_cli(capsys, "verify", "envelope", *argv)
        assert code == 2
        assert out == ""
        assert "error: " in err

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

    def test_reduction_catches_mismapped_weights(self, capsys, monkeypatch):
        reduce = throughput.reduce_to_matching

        def rotated(instance):
            mi = reduce(instance)
            ids = list(mi.job_ids)
            moved = dict(zip(ids, [mi.weights[u] for u in ids[1:] + ids[:1]]))
            return dataclasses.replace(mi, weights=moved)

        monkeypatch.setattr(throughput, "reduce_to_matching", rotated)
        code, out, _ = run_cli(capsys, "verify", "reduction", "--count", "20",
                               "--seed", "1")
        assert code == 1
        assert json.loads(out)["failures"] != []


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

    def test_unknown_cell_kind(self, capsys, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"cells": [{"kind": "mystery"}]}))
        code, _, _ = run_cli(capsys, "bench", "--spec", str(spec))
        assert code == 2


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
    ])
    def test_malformed_spec_is_usage_error(self, capsys, tmp_path, text,
                                           message):
        spec = tmp_path / "spec.json"
        spec.write_text(text)
        code, out, err = run_cli(capsys, "bench", "--spec", str(spec))
        assert code == 2
        assert out == ""
        assert "error: " in err and message in err


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "schedlab.cli", "gen", "adversary",
         "--n", "4", "--big-n", "16"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert len(read_instance(proc.stdout).jobs) == 33


@pytest.mark.skipif(shutil.which("sched") is None,
                    reason="console script not on PATH")
def test_console_script():
    proc = subprocess.run(["sched", "game", "e-edf", "--n", "4",
                           "--big-n", "16", "--format", "json"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["stopped_at"] == 0
