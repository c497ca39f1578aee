"""Command-line drivers: config handling, exit codes, artifact flows."""

import csv
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from dtanet.cli import (DEFAULT_GRID, EXIT_DATA, EXIT_NUMERICAL, EXIT_OK,
                        EXIT_USAGE, UsageError, _parse_grid, load_config, main)

TINY_CONFIG = {
    "n": 120, "d": 6, "epochs": 3,
    "rep_dim": 4, "med_dim": 4,
    "phi_hidden": [4], "psi_hidden": [4], "head_hidden": [4],
    "batch_size_t": 8, "batch_size_c": 8,
}


def write_config(tmp_path, extra=None, name="cfg.json"):
    cfg = dict(TINY_CONFIG)
    if extra:
        cfg.update(extra)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestConfig:
    def test_partition_between_generator_and_trainer(self, tmp_path):
        path = write_config(tmp_path, {"rho": 0.2, "lambda1": 0.15})
        synth_kwargs, train_kwargs = load_config(path)
        assert synth_kwargs["rho"] == 0.2
        assert train_kwargs["lambda1"] == 0.15
        assert "lambda1" not in synth_kwargs
        assert synth_kwargs["n"] == 120 and "n" not in train_kwargs

    def test_seed_feeds_both(self, tmp_path):
        path = write_config(tmp_path, {"seed": 7})
        synth_kwargs, train_kwargs = load_config(path)
        assert synth_kwargs["seed"] == train_kwargs["seed"] == 7

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"learning_rate": 0.1}')
        with pytest.raises(UsageError, match="learning_rate"):
            load_config(path)

    def test_non_object_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("[1, 2]")
        with pytest.raises(UsageError):
            load_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(UsageError):
            load_config(tmp_path / "nope.json")


class TestGridSpec:
    def test_default_grid(self):
        assert DEFAULT_GRID == ((0.1, 0.15, 0.2), (0.3, 0.375, 0.45))

    def test_parse(self):
        assert _parse_grid("0.1,0.2x0.3,0.45") == ((0.1, 0.2), (0.3, 0.45))

    def test_malformed(self):
        for bad in ("0.1", "0.1x0.2x0.3", "axb"):
            with pytest.raises(UsageError):
                _parse_grid(bad)

    def test_values_must_be_finite_and_nonnegative(self):
        for bad in ("-0.1x0.3", "0.1x-0.3", "nanx0.3", "0.1xinf"):
            with pytest.raises(UsageError, match="finite"):
                _parse_grid(bad)
        assert _parse_grid("0x0") == ((0.0,), (0.0,))


class TestExitCodes:
    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == EXIT_USAGE

    def test_missing_data_flag(self, tmp_path):
        assert main(["train", "--out", str(tmp_path)]) == EXIT_USAGE

    def test_bad_config_key(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"bogus": 1}')
        code = main(["generate", "--config", str(path), "--out", str(tmp_path)])
        assert code == EXIT_USAGE

    def test_missing_dataset_file(self, tmp_path):
        code = main(["train", "--data", str(tmp_path / "nope.csv"),
                     "--out", str(tmp_path)])
        assert code == EXIT_DATA

    def test_malformed_dataset(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("x1,t,y\n1.0,2,3.0\n")
        code = main(["train", "--data", str(bad), "--out", str(tmp_path)])
        assert code == EXIT_DATA

    def test_numerical_failure(self, tmp_path, monkeypatch):
        from dtanet import cli

        def explode(*a, **k):
            raise FloatingPointError("non-finite loss at epoch 0, batch 0")

        monkeypatch.setattr(cli, "train", explode)
        cfg = write_config(tmp_path)
        data = tmp_path / "d.csv"
        assert main(["generate", "--config", cfg, "--out", str(tmp_path)]) == EXIT_OK
        (tmp_path / "dataset.csv").rename(data)
        code = main(["train", "--config", cfg, "--data", str(data),
                     "--out", str(tmp_path / "run")])
        assert code == EXIT_NUMERICAL


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """generate -> train -> evaluate once; several tests inspect it."""
    root = tmp_path_factory.mktemp("flow")
    cfg = write_config(root)
    assert main(["generate", "--config", cfg, "--out", str(root)]) == EXIT_OK
    data = str(root / "dataset.csv")
    run = root / "run"
    assert main(["train", "--config", cfg, "--data", data,
                 "--out", str(run)]) == EXIT_OK
    assert main(["evaluate", "--config", cfg, "--data", data,
                 "--checkpoint", str(run / "checkpoint.npz"),
                 "--out", str(run)]) == EXIT_OK
    return root, cfg, data, run


class TestPipeline:
    def test_generate_writes_loadable_csv(self, workspace):
        from dtanet.data import load_csv
        root, _, data, _ = workspace
        ds = load_csv(data)
        assert (ds.n, ds.d) == (120, 6)
        assert ds.has_ground_truth

    def test_train_artifacts(self, workspace):
        _, _, _, run = workspace
        assert (run / "checkpoint.npz").exists()
        rows = read_rows(run / "trace.csv")
        assert rows[0][:2] == ["epoch", "l_y"]
        assert len(rows) == 1 + TINY_CONFIG["epochs"]

    def test_metrics_rows_and_finiteness(self, workspace):
        _, _, _, run = workspace
        rows = read_rows(run / "metrics.csv")
        assert [r[0] for r in rows] == ["scope", "in_sample", "out_of_sample"]
        for row in rows[1:]:
            for cell in (row[1], row[2], row[6]):  # sqrt_pehe, eps_ate, policy_risk
                assert cell != ""
                assert np.isfinite(float(cell))
            assert row[4] == row[5] == ""  # mediated/direct need cross terms

    def test_evaluate_is_deterministic(self, workspace, tmp_path):
        _, cfg, data, run = workspace
        again = tmp_path / "again"
        assert main(["evaluate", "--config", cfg, "--data", data,
                     "--checkpoint", str(run / "checkpoint.npz"),
                     "--out", str(again)]) == EXIT_OK
        assert (run / "metrics.csv").read_bytes() == (again / "metrics.csv").read_bytes()

    def test_gridsearch_single_cell(self, workspace, tmp_path):
        _, cfg, data, _ = workspace
        out = tmp_path / "grid"
        code = main(["gridsearch", "--config", cfg, "--data", data,
                     "--out", str(out), "--grid", "0.1x0.3"])
        assert code == EXIT_OK
        rows = read_rows(out / "grid.csv")
        assert rows[0] == ["lambda1", "lambda2", "val_l_y", "status"]
        assert len(rows) == 2
        assert rows[1][3] == "ok"
        assert np.isfinite(float(rows[1][2]))

    def test_evaluate_split_seed_order(self, workspace, tmp_path):
        """evaluate splits with --seed, else the config file's seed, else the
        seed the checkpoint was trained with."""
        _, cfg, data, _ = workspace
        assert main(["train", "--config", cfg, "--data", data, "--seed", "7",
                     "--out", str(tmp_path / "run")]) == EXIT_OK

        def metrics(name, *argv):
            out = tmp_path / name
            assert main(["evaluate", "--data", data, "--out", str(out), "--checkpoint",
                         str(tmp_path / "run" / "checkpoint.npz"), *argv]) == EXIT_OK
            return (out / "metrics.csv").read_bytes()

        seed_7, seed_3 = metrics("seed_7", "--seed", "7"), metrics("seed_3", "--seed", "3")
        assert seed_7 != seed_3
        assert metrics("stored") == seed_7
        assert metrics("seedless_config", "--config", cfg) == seed_7
        cfg_3 = write_config(tmp_path, {"seed": 3}, name="seed_3.json")
        assert metrics("config_seed", "--config", cfg_3) == seed_3
        assert metrics("flag_over_config", "--config", cfg_3, "--seed", "7") == seed_7

    def test_seed_override_changes_dataset(self, workspace, tmp_path):
        _, cfg, data, _ = workspace
        out = tmp_path / "gen2"
        assert main(["generate", "--config", cfg, "--seed", "99",
                     "--out", str(out)]) == EXIT_OK
        assert (out / "dataset.csv").read_bytes() != open(data, "rb").read()



def nan_cell_copy(data, tmp_path):
    """The dataset with one covariate of the first data row set to nan."""
    rows = read_rows(data)
    rows[1][1] = "nan"
    bad = tmp_path / "nan.csv"
    with open(bad, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    return bad


def unreadable_copy(data, tmp_path, kind):
    """The dataset with its second data row made unreadable as UTF-8 CSV."""
    lines = Path(data).read_bytes().split(b"\r\n")
    if kind == "non-utf8":
        lines[2] = b"\xff" + lines[2]
    else:
        lines[2] = b"1" * (csv.field_size_limit() + 1) + lines[2]
    bad = tmp_path / f"{kind}.csv"
    bad.write_bytes(b"\r\n".join(lines))
    return bad


def only_error_line(capsys):
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1, err
    return lines[0]


class TestBadInput:
    def test_train_rejects_non_finite_cell(self, workspace, tmp_path, capsys):
        _, cfg, data, _ = workspace
        bad = nan_cell_copy(data, tmp_path)
        capsys.readouterr()
        code = main(["train", "--config", cfg, "--data", str(bad),
                     "--out", str(tmp_path / "run")])
        assert code == EXIT_DATA
        assert "row 2, column 'x2': non-finite" in only_error_line(capsys)
        assert not (tmp_path / "run" / "checkpoint.npz").exists()

    def test_evaluate_rejects_non_finite_cell(self, workspace, tmp_path, capsys):
        _, cfg, data, run = workspace
        bad = nan_cell_copy(data, tmp_path)
        capsys.readouterr()
        code = main(["evaluate", "--config", cfg, "--data", str(bad),
                     "--checkpoint", str(run / "checkpoint.npz"),
                     "--out", str(tmp_path / "eval")])
        assert code == EXIT_DATA
        assert "row 2, column 'x2': non-finite" in only_error_line(capsys)
        assert not (tmp_path / "eval" / "metrics.csv").exists()

    @pytest.mark.parametrize("kind, message", [
        ("non-utf8", "row 3 is not UTF-8 text"),
        ("long-cell", "row 3: field larger than field limit"),
    ])
    @pytest.mark.parametrize("command", ["train", "evaluate"])
    def test_unreadable_file(self, workspace, tmp_path, capsys, command, kind, message):
        _, cfg, data, run = workspace
        bad = unreadable_copy(data, tmp_path, kind)
        args = [command, "--config", cfg, "--data", str(bad), "--out", str(tmp_path / "out")]
        if command == "evaluate":
            args += ["--checkpoint", str(run / "checkpoint.npz")]
        capsys.readouterr()
        assert main(args) == EXIT_DATA
        line = only_error_line(capsys)
        assert line.startswith("data error:") and message in line

    def _evaluate(self, workspace, ckpt, tmp_path, capsys):
        _, cfg, data, _ = workspace
        capsys.readouterr()
        code = main(["evaluate", "--config", cfg, "--data", data,
                     "--checkpoint", str(ckpt), "--out", str(tmp_path / "eval")])
        assert code == EXIT_DATA
        return only_error_line(capsys)

    def _rewritten(self, workspace, tmp_path, change):
        *_, run = workspace
        with np.load(run / "checkpoint.npz") as archive:
            arrays = dict(archive)
        change(arrays)
        path = tmp_path / "changed.npz"
        np.savez(path, **arrays)
        return path

    def test_evaluate_rejects_another_covariate_width(self, workspace, tmp_path, capsys):
        _, cfg, data, run = workspace
        narrow = rewritten_csv(data, tmp_path, lambda rows: [r[:5] + r[6:] for r in rows])
        capsys.readouterr()
        code = main(["evaluate", "--config", cfg, "--data", narrow,
                     "--checkpoint", str(run / "checkpoint.npz"),
                     "--out", str(tmp_path / "eval")])
        assert code == EXIT_DATA
        assert only_error_line(capsys) == (
            f"data error: {narrow}: 5 covariate columns, the checkpoint's model reads 6")
        assert not (tmp_path / "eval" / "metrics.csv").exists()

    def test_checkpoint_with_nets_of_different_input_widths(self, workspace, tmp_path,
                                                             capsys):
        def narrow_psi_c(arrays):
            arrays["psi_c.layer0.weight"] = arrays["psi_c.layer0.weight"][:, :5]
        ckpt = self._rewritten(workspace, tmp_path, narrow_psi_c)
        assert self._evaluate(workspace, ckpt, tmp_path, capsys) == (
            f"data error: {ckpt}: not a usable dtanet checkpoint: "
            "phi, psi_t and psi_c input widths [6, 6, 5] differ")

    def test_checkpoint_not_a_zip(self, workspace, tmp_path, capsys):
        ckpt = tmp_path / "text.npz"
        ckpt.write_text("this is not a checkpoint\n")
        assert "not a usable dtanet checkpoint" in self._evaluate(
            workspace, ckpt, tmp_path, capsys)

    def test_checkpoint_with_pickled_data(self, workspace, tmp_path, capsys):
        def pickle_config(arrays):
            arrays["config_json"] = np.array([{"seed": 0}], dtype=object)
        ckpt = self._rewritten(workspace, tmp_path, pickle_config)
        assert "Object arrays cannot be loaded" in self._evaluate(
            workspace, ckpt, tmp_path, capsys)

    def test_checkpoint_wrong_version(self, workspace, tmp_path, capsys):
        def bump(arrays):
            arrays["checkpoint_version"] = np.array(99)
        ckpt = self._rewritten(workspace, tmp_path, bump)
        assert "unsupported checkpoint version 99" in self._evaluate(
            workspace, ckpt, tmp_path, capsys)

    def test_checkpoint_missing_network(self, workspace, tmp_path, capsys):
        def drop_head(arrays):
            for key in [k for k in arrays if k.startswith("head_c.")]:
                del arrays[key]
        ckpt = self._rewritten(workspace, tmp_path, drop_head)
        assert "the head_c network is missing" in self._evaluate(
            workspace, ckpt, tmp_path, capsys)

    @pytest.mark.parametrize("seed", ['"abc"', "3.0", "-1", "true"])
    def test_checkpoint_with_bad_seed(self, workspace, tmp_path, capsys, seed):
        def reseed(arrays):
            config = json.loads(str(arrays["config_json"]))
            config["seed"] = json.loads(seed)
            arrays["config_json"] = np.array(json.dumps(config, sort_keys=True))
        ckpt = self._rewritten(workspace, tmp_path, reseed)
        assert self._evaluate(workspace, ckpt, tmp_path, capsys) == (
            f"data error: {ckpt}: not a usable dtanet checkpoint: "
            f"stored seed {json.loads(seed)!r} is not an integer >= 0")


class TestExplain:
    def test_exclusion_groups_and_distances(self, tmp_path):
        cfg = write_config(tmp_path, {"n": 60, "epochs": 1})
        out = tmp_path / "explain"
        code = main(["explain", "--config", cfg, "--out", str(out),
                     "--trials", "2", "--exclude", "x1", "--exclude", "x2,x3"])
        assert code == EXIT_OK
        samples = read_rows(out / "explain_samples.csv")
        labels = {r[0] for r in samples[1:]}
        assert labels == {"baseline", "x1", "x2+x3"}
        assert all(r[4] == "ok" for r in samples[1:])
        dists = read_rows(out / "explain_distances.csv")
        assert [r[0] for r in dists[1:]] == ["x1", "x2+x3"]
        for row in dists[1:]:
            assert float(row[3]) == pytest.approx(float(row[1]) * 1e3)
            assert float(row[1]) >= 0.0

    def test_trials_floor(self, tmp_path):
        cfg = write_config(tmp_path)
        code = main(["explain", "--config", cfg, "--out", str(tmp_path / "e"),
                     "--trials", "1"])
        assert code == EXIT_USAGE


class TestSensitivity:
    def test_rho_sweep_summary(self, tmp_path):
        cfg = write_config(tmp_path, {"n": 60, "epochs": 1})
        out = tmp_path / "sens"
        code = main(["sensitivity", "--config", cfg, "--out", str(out),
                     "--trials", "2", "--rho", "0.3", "--rho", "-0.3", "--rho", "0"])
        assert code == EXIT_OK
        rows = read_rows(out / "sensitivity.csv")
        assert rows[0][0] == "rho"
        assert [float(r[0]) for r in rows[1:]] == [-0.3, 0.0, 0.3]
        for row in rows[1:]:
            assert float(row[1]) == pytest.approx(0.5)  # true mediated mean
            assert int(row[8]) == 2
            assert np.isfinite(float(row[2]))

    def test_rho_out_of_range(self, tmp_path):
        cfg = write_config(tmp_path)
        code = main(["sensitivity", "--config", cfg, "--out", str(tmp_path / "s"),
                     "--rho", "1.5", "--trials", "2"])
        assert code == EXIT_USAGE


def fail_calls(monkeypatch, failing):
    """Make cli.train raise FloatingPointError on the given 0-based calls."""
    from dtanet import cli
    real, calls = cli.train, []

    def flaky(*args, **kwargs):
        calls.append(args[1].seed)
        if len(calls) - 1 in failing:
            raise FloatingPointError(f"diverged in call {len(calls) - 1}")
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "train", flaky)
    return calls


class TestTrialLoop:
    """explain and sensitivity train trial k with seed + k, gridsearch trains
    every cell at the config's seed, and every driver turns a diverged trial
    into an `error:` row without touching the other trials."""

    def _sensitivity(self, tmp_path, name):
        cfg = write_config(tmp_path, {"n": 60, "epochs": 1})
        out = tmp_path / name
        code = main(["sensitivity", "--config", cfg, "--out", str(out),
                     "--trials", "3", "--rho", "0.3", "--rho", "0"])
        assert code == EXIT_OK
        return read_rows(out / "sensitivity_samples.csv"), read_rows(out / "sensitivity.csv")

    def test_sensitivity_failed_trials(self, tmp_path, monkeypatch):
        clean_samples, _ = self._sensitivity(tmp_path, "clean")
        calls = fail_calls(monkeypatch, {1, 3, 4, 5})
        samples, summary = self._sensitivity(tmp_path, "flaky")
        assert calls == [0, 1, 2, 0, 1, 2]
        assert samples[0] == ["rho", "trial", "ame", "ade", "status"]
        assert samples[2] == ["0.0", "1", "", "", "error: diverged in call 1"]
        for k, row in enumerate(samples[4:]):
            assert row == ["0.3", str(k), "", "", f"error: diverged in call {k + 3}"]
        # a failure does not move the seeds of the trials after it
        assert samples[1] == clean_samples[1] and samples[3] == clean_samples[3]

        zero, all_failed = summary[1:]
        assert zero[0] == "0.0" and zero[8] == "2"
        ames = [float(samples[1][2]), float(samples[3][2])]
        assert float(zero[2]) == pytest.approx(np.mean(ames))
        assert all_failed[0] == "0.3" and all_failed[8] == "0"
        assert float(all_failed[1]) == pytest.approx(0.5)  # true AME is still reported
        assert all_failed[2:8] == [""] * 6

    def test_explain_with_every_baseline_trial_failed(self, tmp_path, monkeypatch):
        fail_calls(monkeypatch, {0, 1})
        cfg = write_config(tmp_path, {"n": 60, "epochs": 1})
        out = tmp_path / "explain"
        code = main(["explain", "--config", cfg, "--out", str(out),
                     "--trials", "2", "--exclude", "x1"])
        assert code == EXIT_OK
        samples = read_rows(out / "explain_samples.csv")
        assert [r[4] for r in samples[1:]] == [
            "error: diverged in call 0", "error: diverged in call 1", "ok", "ok"]
        assert read_rows(out / "explain_distances.csv") == [
            ["exclude", "w1_mediate", "w1_direct", "w1_mediate_x1000", "w1_direct_x1000"]]

    def test_explain_skips_a_group_with_every_trial_failed(self, tmp_path, monkeypatch):
        calls = fail_calls(monkeypatch, {2, 3})
        cfg = write_config(tmp_path, {"n": 60, "epochs": 1})
        out = tmp_path / "explain"
        code = main(["explain", "--config", cfg, "--out", str(out),
                     "--trials", "2", "--exclude", "x1", "--exclude", "x2"])
        assert code == EXIT_OK
        assert calls == [0, 1, 0, 1, 0, 1]
        assert [r[0] for r in read_rows(out / "explain_distances.csv")[1:]] == ["x2"]

    def test_gridsearch_trains_every_cell_at_the_config_seed(self, workspace, tmp_path,
                                                             monkeypatch):
        _, cfg, data, _ = workspace
        calls = fail_calls(monkeypatch, set())
        code = main(["gridsearch", "--config", cfg, "--data", data, "--seed", "5",
                     "--out", str(tmp_path / "grid"), "--grid", "0.1,0.2x0.3,0.45"])
        assert code == EXIT_OK
        assert calls == [5, 5, 5, 5]

    def test_gridsearch_failed_cell(self, workspace, tmp_path, monkeypatch):
        _, cfg, data, _ = workspace
        fail_calls(monkeypatch, {0})
        out = tmp_path / "grid"
        code = main(["gridsearch", "--config", cfg, "--data", data,
                     "--out", str(out), "--grid", "0.1x0.3,0.45"])
        assert code == EXIT_OK
        rows = read_rows(out / "grid.csv")
        assert rows[1] == ["0.1", "0.3", "", "error: diverged in call 0"]
        assert rows[2][3] == "ok"

    def test_gridsearch_every_cell_failed(self, workspace, tmp_path, monkeypatch):
        _, cfg, data, _ = workspace
        fail_calls(monkeypatch, {0, 1})
        code = main(["gridsearch", "--config", cfg, "--data", data,
                     "--out", str(tmp_path / "grid"), "--grid", "0.1x0.3,0.45"])
        assert code == EXIT_NUMERICAL


def rewritten_csv(data, tmp_path, change):
    rows = change(read_rows(data))
    path = tmp_path / "changed.csv"
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    return str(path)


def all_control(rows):
    t = rows[0].index("t")
    return [rows[0]] + [r[:t] + ["0"] + r[t + 1:] for r in rows[1:]]


class TestDataConditions:
    """Data that cannot be trained on exits 2 with one `data error:` line."""

    def _data_error(self, argv, capsys):
        capsys.readouterr()
        assert main(argv) == EXIT_DATA
        line = only_error_line(capsys)
        assert line.startswith("data error: ")
        return line

    def test_train_without_treated_rows(self, workspace, tmp_path, capsys):
        _, cfg, data, _ = workspace
        path = rewritten_csv(data, tmp_path, all_control)
        line = self._data_error(["train", "--config", cfg, "--data", path,
                                 "--out", str(tmp_path / "run")], capsys)
        assert "at least one treated and one control" in line

    def test_gridsearch_without_treated_rows(self, workspace, tmp_path, capsys):
        _, cfg, data, _ = workspace
        path = rewritten_csv(data, tmp_path, all_control)
        self._data_error(["gridsearch", "--config", cfg, "--data", path,
                          "--out", str(tmp_path / "grid"), "--grid", "0.1x0.3"], capsys)

    def test_train_on_four_rows(self, workspace, tmp_path, capsys):
        _, cfg, data, _ = workspace
        path = rewritten_csv(data, tmp_path, lambda rows: rows[:5])
        line = self._data_error(["train", "--config", cfg, "--data", path,
                                 "--out", str(tmp_path / "run")], capsys)
        assert "need n >= 5 to split" in line

    @pytest.mark.parametrize("command", ["sensitivity", "explain"])
    def test_sweep_on_four_rows(self, command, tmp_path, capsys):
        cfg = write_config(tmp_path, {"n": 4})
        line = self._data_error([command, "--config", cfg, "--out", str(tmp_path / "s"),
                                 "--trials", "2"], capsys)
        assert "need n >= 5 to split" in line


class TestSweepsCheckBeforeTraining:
    """A sweep whose inputs cannot all be used stops before its first training."""

    @pytest.fixture
    def trainings(self, monkeypatch):
        from dtanet import cli
        calls = []

        def record(*args, **kwargs):
            calls.append(args[1].seed)
            raise FloatingPointError("trained")

        monkeypatch.setattr(cli, "train", record)
        return calls

    @staticmethod
    def _fails(argv, code, capsys):
        capsys.readouterr()
        assert main(argv) == code
        return only_error_line(capsys)

    def test_gridsearch_without_a_validation_row(self, workspace, tmp_path, capsys,
                                                 trainings):
        _, cfg, data, _ = workspace
        path = rewritten_csv(data, tmp_path, lambda rows: rows[:6])
        line = self._fails(["gridsearch", "--config", cfg, "--data", path, "--out",
                            str(tmp_path / "grid"), "--grid", "0.1x0.3,0.45"],
                           EXIT_DATA, capsys)
        assert line.startswith("data error: ") and "validation" in line
        assert trainings == []

    def test_explain_unknown_covariate(self, tmp_path, capsys, trainings):
        cfg = write_config(tmp_path, {"n": 60, "epochs": 1})
        line = self._fails(["explain", "--config", cfg, "--out", str(tmp_path / "e"),
                            "--trials", "2", "--exclude", "x1", "--exclude", "bogus"],
                           EXIT_DATA, capsys)
        assert line == "data error: unknown covariates: ['bogus']"
        assert trainings == []

    def test_explain_repeated_group(self, tmp_path, capsys, trainings):
        cfg = write_config(tmp_path, {"n": 60, "epochs": 1})
        line = self._fails(["explain", "--config", cfg, "--out", str(tmp_path / "e"),
                            "--trials", "2", "--exclude", "x1", "--exclude", "x1"],
                           EXIT_USAGE, capsys)
        assert line.startswith("error: ") and "'x1'" in line
        assert trainings == []

    def test_explain_covariate_named_baseline(self, workspace, tmp_path, capsys,
                                              trainings):
        _, cfg, data, _ = workspace
        path = rewritten_csv(data, tmp_path, lambda rows: [["baseline", *rows[0][1:]],
                                                            *rows[1:]])
        line = self._fails(["explain", "--config", cfg, "--data", path,
                            "--out", str(tmp_path / "e"), "--trials", "2"],
                           EXIT_USAGE, capsys)
        assert line.startswith("error: ") and "'baseline'" in line
        assert trainings == []


class TestDivergence:
    """A step size that overflows the representations is a numerical failure."""

    @staticmethod
    def _quiet_main(argv):
        """main(argv), asserting that it issues no RuntimeWarning."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(argv)
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        return code

    def test_train_exits_3(self, workspace, tmp_path, capsys):
        _, _, data, _ = workspace
        cfg = write_config(tmp_path, {"alpha": 1e200})
        capsys.readouterr()
        code = self._quiet_main(["train", "--config", cfg, "--data", data,
                                 "--out", str(tmp_path / "run")])
        assert code == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "numerical failure: non-finite transport cost" in err
        assert not (tmp_path / "run" / "checkpoint.npz").exists()

    def test_sensitivity_records_error_rows(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"n": 60, "epochs": 1, "alpha": 1e200})
        out = tmp_path / "sens"
        code = self._quiet_main(["sensitivity", "--config", cfg, "--out", str(out),
                                 "--trials", "2"])
        assert code == EXIT_OK
        assert "Traceback" not in capsys.readouterr().err
        samples = read_rows(out / "sensitivity_samples.csv")
        assert len(samples) == 3
        for row in samples[1:]:
            assert row[4].startswith("error: non-finite transport cost")
        assert read_rows(out / "sensitivity.csv")[1][8] == "0"


class TestValueChecks:
    @pytest.mark.parametrize("command, extra, argv", [
        ("train", {"batch_size_t": 1.5}, []),
        ("train", {"epochs": 2.5}, []),
        ("train", {"phi_hidden": [-3]}, []),
        ("train", {"seed": -1}, []),
        ("train", {}, ["--seed", "-1"]),
        ("train", {"sinkhorn_max_iter": 0}, []),
        ("train", {"sinkhorn_tol": 0}, []),
        ("train", {"alpha": "x"}, []),
        ("train", {"beta1": 1.0}, []),
        ("generate", {"n": 60.5}, []),
        ("generate", {"d": 6.5}, []),
        ("generate", {"seed": -2}, []),
        ("generate", {"a": "x"}, []),
    ])
    def test_invalid_config_value(self, workspace, tmp_path, capsys, command, extra, argv):
        _, _, data, _ = workspace
        cfg = write_config(tmp_path, extra)
        args = [command, "--config", cfg, "--out", str(tmp_path / "out"), *argv]
        if command == "train":
            args += ["--data", data]
        capsys.readouterr()
        assert main(args) == EXIT_USAGE
        assert only_error_line(capsys).startswith("error: invalid config: ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("extra", [{"med_dim": 0, "lambda1": 0}, {"rep_dim": 0},
                                       {"alpha": 1, "beta1": 0, "lambda2": 0}])
    def test_boundary_config_values_train(self, workspace, tmp_path, extra):
        _, _, data, _ = workspace
        cfg = write_config(tmp_path, {**extra, "epochs": 1})
        assert main(["train", "--config", cfg, "--data", data,
                     "--out", str(tmp_path / "run")]) == EXIT_OK

    def test_gridsearch_needs_an_epoch(self, workspace, tmp_path, capsys):
        _, _, data, _ = workspace
        cfg = write_config(tmp_path, {"epochs": 0})
        capsys.readouterr()
        code = main(["gridsearch", "--config", cfg, "--data", data,
                     "--out", str(tmp_path / "grid"), "--grid", "0.1x0.3"])
        assert code == EXIT_USAGE
        line = only_error_line(capsys)
        assert line.startswith("error: ") and "epochs" in line
        assert not (tmp_path / "grid").exists()

    def test_negative_grid_value(self, workspace, tmp_path, capsys):
        _, cfg, data, _ = workspace
        capsys.readouterr()
        code = main(["gridsearch", "--config", cfg, "--data", data,
                     "--out", str(tmp_path / "grid"), "--grid=-0.1x0.3"])
        assert code == EXIT_USAGE
        assert only_error_line(capsys).startswith("error: --grid")

    def test_nan_rho(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        code = main(["sensitivity", "--config", cfg, "--out", str(tmp_path / "s"),
                     "--rho", "nan", "--trials", "2"])
        assert code == EXIT_USAGE
        assert only_error_line(capsys) == "error: every --rho must lie in [-1, 1]"
        assert not (tmp_path / "s" / "sensitivity.csv").exists()

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_sensitivity_trials_floor(self, tmp_path, capsys, trials):
        cfg = write_config(tmp_path)
        code = main(["sensitivity", "--config", cfg, "--out", str(tmp_path / "s"),
                     f"--trials={trials}"])
        assert code == EXIT_USAGE
        assert only_error_line(capsys) == "error: --trials must be at least 1"
        assert not (tmp_path / "s").exists()


def test_explain_runs_without_scipy(tmp_path):
    src = Path(__file__).resolve().parents[1] / "src"
    cfg = write_config(tmp_path)
    script = ("import sys; sys.modules['scipy'] = None; "
              "from dtanet.cli import main; sys.exit(main(sys.argv[1:]))")
    proc = subprocess.run(
        [sys.executable, "-c", script, "explain", "--config", cfg, "--trials", "2",
         "--exclude", "x1", "--exclude", "x2,x3", "--out", str(tmp_path / "x")],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(src)))
    assert proc.returncode == EXIT_OK, proc.stderr
    rows = read_rows(tmp_path / "x" / "explain_distances.csv")
    assert [row[0] for row in rows] == ["exclude", "x1", "x2+x3"]
