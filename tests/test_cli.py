"""End-to-end tests of the command-line interface.

Commands run in-process through main(argv), which returns the exit code:
0 success, 1 numerical failure, 2 usage error.
"""

import argparse
import csv
import hashlib
import importlib
import json
import pathlib
import re

import numpy as np
import pytest

from ecreg.cli import build_parser, main
from ecreg.core import FitSettings
from ecreg.data_io import load_csv, load_fit_json


def _synth(tmp_path, seed=3, alpha="2"):
    paths = {
        "train": str(tmp_path / "train.csv"),
        "test": str(tmp_path / "test.csv"),
        "truth": str(tmp_path / "truth.json"),
    }
    rc = main(["synth", "--n", "30", "--alpha", alpha, "--rho0", "0.2",
               "--sigma-w0-sq", "4", "--sigma-n0-sq", "0.25",
               "--seed", str(seed),
               "--out-train", paths["train"], "--out-test", paths["test"],
               "--out-truth", paths["truth"]])
    assert rc == 0
    return paths


def _read_rows(path):
    with open(path, encoding="utf-8") as fh:
        lines = [l for l in fh.read().splitlines() if not l.startswith("#")]
    return list(csv.reader(lines))


class TestSynth:
    def test_writes_train_test_truth(self, tmp_path, capsys):
        paths = _synth(tmp_path)
        out = capsys.readouterr().out
        assert "wrote" in out
        train, _ = load_csv(paths["train"], "y")
        test, _ = load_csv(paths["test"], "y")
        assert train.X.shape == (30, 60)
        assert test.X.shape == (30, 60)
        with open(paths["truth"], encoding="utf-8") as fh:
            truth = json.load(fh)
        assert len(truth["w0"]) == 30
        assert all(truth["w0"][i] != 0.0 for i in truth["support"])
        assert truth["settings"]["seed"] == 3

    def test_truth_skipped_when_empty(self, tmp_path):
        rc = main(["synth", "--n", "10", "--alpha", "1", "--rho0", "0.2",
                   "--sigma-w0-sq", "1", "--sigma-n0-sq", "0.1",
                   "--out-train", str(tmp_path / "tr.csv"),
                   "--out-test", str(tmp_path / "te.csv"),
                   "--out-truth", ""])
        assert rc == 0
        assert not (tmp_path / "truth.json").exists()

    def test_deterministic(self, tmp_path):
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        a = _synth(tmp_path / "a", seed=5)
        b = _synth(tmp_path / "b", seed=5)
        for key in ("train", "test", "truth"):
            with open(a[key], "rb") as fa, open(b[key], "rb") as fb:
                assert fa.read() == fb.read()

    def test_csv_bytes_are_pinned(self, tmp_path):
        # digests of the files as written when every row went through
        # csv.writer; the '# ecreg 0.1.0 synth' line puts the version in them
        paths = {name: str(tmp_path / f"{name}.csv") for name in ("train", "test")}
        rc = main(["synth", "--n", "20", "--alpha", "1.5", "--rho0", "0.2",
                   "--sigma-w0-sq", "4", "--sigma-n0-sq", "0.1", "--seed", "5",
                   "--out-train", paths["train"], "--out-test", paths["test"],
                   "--out-truth", ""])
        assert rc == 0
        digests = {name: hashlib.sha256(pathlib.Path(path).read_bytes()).hexdigest()
                   for name, path in paths.items()}
        assert digests == {
            "train": "acf2a668c1ddc1376f53a49b213c8180a7ccf945674cfbe07914ffc5356258c8",
            "test": "e16b4141004a28461b883440da80ba0e5f0f5a90d5375f43f4ae6937fa749656",
        }

    def test_invalid_config_is_usage_error(self, tmp_path, capsys):
        # the last --alpha wins; a non-finite or oversized alpha*n fails as a
        # usage error before the default test-sample count is derived from it
        bad_alpha = [["--rho0", "0.2", "--alpha", a] for a in ("nan", "inf", "1e308", "1e300")]
        for flags in (["--rho0", "1.5"], ["--rho0", "0.2", "--seed", "-1"], *bad_alpha,
                      ["--rho0", "0.2", "--test-samples", str(2**62)]):
            rc = main(["synth", "--n", "10", "--alpha", "1", *flags,
                       "--sigma-w0-sq", "1", "--sigma-n0-sq", "0.1",
                       "--out-train", str(tmp_path / "t.csv")])
            assert rc == 2, flags
            assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("w0, n0", [("1", "nan"), ("1", "inf"), ("inf", "0.1")])
    def test_non_finite_variance_is_usage_error(self, tmp_path, capsys, w0, n0):
        # nan once passed both sign checks and wrote noise-free data
        rc = main(["synth", "--n", "10", "--alpha", "1", "--rho0", "0.2",
                   "--sigma-w0-sq", w0, "--sigma-n0-sq", n0,
                   "--out-train", str(tmp_path / "t.csv")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "t.csv").exists()


class TestFit:
    def test_writes_fit_json(self, tmp_path, capsys):
        paths = _synth(tmp_path)
        out_path = str(tmp_path / "fit.json")
        rc = main(["fit", "--data", paths["train"], "--family", "bg",
                   "--rho", "0.2", "--sigma-w2", "4", "--beta", "4",
                   "--out", out_path])
        assert rc == 0
        assert "converged=True" in capsys.readouterr().out
        payload = load_fit_json(out_path)
        assert payload["converged"] is True
        assert payload["m"].shape == (30,)
        assert payload["settings"]["beta"] == 4.0
        assert payload["settings"]["eps"] >= 0.0
        assert np.all((payload["inclusion_probs"] >= 0.0)
                      & (payload["inclusion_probs"] <= 1.0))

    def test_unconverged_is_numerical_failure(self, tmp_path, capsys, monkeypatch):
        paths = _synth(tmp_path)
        out_path = str(tmp_path / "fit.json")
        monkeypatch.setattr(FitSettings, "max_outer", 0)
        # from zero: VAMP's point would meet grad_tol without a Newton step
        monkeypatch.setattr("ecreg.core._vamp_start", lambda *args: None)
        rc = main(["fit", "--data", paths["train"], "--family", "bg",
                   "--rho", "0.2", "--sigma-w2", "4", "--beta", "4",
                   "--out", out_path])
        assert rc == 1
        assert "did not converge" in capsys.readouterr().err
        assert load_fit_json(out_path)["converged"] is False

    @pytest.mark.parametrize("alpha", ["2", "0.5"], ids=["tall", "wide"])
    def test_failed_decomposition_is_numerical_failure(self, tmp_path, capsys, monkeypatch,
                                                       alpha):
        paths = _synth(tmp_path, alpha=alpha)

        def failed(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", failed)
        rc = main(["fit", "--data", paths["train"], "--family", "bg",
                   "--rho", "0.2", "--sigma-w2", "4", "--beta", "4",
                   "--out", str(tmp_path / "fit.json")])
        assert rc == 1
        assert "DecompositionFailure: Eigenvalues did not converge" in capsys.readouterr().err
        assert not (tmp_path / "fit.json").exists()

    def test_uniform_family(self, tmp_path):
        paths = _synth(tmp_path)
        rc = main(["fit", "--data", paths["train"], "--family", "bu",
                   "--rho", "0.2", "--beta", "4",
                   "--out", str(tmp_path / "fit.json")])
        assert rc == 0

    def test_gauss_family_requires_sigma(self, tmp_path, capsys):
        paths = _synth(tmp_path)
        rc = main(["fit", "--data", paths["train"], "--family", "bg",
                   "--rho", "0.2", "--beta", "4"])
        assert rc == 2
        assert "--sigma-w2" in capsys.readouterr().err

    def test_uniform_family_rejects_sigma(self, tmp_path):
        paths = _synth(tmp_path)
        rc = main(["fit", "--data", paths["train"], "--family", "bu",
                   "--rho", "0.2", "--sigma-w2", "4", "--beta", "4"])
        assert rc == 2

    def test_missing_data_file(self, tmp_path):
        rc = main(["fit", "--data", str(tmp_path / "absent.csv"),
                   "--rho", "0.2", "--sigma-w2", "4", "--beta", "4"])
        assert rc == 2

    def test_non_finite_cell_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "nan.csv"
        path.write_text("a,b,y\n1,2,3\n4,5,nan\n7,8,9\n", encoding="utf-8")
        rc = main(["fit", "--data", str(path), "--rho", "0.2",
                   "--sigma-w2", "4", "--beta", "4",
                   "--out", str(tmp_path / "fit.json")])
        assert rc == 2
        assert "(row 3, column 3)" in capsys.readouterr().err

    def test_missing_target_column(self, tmp_path):
        paths = _synth(tmp_path)
        rc = main(["fit", "--data", paths["train"], "--target", "zzz",
                   "--rho", "0.2", "--sigma-w2", "4", "--beta", "4"])
        assert rc == 2

    def test_centering_flag(self, tmp_path):
        paths = _synth(tmp_path)
        for flag, center in ((["--center"], True), ([], False)):
            out = str(tmp_path / f"fit_{center}.json")
            rc = main(["fit", "--data", paths["train"], *flag,
                       "--rho", "0.2", "--sigma-w2", "4", "--beta", "4", "--out", out])
            assert rc == 0
            with open(out, encoding="utf-8") as fh:
                assert json.load(fh)["settings"]["center"] is center

    def test_centered_fit_predicts_from_the_file(self, tmp_path):
        # (x - feature_means).m + y_mean on the raw training CSV reproduces eps
        paths = _synth(tmp_path)
        out = str(tmp_path / "fit.json")
        rc = main(["fit", "--data", paths["train"], "--center", "--rho", "0.2",
                   "--sigma-w2", "4", "--beta", "4", "--out", out])
        assert rc == 0
        payload = load_fit_json(out)
        settings = payload["settings"]
        raw, _ = load_csv(paths["train"], "y")
        x_bar = np.asarray(settings["feature_means"])
        assert x_bar.shape == (raw.n_features,) and np.any(x_bar != 0.0)
        predicted = (raw.X - x_bar[:, None]).T @ payload["m"] + settings["y_mean"]
        eps = float(np.mean((raw.y - predicted) ** 2)) / 2.0
        np.testing.assert_allclose(eps, settings["eps"], rtol=1e-12)


class TestLoocv:
    def test_approx_report(self, tmp_path, capsys):
        paths = _synth(tmp_path)
        out_path = str(tmp_path / "loo.csv")
        rc = main(["loocv", "--data", paths["train"], "--rho", "0.2",
                   "--sigma-w2", "4", "--beta", "4", "--out", out_path])
        assert rc == 0
        assert "approx: eps_loo=" in capsys.readouterr().out
        rows = _read_rows(out_path)
        assert rows[0] == ["mu", "residual_full", "leverage", "residual_loo",
                           "flagged"]
        assert len(rows) == 61

    def test_literal_comparison(self, tmp_path, capsys):
        paths = _synth(tmp_path)
        out_path = str(tmp_path / "loo.csv")
        rc = main(["loocv", "--data", paths["train"], "--rho", "0.2",
                   "--sigma-w2", "4", "--beta", "4", "--literal",
                   "--out", out_path])
        assert rc == 0
        out = capsys.readouterr().out
        match = re.search(r"relative_gap=(\S+)", out)
        assert match is not None
        assert float(match.group(1)) < 0.05
        rows = _read_rows(out_path)
        assert rows[0][-1] == "residual_loo_literal"
        assert all(row[-1] for row in rows[1:])

    def test_kfold_line(self, tmp_path, capsys):
        paths = _synth(tmp_path)
        rc = main(["loocv", "--data", paths["train"], "--rho", "0.2",
                   "--sigma-w2", "4", "--beta", "4", "--kfold", "5",
                   "--out", str(tmp_path / "loo.csv")])
        assert rc == 0
        assert "kfold(5): eps=" in capsys.readouterr().out

    def test_kfold_bounds_are_usage_error(self, tmp_path):
        paths = _synth(tmp_path)
        for flags in (["--kfold", "1"], ["--kfold", "3", "--seed", "-1"]):
            rc = main(["loocv", "--data", paths["train"], "--rho", "0.2",
                       "--sigma-w2", "4", "--beta", "4", *flags,
                       "--out", str(tmp_path / "loo.csv")])
            assert rc == 2, flags


    def test_bad_kfold_fails_before_any_fit(self, tmp_path, capsys, monkeypatch):
        def refused(*args, **kwargs):
            raise AssertionError("fit called before --kfold was checked")

        monkeypatch.setattr("ecreg.cli.fit", refused)
        monkeypatch.setattr("ecreg.loocv.fit", refused)
        paths = _synth(tmp_path)
        capsys.readouterr()
        for data, flags, message in (
                (paths["train"], ["--kfold", "1"],
                 "k must be an integer with 2 <= k <= M, got 1"),
                # the lower bound and the seed are checked before the data is read
                (str(tmp_path / "absent.csv"), ["--kfold", "3", "--seed", "-1"],
                 "seed must be a non-negative integer, got -1"),
                (paths["train"], ["--kfold", "61"],
                 "k must be an integer with 2 <= k <= 60, got 61")):
            rc = main(["loocv", "--data", data, "--rho", "0.2", "--sigma-w2", "4",
                       "--beta", "4", "--literal", *flags,
                       "--out", str(tmp_path / "loo.csv")])
            assert rc == 2, flags
            captured = capsys.readouterr()
            assert captured.out == ""
            assert message in captured.err


class TestSweep:
    def test_grid_table(self, tmp_path, capsys):
        paths = _synth(tmp_path)
        out_path = str(tmp_path / "sweep.csv")
        rc = main(["sweep", "--data", paths["train"], "--family", "bg",
                   "--beta-grid", "2,6", "--rho-grid", "0.3,1.0",
                   "--sigma-w2-grid", "3", "--out", out_path])
        assert rc == 0
        out = capsys.readouterr().out
        assert "best: beta=" in out
        rows = _read_rows(out_path)
        assert rows[0] == ["beta", "rho", "sigma_w2", "eps", "eps_loo",
                           "free_energy", "converged"]
        assert len(rows) == 5
        assert all(row[6] == "true" for row in rows[1:])

    def test_gauss_family_requires_sigma_grid(self, tmp_path):
        paths = _synth(tmp_path)
        rc = main(["sweep", "--data", paths["train"], "--family", "bg",
                   "--beta-grid", "2", "--rho-grid", "0.3"])
        assert rc == 2

    def test_uniform_family_rejects_sigma_grid(self, tmp_path):
        paths = _synth(tmp_path)
        rc = main(["sweep", "--data", paths["train"], "--family", "bu",
                   "--beta-grid", "2", "--rho-grid", "0.3",
                   "--sigma-w2-grid", "3"])
        assert rc == 2

    def test_malformed_grid_is_usage_error(self, tmp_path, capsys):
        paths = _synth(tmp_path)
        rc = main(["sweep", "--data", paths["train"],
                   "--beta-grid", "1,x", "--rho-grid", "0.3",
                   "--sigma-w2-grid", "3"])
        assert rc == 2


    def test_calibrate_then_sweep_decompose_each_dataset_once(self, tmp_path, monkeypatch):
        # the benchmark's CLI pair on two datasets: every fit runs VAMP first,
        # so each dataset's spectrum is its eigendecomposition's, with no
        # eigenvalue-only solve
        calls = {"eigh": 0, "eigvalsh": 0}

        def counted(name, real):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            return wrapper

        cal, swp = tmp_path / "cal", tmp_path / "swp"
        cal.mkdir()
        swp.mkdir()
        cal_paths, swp_paths = _synth(cal), _synth(swp, seed=4)
        for name in calls:
            monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
        assert main(["calibrate", "--data", cal_paths["train"], "--family", "bg",
                     "--sigma-w2", "4", "--k-target", "8", "--beta-grid", "4,8",
                     "--out", str(cal / "cal.csv")]) == 0
        assert main(["sweep", "--data", swp_paths["train"], "--family", "bu",
                     "--beta-grid", "1,4", "--rho-grid", "0.1,0.2",
                     "--out", str(swp / "sweep.csv")]) == 0
        assert calls == {"eigh": 2, "eigvalsh": 0}


class TestCalibrate:
    def test_selects_minimum_loo_beta(self, tmp_path, capsys):
        paths = _synth(tmp_path)
        out_path = str(tmp_path / "cal.csv")
        rc = main(["calibrate", "--data", paths["train"], "--family", "bg",
                   "--sigma-w2", "4", "--k-target", "8",
                   "--beta-grid", "4,8", "--out", out_path])
        assert rc == 0
        assert "selected: beta=" in capsys.readouterr().out
        rows = _read_rows(out_path)
        assert rows[0] == ["K", "beta", "rho", "achieved_K", "eps",
                           "eps_loo", "selected"]
        assert len(rows) == 3
        selected = [row for row in rows[1:] if row[6] == "true"]
        assert len(selected) == 1
        eps_loo = {row[1]: float(row[5]) for row in rows[1:]}
        assert float(selected[0][5]) == min(eps_loo.values())
        for row in rows[1:]:
            assert abs(float(row[3]) - 8.0) <= 1e-6 * 8.0

    def test_unreachable_target_fails(self, tmp_path, capsys):
        paths = _synth(tmp_path)
        rc = main(["calibrate", "--data", paths["train"], "--family", "bg",
                   "--sigma-w2", "4", "--k-target", "0.000001",
                   "--beta-grid", "4", "--out", str(tmp_path / "cal.csv")])
        assert rc == 1
        assert "failed" in capsys.readouterr().err

    def test_partial_failure_keeps_table(self, tmp_path, capsys):
        paths = _synth(tmp_path)
        out_path = str(tmp_path / "cal.csv")
        rc = main(["calibrate", "--data", paths["train"], "--family", "bg",
                   "--sigma-w2", "4", "--k-target", "0.000001,8",
                   "--beta-grid", "4", "--out", out_path])
        assert rc == 0
        err = capsys.readouterr().err
        assert "no successful grid point" in err
        rows = _read_rows(out_path)
        assert len(rows) == 3
        failed = [row for row in rows[1:] if row[2] == ""]
        assert len(failed) == 1
        assert failed[0][6] == "false"

    @pytest.mark.parametrize("flags", [
        ["--k-target", "8", "--sigma-w2", "4", "--beta-grid=-1,4"],
        ["--k-target", "8", "--sigma-w2", "-4", "--beta-grid", "4"],
        ["--k-target", "0", "--sigma-w2", "4", "--beta-grid", "4"],
        ["--k-target", "nan", "--sigma-w2", "4", "--beta-grid", "4"],
        ["--k-target", "8,30", "--sigma-w2", "4", "--beta-grid", "4"],
    ])
    def test_bad_input_is_usage_error(self, tmp_path, capsys, flags):
        # the same exit code as sweep's, and no table of failed rows; the
        # training set has N = 30 features, so K must lie in (0, 30)
        paths = _synth(tmp_path)
        out_path = tmp_path / "cal.csv"
        rc = main(["calibrate", "--data", paths["train"], "--family", "bg",
                   *flags, "--out", str(out_path)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out_path.exists()


@pytest.mark.parametrize("command, flags", [
    ("loocv", ["--rho", "0.2", "--sigma-w2", "4", "--beta", "4", "--literal"]),
    ("sweep", ["--beta-grid", "4", "--rho-grid", "0.2", "--sigma-w2-grid", "4"]),
    ("calibrate", ["--k-target", "8", "--sigma-w2", "4", "--beta-grid", "4"]),
])
def test_data_path_with_a_line_break_fails_before_loading(tmp_path, capsys, monkeypatch,
                                                           command, flags):
    # the path is echoed into the output's '# data:' comment, which cannot
    # hold a line break: the command refuses it before it reads the data
    paths = _synth(tmp_path)
    path = tmp_path / "tr\nain.csv"
    path.write_bytes(pathlib.Path(paths["train"]).read_bytes())

    def refused(*args, **kwargs):
        raise AssertionError("data loaded before its path was checked")

    monkeypatch.setattr("ecreg.cli.load_csv", refused)
    capsys.readouterr()
    out_path = tmp_path / "out.csv"
    rc = main([command, "--data", str(path), *flags, "--out", str(out_path)])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "holds a line break" in captured.err
    assert not out_path.exists()


class TestReadme:
    def test_sh_blocks_name_exactly_the_subcommands(self):
        readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
        blocks = re.findall(r"```sh\n(.*?)```", readme.read_text(encoding="utf-8"), re.S)
        named = {match.group(1) for block in blocks
                 for match in re.finditer(r"^ecreg (\w+)", block, re.M)}
        sub = next(action for action in build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction))
        assert named == set(sub.choices)

    def test_low_level_names_import_from_their_modules(self):
        readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
        paragraph = re.search(r"^Low-level pieces .*?\n\n",
                              readme.read_text(encoding="utf-8"), re.S | re.M).group(0)
        listed = re.findall(r"((?:`\w+`(?:,|\s+and)?\s+)+)from `(ecreg\.\w+)`", paragraph)
        assert {module for _, module in listed} == {"ecreg.core", "ecreg.priors",
                                                    "ecreg.loocv"}
        for names, module in listed:
            for name in re.findall(r"`(\w+)`", names):
                assert hasattr(importlib.import_module(module), name), (module, name)


class TestUsage:
    def test_unknown_flag(self):
        assert main(["fit", "--frobnicate"]) == 2

    def test_missing_required_flag(self, tmp_path):
        assert main(["fit", "--data", str(tmp_path / "x.csv")]) == 2

    def test_no_command(self):
        assert main([]) == 2

    def test_validate_is_not_a_command(self):
        assert main(["validate"]) == 2

    @pytest.mark.parametrize("command", ["fit", "loocv"])
    @pytest.mark.parametrize("flag,value", [("--sigma-w2", "nan"), ("--sigma-w2", "inf"),
                                            ("--beta", "-1"), ("--beta", "nan"),
                                            ("--beta", "inf"), ("--beta", "abc")])
    def test_bad_hyper_parameter_is_usage_error(self, tmp_path, capsys, command, flag,
                                                value):
        paths = _synth(tmp_path)
        flags = {"--sigma-w2": "4", "--beta": "4", flag: value}
        rc = main([command, "--data", paths["train"], "--family", "bg", "--rho", "0.2",
                   *(token for item in flags.items() for token in item),
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command, flags, message", [
        pytest.param("sweep", ["--beta-grid", ",", "--rho-grid", "0.3"], "empty list: ','",
                     id="sweep-empty-list"),
        pytest.param("calibrate", ["--beta-grid", ",", "--k-target", "4", "--sigma-w2", "4"],
                     "empty list: ','", id="calibrate-empty-list"),
        *(pytest.param(command, ["--sigma-w2", "4", "--beta", "4"],
                       "error: --rho is required for this command", id=f"{command}-no-rho")
          for command in ("fit", "loocv")),
    ])
    def test_usage_error_names_its_cause(self, tmp_path, capsys, command, flags, message):
        paths = _synth(tmp_path)
        rc = main([command, "--data", paths["train"], *flags, "--out", str(tmp_path / "out")])
        assert rc == 2
        assert message in capsys.readouterr().err

    def test_version_exits_cleanly(self, capsys):
        assert main(["--version"]) == 0
        assert "ecreg" in capsys.readouterr().out
