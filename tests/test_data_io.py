"""Tests for data generation, CSV ingestion, summaries, serialization."""

import csv
import json

import numpy as np
import pytest

import ecreg.loocv
from ecreg.core import Dataset, fit
from ecreg.data_io import (
    SynthConfig,
    error_summary,
    gen_synthetic,
    load_csv,
    load_fit_json,
    save_dataset_csv,
    save_fit_json,
    save_loo_csv,
    save_sweep_csv,
)
from ecreg.errors import (
    ConfigError,
    DimensionMismatch,
    IoError,
    MissingTarget,
    NonNumericCell,
    ParseError,
)
from ecreg.hyper import SweepGrid, sweep
from ecreg.loocv import approx_looe, literal_loocv
from ecreg.priors import BERNOULLI_GAUSS, bernoulli_gauss


class TestSynthConfig:
    def test_sample_count_rounds(self):
        cfg = SynthConfig(N=100, alpha=0.5, rho0=0.1, sigma_w0_sq=1.0,
                          sigma_n0_sq=0.1, seed=0)
        assert cfg.M == 50
        assert SynthConfig(N=3, alpha=0.5, rho0=0.1, sigma_w0_sq=1.0,
                           sigma_n0_sq=0.1, seed=0).M == 2

    def test_invalid_values_rejected(self):
        good = dict(N=10, alpha=1.0, rho0=0.5, sigma_w0_sq=1.0,
                    sigma_n0_sq=0.1, seed=0)
        for bad in (dict(N=0), dict(alpha=0.0), dict(alpha=-1.0),
                    dict(N=1, alpha=0.3), dict(rho0=-0.1), dict(rho0=1.5),
                    dict(sigma_w0_sq=0.0), dict(sigma_n0_sq=-0.5),
                    dict(test_samples=-1), dict(seed=-1),
                    # non-finite variances and non-integer sizes
                    dict(sigma_w0_sq=np.inf), dict(sigma_w0_sq=np.nan),
                    dict(sigma_n0_sq=np.inf), dict(sigma_n0_sq=np.nan),
                    dict(N=10.5), dict(N=10.0), dict(test_samples=2.5),
                    dict(test_samples=np.nan),
                    # a sample count alpha*N that is not finite
                    dict(alpha=np.nan), dict(alpha=np.inf), dict(alpha=1e308),
                    # finite sizes whose N x M or N x test_samples array numpy
                    # cannot index
                    dict(alpha=1e300), dict(test_samples=2**62)):
            with pytest.raises(ConfigError):
                SynthConfig(**{**good, **bad})


class TestGenSynthetic:
    def test_deterministic(self):
        cfg = SynthConfig(N=40, alpha=1.5, rho0=0.2, sigma_w0_sq=4.0,
                          sigma_n0_sq=0.1, seed=11, test_samples=7)
        a_train, a_truth, a_test = gen_synthetic(cfg)
        b_train, b_truth, b_test = gen_synthetic(cfg)
        np.testing.assert_array_equal(a_train.X, b_train.X)
        np.testing.assert_array_equal(a_train.y, b_train.y)
        np.testing.assert_array_equal(a_truth.w0, b_truth.w0)
        np.testing.assert_array_equal(a_truth.support, b_truth.support)
        np.testing.assert_array_equal(a_test.X, b_test.X)
        np.testing.assert_array_equal(a_test.y, b_test.y)

    def test_seed_changes_data(self):
        base = dict(N=30, alpha=1.0, rho0=0.3, sigma_w0_sq=1.0,
                    sigma_n0_sq=0.1)
        a, _, _ = gen_synthetic(SynthConfig(seed=1, **base))
        b, _, _ = gen_synthetic(SynthConfig(seed=2, **base))
        assert not np.array_equal(a.X, b.X)
        assert not np.array_equal(a.y, b.y)

    def test_shapes(self):
        cfg = SynthConfig(N=25, alpha=2.0, rho0=0.2, sigma_w0_sq=1.0,
                          sigma_n0_sq=0.1, seed=3, test_samples=9)
        train, truth, test = gen_synthetic(cfg)
        assert train.X.shape == (25, 50)
        assert train.y.shape == (50,)
        assert truth.w0.shape == (25,)
        assert test.X.shape == (25, 9)
        assert test.y.shape == (9,)

    def test_no_heldout_by_default(self):
        cfg = SynthConfig(N=10, alpha=1.0, rho0=0.2, sigma_w0_sq=1.0,
                          sigma_n0_sq=0.1, seed=4)
        _, _, heldout = gen_synthetic(cfg)
        assert heldout is None

    def test_empty_support_noiseless(self):
        cfg = SynthConfig(N=20, alpha=1.0, rho0=0.0, sigma_w0_sq=1.0,
                          sigma_n0_sq=0.0, seed=5, test_samples=4)
        train, truth, test = gen_synthetic(cfg)
        np.testing.assert_array_equal(truth.w0, np.zeros(20))
        assert truth.support.size == 0
        np.testing.assert_array_equal(train.y, np.zeros(20))
        np.testing.assert_array_equal(test.y, np.zeros(4))

    def test_heldout_follows_same_truth(self):
        cfg = SynthConfig(N=15, alpha=1.0, rho0=0.4, sigma_w0_sq=2.0,
                          sigma_n0_sq=0.0, seed=6, test_samples=12)
        train, truth, test = gen_synthetic(cfg)
        np.testing.assert_array_equal(train.y, train.X.T @ truth.w0)
        np.testing.assert_array_equal(test.y, test.X.T @ truth.w0)

    def test_population_statistics(self):
        # support fraction ~ rho0 and unit expected sample norm, averaged
        # over thirty independent seeds
        fractions, norms = [], []
        for seed in range(30):
            cfg = SynthConfig(N=1000, alpha=0.5, rho0=0.1, sigma_w0_sq=4.0,
                              sigma_n0_sq=0.1, seed=seed)
            train, truth, _ = gen_synthetic(cfg)
            fractions.append(truth.support.size / 1000.0)
            norms.append(float(np.mean(np.sum(train.X**2, axis=0))))
        assert abs(np.mean(fractions) - 0.1) < 0.03
        assert abs(np.mean(norms) - 1.0) < 0.05


class TestLoadCsv:
    def _write(self, path, text):
        path.write_text(text, encoding="utf-8")
        return str(path)

    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(7)
        ds = Dataset(rng.normal(size=(5, 11)), rng.normal(size=11))
        out = tmp_path / "data.csv"
        save_dataset_csv(out, ds, header_lines=["generator settings here"])
        loaded, record = load_csv(out, "y")
        np.testing.assert_array_equal(loaded.X, ds.X)
        np.testing.assert_array_equal(loaded.y, ds.y)
        assert record.feature_names == tuple(f"x{i+1:04d}" for i in range(5))
        assert record.target_name == "y"
        assert not record.centered
        np.testing.assert_array_equal(record.feature_means, np.zeros(5))

    def test_transpose_and_target_column(self, tmp_path):
        path = self._write(tmp_path / "t.csv",
                           "a,resp,b\n1,10,4\n2,20,5\n3,30,6\n")
        ds, record = load_csv(path, "resp")
        assert ds.X.shape == (2, 3)
        np.testing.assert_array_equal(ds.X[0], [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(ds.X[1], [4.0, 5.0, 6.0])
        np.testing.assert_array_equal(ds.y, [10.0, 20.0, 30.0])
        assert record.feature_names == ("a", "b")

    def test_centering(self, tmp_path):
        path = self._write(tmp_path / "c.csv", "a,y\n1,5\n3,7\n")
        ds, record = load_csv(path, "a", center=True)
        # here 'a' is the target; the feature column is y = {5, 7}
        np.testing.assert_array_equal(ds.X[0], [-1.0, 1.0])
        np.testing.assert_array_equal(ds.y, [-1.0, 1.0])
        np.testing.assert_array_equal(record.feature_means, [6.0])
        assert record.y_mean == 2.0
        assert record.centered

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = self._write(tmp_path / "s.csv",
                           "# made by hand\n\na,y\n# midway note\n1,2\n")
        ds, _ = load_csv(path, "y")
        assert ds.n_samples == 1
        np.testing.assert_array_equal(ds.X, [[1.0]])

    def test_missing_target(self, tmp_path):
        path = self._write(tmp_path / "m.csv", "a,b\n1,2\n")
        with pytest.raises(MissingTarget):
            load_csv(path, "y")

    def test_repeated_target_name_is_parse_error(self, tmp_path):
        # "y,x,y" once took the first y as the target and kept the second as
        # a feature named y
        path = self._write(tmp_path / "d.csv", "# note\ny,x,y\n1,2,3\n")
        with pytest.raises(ParseError, match="repeats") as info:
            load_csv(path, "y")
        assert info.value.row == 2

    def test_ragged_row_reports_line(self, tmp_path):
        path = self._write(tmp_path / "r.csv", "a,b,y\n1,2,3\n4,5\n")
        with pytest.raises(ParseError) as info:
            load_csv(path, "y")
        assert info.value.row == 3

    def test_non_numeric_cell_reports_location(self, tmp_path):
        for cell in ("oops", "nan", "inf", "-inf"):
            path = self._write(tmp_path / "n.csv", f"a,b,y\n1,2,3\n4,{cell},6\n")
            with pytest.raises(NonNumericCell) as info:
                load_csv(path, "y")
            assert info.value.row == 3
            assert info.value.column == 2

    def test_empty_cell_reports_location(self, tmp_path):
        path = self._write(tmp_path / "e.csv", "a,b,y\n1,,3\n")
        with pytest.raises(NonNumericCell) as info:
            load_csv(path, "y")
        assert info.value.row == 2
        assert info.value.column == 2

    def test_underscore_cell_reads_as_float_does(self, tmp_path):
        # float() accepts digit separators, so a whole-body parse that
        # rejects them must not change the result
        path = self._write(tmp_path / "u.csv", "a,y\n1_0,2\n3,4\n")
        ds, _ = load_csv(path, "y")
        np.testing.assert_array_equal(ds.X, [[10.0, 3.0]])
        np.testing.assert_array_equal(ds.y, [2.0, 4.0])

    def test_hash_inside_a_cell_is_not_a_comment(self, tmp_path):
        path = self._write(tmp_path / "h.csv", "a,b,y\n1,2,3\n4,1#2,6\n")
        with pytest.raises(NonNumericCell, match="1#2") as info:
            load_csv(path, "y")
        assert info.value.row == 3
        assert info.value.column == 2

    def test_quoted_cells_parse_as_csv(self, tmp_path):
        path = self._write(tmp_path / "q.csv", 'a,"y"\n"1.5",2\n# note\n3,"4"\n')
        ds, _ = load_csv(path, "y")
        np.testing.assert_array_equal(ds.X, [[1.5, 3.0]])
        np.testing.assert_array_equal(ds.y, [2.0, 4.0])

    def test_quoted_first_cell_starting_with_hash_is_a_comment(self, tmp_path):
        # the line's quote sends the whole file to csv.reader, which reads
        # '"#c"' as the cell #c: a comment whether or not the body is quoted
        for body in ("1,2\n", '1,"2"\n'):
            path = self._write(tmp_path / "c.csv", '"#c",z\na,y\n' + body)
            ds, record = load_csv(path, "y")
            assert record.feature_names == ("a",)
            np.testing.assert_array_equal(ds.X, [[1.0]])
            np.testing.assert_array_equal(ds.y, [2.0])

    @pytest.mark.parametrize("text", ['a,y\n1,2\n# see ,"x\n3,4\n',
                                      '# note,"unclosed\na,y\n1,2\n3,4\n'],
                             ids=["after-header", "before-header"])
    def test_comment_with_an_open_quote_ends_at_its_line(self, tmp_path, text):
        # a '#' line is a comment whatever it holds; one whose quote never
        # closed once swallowed the lines after it
        ds, record = load_csv(self._write(tmp_path / "o.csv", text), "y")
        assert record.feature_names == ("a",)
        np.testing.assert_array_equal(ds.X, [[1.0, 3.0]])
        np.testing.assert_array_equal(ds.y, [2.0, 4.0])

    def test_saved_comment_with_an_open_quote_reads_back(self, tmp_path):
        ds = Dataset(np.array([[1.0, 3.0, 5.0]]), np.array([2.0, 4.0, 6.0]))
        path = tmp_path / "d.csv"
        save_dataset_csv(path, ds, header_lines=['source: lab,"2016'])
        loaded, _ = load_csv(path, "y")
        np.testing.assert_array_equal(loaded.X, ds.X)
        np.testing.assert_array_equal(loaded.y, ds.y)

    def test_empty_and_header_only_rejected(self, tmp_path):
        empty = self._write(tmp_path / "empty.csv", "")
        with pytest.raises(ParseError):
            load_csv(empty, "y")
        header_only = self._write(tmp_path / "h.csv", "a,y\n")
        with pytest.raises(ParseError):
            load_csv(header_only, "y")

    def test_missing_file(self, tmp_path):
        with pytest.raises(IoError):
            load_csv(tmp_path / "absent.csv", "y")

    def test_name_count_checked_on_save(self, tmp_path):
        ds = Dataset(np.ones((3, 2)), np.ones(2))
        with pytest.raises(DimensionMismatch):
            save_dataset_csv(tmp_path / "x.csv", ds, feature_names=["a", "b"])

    @pytest.mark.parametrize("names", [["y", "x2"], ["x1", " y"]], ids=["same", "padded"])
    def test_feature_named_as_the_target_rejected_on_save(self, tmp_path, names):
        # the header "y,x2,y" would make load_csv raise for the repeated y
        ds = Dataset(np.ones((2, 3)), np.ones(3))
        path = tmp_path / "x.csv"
        with pytest.raises(ConfigError, match="'y'"):
            save_dataset_csv(path, ds, feature_names=names)
        assert not path.exists()

    @pytest.mark.parametrize("kwargs", [
        {"header_lines": ["run 1\nbatch A"]},
        {"header_lines": ["run 1\rbatch A"]},
        {"feature_names": ["#a", "b"]},
        {"feature_names": [" #a", "b"]},
        {"feature_names": ["a\nb", "c"]},
        {"feature_names": ["\ufeffa", "b"]},
    ], ids=["lf-comment", "cr-comment", "hash-name", "padded-hash-name", "lf-name", "bom-name"])
    def test_text_that_would_read_back_wrong_rejected_on_save(self, tmp_path, kwargs):
        # each once wrote a file whose header load_csv misread: a comment's
        # second line as the header, the header as a comment, or the first
        # name without the byte-order mark that load_csv drops
        ds = Dataset(np.ones((2, 3)), np.ones(3))
        path = tmp_path / "x.csv"
        with pytest.raises(ConfigError):
            save_dataset_csv(path, ds, **kwargs)
        assert not path.exists()

    def test_byte_order_mark_is_not_part_of_the_header(self, tmp_path):
        # spreadsheet "CSV UTF-8" exports start with a byte-order mark
        path = tmp_path / "bom.csv"
        path.write_text("\ufeffy,x1,x2\n1,2,3\n4,5,6\n", encoding="utf-8")
        ds, record = load_csv(path, "y")
        assert record.feature_names == ("x1", "x2")
        np.testing.assert_array_equal(ds.y, [1.0, 4.0])
        np.testing.assert_array_equal(ds.X, [[2.0, 5.0], [3.0, 6.0]])

    def test_byte_order_mark_before_a_comment_keeps_it_a_comment(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_text("\ufeff# c\ny,x1\n1,2\n", encoding="utf-8")
        ds, record = load_csv(path, "y")
        assert record.feature_names == ("x1",)
        np.testing.assert_array_equal(ds.y, [1.0])


class TestErrorSummary:
    def test_exact_recovery(self):
        cfg = SynthConfig(N=12, alpha=2.0, rho0=0.5, sigma_w0_sq=1.0,
                          sigma_n0_sq=0.0, seed=8, test_samples=6)
        train, truth, test = gen_synthetic(cfg)
        summary = error_summary(truth.w0, train, test)
        assert summary.eps == 0.0
        assert summary.eps_g == 0.0

    def test_known_value(self):
        X = np.array([[1.0, 0.0], [0.0, 1.0]])
        y = np.array([2.0, -1.0])
        summary = error_summary(np.zeros(2), Dataset(X, y))
        np.testing.assert_allclose(summary.eps, (4.0 + 1.0) / 4.0)
        assert summary.eps_g is None

    def test_shape_checked(self):
        ds = Dataset(np.ones((3, 4)), np.ones(4))
        with pytest.raises(DimensionMismatch):
            error_summary(np.ones(2), ds)
        other = Dataset(np.ones((5, 4)), np.ones(4))
        with pytest.raises(DimensionMismatch):
            error_summary(np.ones(3), ds, other)


class TestFitJson:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(9)
        ds = Dataset(rng.normal(0.0, 0.4, (8, 14)), rng.normal(size=14))
        result = fit(ds, bernoulli_gauss(0.4, 3.0), 5.0)
        path = tmp_path / "fit.json"
        save_fit_json(path, result, extra={"data": "demo.csv"})
        payload = load_fit_json(path)
        np.testing.assert_array_equal(payload["m"], result.state.m)
        np.testing.assert_array_equal(payload["h"], result.state.h)
        np.testing.assert_array_equal(payload["variance"], result.state.variance)
        np.testing.assert_array_equal(payload["inclusion_probs"],
                                      result.inclusion_probs)
        assert payload["E"] == result.state.E
        assert payload["free_energy"] == result.state.free_energy
        assert payload["converged"] is True
        assert payload["iterations"] == result.state.iterations
        assert payload["settings"]["data"] == "demo.csv"

    def test_write_error(self, tmp_path):
        ds = Dataset(np.ones((2, 3)) * 0.2, np.zeros(3))
        result = fit(ds, bernoulli_gauss(0.5, 1.0), 2.0)
        with pytest.raises(IoError):
            save_fit_json(tmp_path / "no_such_dir" / "fit.json", result)

    def test_read_error(self, tmp_path):
        with pytest.raises(IoError):
            load_fit_json(tmp_path / "absent.json")

    def test_text_that_is_not_json_is_a_parse_error(self, tmp_path):
        path = tmp_path / "fit.json"
        path.write_text("not json", encoding="utf-8")
        with pytest.raises(ParseError, match="is not JSON"):
            load_fit_json(path)

    @pytest.mark.parametrize("text,key", [
        ('{"m": [1]}', "'h'"),
        # a file written before the variances replaced the second moments
        ('{"m": [1], "h": [0], "Mi": [1], "inclusion_probs": [1]}', "'variance'"),
        ("[1, 2]", "'m'"),
    ], ids=["no-h", "Mi-not-variance", "not-an-object"])
    def test_missing_key_is_a_parse_error_naming_it(self, tmp_path, text, key):
        path = tmp_path / "fit.json"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ParseError, match=f"has no {key} key"):
            load_fit_json(path)

    @pytest.mark.parametrize("vector", ['["a"]', "[[1], [1, 2]]", "[[1], [2]]",
                                        '[{"x": 1}]', "null", "1.5", "[true]"],
                             ids=["string", "ragged", "nested", "object", "null",
                                  "scalar", "boolean"])
    def test_vector_not_a_flat_list_of_numbers_is_a_parse_error(self, tmp_path, vector):
        path = tmp_path / "fit.json"
        path.write_text(f'{{"m": [1], "h": [0], "variance": {vector}, '
                        '"inclusion_probs": [1]}', encoding="utf-8")
        with pytest.raises(ParseError, match="'variance' is not a flat list of numbers"):
            load_fit_json(path)

    @pytest.mark.parametrize("key", ["m", "h", "variance", "inclusion_probs"])
    @pytest.mark.parametrize("value", ["NaN", "-Infinity"])
    def test_non_finite_vector_entry_is_a_parse_error_naming_it(self, tmp_path, key, value):
        # json.load accepts these tokens; no saved fit holds them
        vectors = {"m": "[1]", "h": "[0]", "variance": "[1]", "inclusion_probs": "[1]"}
        vectors[key] = f"[0.5, {value}]"
        path = tmp_path / "fit.json"
        text = ", ".join(f'"{k}": {v}' for k, v in vectors.items())
        path.write_text("{" + text + "}", encoding="utf-8")
        with pytest.raises(ParseError, match=f"'{key}' has a non-finite entry"):
            load_fit_json(path)

    @pytest.mark.parametrize("key", ["E", "free_energy"])
    @pytest.mark.parametrize("value", ['"oops"', "NaN", "Infinity", "true", "null", "[1.0]"],
                             ids=["string", "nan", "infinity", "boolean", "null", "list"])
    def test_scalar_not_a_finite_number_is_a_parse_error_naming_it(self, tmp_path, key,
                                                                   value):
        scalars = {"E": "1.5", "free_energy": "-3.0"}
        scalars[key] = value
        path = tmp_path / "fit.json"
        text = ", ".join(f'"{k}": {v}' for k, v in scalars.items())
        path.write_text('{"m": [1], "h": [0], "variance": [1], "inclusion_probs": [1], '
                        + text + "}", encoding="utf-8")
        with pytest.raises(ParseError, match=f"'{key}' is not a finite number"):
            load_fit_json(path)

    def test_missing_scalar_is_a_parse_error_naming_it(self, tmp_path):
        path = tmp_path / "fit.json"
        path.write_text('{"m": [1], "h": [0], "variance": [1], "inclusion_probs": [1], '
                        '"E": 2}', encoding="utf-8")
        with pytest.raises(ParseError, match="has no 'free_energy' key"):
            load_fit_json(path)
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["free_energy"] = -1
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert load_fit_json(path)["E"] == 2


class TestTableCsv:
    def test_sweep_schema(self, tmp_path):
        rng = np.random.default_rng(10)
        ds = Dataset(rng.normal(0.0, 0.4, (6, 12)), rng.normal(size=12))
        grid = SweepGrid(beta_values=[2.0, 4.0], rho_values=[0.5],
                         sigma_w2_values=[3.0])
        result = sweep(ds, BERNOULLI_GAUSS, grid)
        path = tmp_path / "sweep.csv"
        save_sweep_csv(path, result.points, header_lines=["settings"])
        with open(path, encoding="utf-8") as fh:
            lines = [l for l in fh.read().splitlines() if not l.startswith("#")]
        rows = list(csv.reader(lines))
        assert rows[0] == ["beta", "rho", "sigma_w2", "eps", "eps_loo",
                           "free_energy", "converged"]
        assert len(rows) == 3
        assert rows[1][0] == "2.0"
        assert rows[1][6] == "true"
        # numeric cells use shortest round-trip floats
        assert float(rows[1][4]) == result.points[0].eps_loo

    def test_sweep_empty_sigma_cell(self, tmp_path):
        from ecreg.hyper import SweepPoint
        point = SweepPoint(beta=1.0, rho=0.5, sigma_w2=None, eps=np.nan,
                           eps_loo=np.nan, free_energy=np.nan,
                           converged=False, error="fit did not converge")
        path = tmp_path / "one.csv"
        save_sweep_csv(path, [point])
        with open(path, encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[1][2] == ""
        assert rows[1][3] == "nan"
        assert rows[1][6] == "false"

    def test_loo_schema_with_literal(self, tmp_path):
        rng = np.random.default_rng(11)
        ds = Dataset(rng.normal(0.0, 0.4, (5, 9)), rng.normal(size=9))
        prior = bernoulli_gauss(0.5, 2.0)
        result = fit(ds, prior, 4.0)
        approx = approx_looe(result, ds, 4.0)
        literal = literal_loocv(ds, prior, 4.0)
        path = tmp_path / "loo.csv"
        save_loo_csv(path, approx, literal_report=literal)
        with open(path, encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["mu", "residual_full", "leverage", "residual_loo",
                           "flagged", "residual_loo_literal"]
        assert len(rows) == 10
        for mu, row in enumerate(rows[1:]):
            assert int(row[0]) == mu
            assert float(row[3]) == approx.residual_loo[mu]
            assert float(row[5]) == literal.residual_loo[mu]
            assert row[4] == "false"

    def test_loo_schema_without_literal(self, tmp_path):
        rng = np.random.default_rng(12)
        ds = Dataset(rng.normal(0.0, 0.4, (4, 7)), rng.normal(size=7))
        result = fit(ds, bernoulli_gauss(0.5, 2.0), 3.0)
        approx = approx_looe(result, ds, 3.0)
        path = tmp_path / "loo.csv"
        save_loo_csv(path, approx, header_lines=["tolerance echo"])
        with open(path, encoding="utf-8") as fh:
            content = fh.read()
        assert content.startswith("# tolerance echo\n")
        rows = list(csv.reader(l for l in content.splitlines()
                               if not l.startswith("#")))
        assert rows[0] == ["mu", "residual_full", "leverage", "residual_loo",
                           "flagged"]
        assert len(rows) == 8

    def test_loo_reports_of_different_sample_counts_are_refused(self, tmp_path):
        # a 30-sample table with a 20-sample literal column once wrote 20 rows
        rng = np.random.default_rng(12)
        prior, beta = bernoulli_gauss(0.5, 2.0), 4.0
        big = Dataset(rng.normal(0.0, 0.4, (5, 30)), rng.normal(size=30))
        small = Dataset(big.X[:, :20], big.y[:20])
        approx = approx_looe(fit(big, prior, beta), big, beta)
        literal = literal_loocv(small, prior, beta)
        path = tmp_path / "loo.csv"
        with pytest.raises(DimensionMismatch, match="literal report has 20 samples"):
            save_loo_csv(path, approx, literal_report=literal)
        assert not path.exists()

    def test_loo_schema_of_a_refit_report(self, tmp_path, monkeypatch):
        # a literal report as the only table: no leverages, its refit
        # residuals, and its failed fold's sample flagged
        fit_fold, calls = ecreg.loocv._fit_fold, [0]

        def failing_at_sample_2(sub, prior, beta, warm, point):
            calls[0] += 1
            if calls[0] == 2 + 1:  # the folds run in sample order
                return warm.m, False
            return fit_fold(sub, prior, beta, warm, point)

        monkeypatch.setattr("ecreg.loocv._fit_fold", failing_at_sample_2)
        rng = np.random.default_rng(13)
        ds = Dataset(rng.normal(0.0, 0.4, (4, 20)), rng.normal(size=20))
        literal = literal_loocv(ds, bernoulli_gauss(0.5, 2.0), 3.0)
        assert literal.flagged == [2]
        path = tmp_path / "loo.csv"
        save_loo_csv(path, literal)
        with open(path, encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["mu", "residual_full", "leverage", "residual_loo",
                           "flagged"]
        assert len(rows) == 21
        for mu, row in enumerate(rows[1:]):
            assert int(row[0]) == mu
            assert float(row[1]) == literal.residual_full[mu]
            assert row[2] == ""
            assert float(row[3]) == literal.residual_loo[mu]
            assert row[4] == ("true" if mu == 2 else "false")


class TestLooTracksGeneralization:
    def test_argmin_over_beta_agrees(self):
        # the approximate LOO curve over beta should locate (within one grid
        # step) the beta that minimizes error on fresh held-out data
        betas = [1.0, 2.0, 5.0, 10.0, 20.0, 50.0]
        prior = bernoulli_gauss(0.15, 4.0)
        gaps = []
        for seed in range(10):
            cfg = SynthConfig(N=60, alpha=2.0, rho0=0.15, sigma_w0_sq=4.0,
                              sigma_n0_sq=0.5, seed=seed, test_samples=400)
            train, _, test = gen_synthetic(cfg)
            loo_curve, gen_curve = [], []
            for b in betas:
                res = fit(train, prior, b)
                loo_curve.append(approx_looe(res, train, b).eps_loo)
                gen_curve.append(error_summary(res.state.m, train, test).eps_g)
            loo_curve = np.array(loo_curve)
            gen_curve = np.array(gen_curve)
            assert abs(int(np.argmin(loo_curve)) - int(np.argmin(gen_curve))) <= 1
            ratio = loo_curve / gen_curve
            assert np.all((0.4 < ratio) & (ratio < 2.5))
            gaps.append(float(np.max(np.abs(loo_curve - gen_curve) / gen_curve)))
        assert np.median(gaps) < 0.5
