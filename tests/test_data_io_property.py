"""Property tests: each CSV table writer gives the bytes csv.writer would,
and load_csv reads back every dataset that save_dataset_csv writes.

The writers once passed every row through csv.writer; today they join each
data row's cells themselves.  These tests rebuild the old output, csv.writer
over repr(float(v)) cells under the same '# ' lines, and compare bytes.

Needs the optional test dependency hypothesis (``pip install .[test]``);
the module is skipped without it.
"""

import csv
import io
import pathlib
import tempfile
from types import SimpleNamespace

import numpy as np
import pytest

from ecreg.core import Dataset
from ecreg.data_io import (load_csv, save_calibration_csv, save_dataset_csv, save_loo_csv,
                           save_sweep_csv)
from ecreg.errors import ConfigError
from ecreg.hyper import SweepPoint

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

_EDGE_FLOATS = [-0.0, 5e-324, 1e16, 1e22, 1.7976931348623157e308]
_FINITE = st.one_of(st.sampled_from(_EDGE_FLOATS),
                    st.floats(allow_nan=False, allow_infinity=False))
_ANY_FLOAT = st.one_of(_FINITE, st.floats())
_TEXT = st.text(st.characters(blacklist_categories=("Cs", "Cc")), max_size=6)
# a comma and a '"' make csv.writer quote the header row
_QUOTED_NAMES = ["a,b", 'say "hi"', " lead"]


def _csv_writer_bytes(columns, rows, header_lines):
    buf = io.StringIO(newline="")
    for line in header_lines:
        buf.write(f"# {line}\n")
    writer = csv.writer(buf)
    writer.writerow(columns)
    writer.writerows(rows)
    return buf.getvalue().encode("utf-8")


def _written_bytes(save, *args, **kwargs):
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "table.csv"
        save(path, *args, **kwargs)
        return path.read_bytes()


def _old_cell(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(float(value))


@st.composite
def _named_dataset(draw):
    # save_dataset_csv rejects a feature named as the target, y
    names = _QUOTED_NAMES + draw(st.lists(_TEXT.filter(lambda t: t and t.strip() != "y"),
                                          max_size=3))
    m = draw(st.integers(1, 4))
    cells = draw(st.lists(_FINITE, min_size=m * (len(names) + 1),
                          max_size=m * (len(names) + 1)))
    table = np.array(cells).reshape(m, len(names) + 1)
    return Dataset(table[:, :-1].T, table[:, -1]), names


class TestTableBytes:
    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.given(_named_dataset(), st.lists(_TEXT, max_size=2))
    def test_dataset_csv(self, named, header_lines):
        ds, names = named
        rows = [[repr(float(v)) for v in ds.X[:, mu]] + [repr(float(ds.y[mu]))]
                for mu in range(ds.n_samples)]
        expected = _csv_writer_bytes(names + ["y"], rows, header_lines)
        assert expected.splitlines()[len(header_lines)].startswith(b'"a,b","say ""hi""", lead')
        assert _written_bytes(save_dataset_csv, ds, feature_names=names,
                              header_lines=header_lines) == expected

    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.given(st.lists(st.tuples(_ANY_FLOAT, _ANY_FLOAT,
                                         st.one_of(st.none(), _ANY_FLOAT), _ANY_FLOAT,
                                         _ANY_FLOAT, _ANY_FLOAT, st.booleans()),
                               max_size=4),
                      st.lists(_TEXT, max_size=2))
    def test_sweep_csv(self, cells, header_lines):
        points = [SweepPoint(*row) for row in cells]
        columns = ["beta", "rho", "sigma_w2", "eps", "eps_loo", "free_energy", "converged"]
        expected = _csv_writer_bytes(columns, [[_old_cell(v) for v in row] for row in cells],
                                     header_lines)
        assert _written_bytes(save_sweep_csv, points, header_lines=header_lines) == expected

    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.given(st.lists(st.tuples(_FINITE, _FINITE, st.one_of(st.none(), _FINITE),
                                         st.one_of(st.none(), _ANY_FLOAT),
                                         st.one_of(st.none(), _ANY_FLOAT),
                                         st.one_of(st.none(), _ANY_FLOAT), st.booleans()),
                               max_size=4),
                      st.lists(_TEXT, max_size=2))
    def test_calibration_csv(self, cells, header_lines):
        columns = ["K", "beta", "rho", "achieved_K", "eps", "eps_loo", "selected"]
        rows = [dict(zip(columns, row)) for row in cells]
        expected = _csv_writer_bytes(columns, [[_old_cell(v) for v in row] for row in cells],
                                     header_lines)
        assert _written_bytes(save_calibration_csv, rows,
                              header_lines=header_lines) == expected

    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.given(st.integers(1, 5).flatmap(lambda m: st.tuples(
        *[st.lists(_ANY_FLOAT, min_size=m, max_size=m)] * 4,
        st.booleans(), st.booleans(),
        st.lists(st.integers(0, m - 1), max_size=2),
        st.lists(st.integers(0, m - 1), max_size=2))),
        st.lists(_TEXT, max_size=2))
    def test_loo_csv(self, drawn, header_lines):
        full, lev, loo, lit, has_lev, has_literal, flagged, lit_flagged = drawn
        report = SimpleNamespace(residual_full=np.array(full), residual_loo=np.array(loo),
                                 leverage=np.array(lev) if has_lev else None,
                                 flagged=flagged)
        literal = SimpleNamespace(residual_loo=np.array(lit), flagged=lit_flagged) \
            if has_literal else None
        marked = set(flagged) | (set(lit_flagged) if has_literal else set())
        columns = ["mu", "residual_full", "leverage", "residual_loo", "flagged"]
        rows = [[str(mu), _old_cell(full[mu]), _old_cell(lev[mu] if has_lev else None),
                 _old_cell(loo[mu]), _old_cell(mu in marked)] for mu in range(len(full))]
        if has_literal:
            columns.append("residual_loo_literal")
            rows = [row + [_old_cell(lit[mu])] for mu, row in enumerate(rows)]
        expected = _csv_writer_bytes(columns, rows, header_lines)
        assert _written_bytes(save_loo_csv, report, literal_report=literal,
                              header_lines=header_lines) == expected


# names and comments built from what a CSV reader could misread: comment
# marks, quotes, commas, blanks and line breaks
_TRICKY_TEXT = st.one_of(
    st.text(st.sampled_from(["#", '"', ",", " ", "\t", "\n", "\r", "a", "y", "1"]), max_size=5),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=5))


@st.composite
def _tricky_dataset(draw):
    names = draw(st.lists(_TRICKY_TEXT, min_size=1, max_size=3))
    m = draw(st.integers(1, 3))
    cells = draw(st.lists(_FINITE, min_size=m * (len(names) + 1),
                          max_size=m * (len(names) + 1)))
    table = np.array(cells).reshape(m, len(names) + 1)
    return Dataset(table[:, :-1].T, table[:, -1]), names


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a, b) and np.array_equal(np.signbit(a),
                                                                          np.signbit(b))


class TestDatasetRoundTrip:
    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(_tricky_dataset(), st.lists(_TRICKY_TEXT, max_size=2))
    def test_saved_dataset_reads_back_or_the_save_refuses(self, named, header_lines):
        ds, names = named
        with tempfile.TemporaryDirectory() as tmp:
            path = pathlib.Path(tmp) / "data.csv"
            try:
                save_dataset_csv(path, ds, feature_names=names, header_lines=header_lines)
            except ConfigError:
                assert not path.exists()
                return
            loaded, record = load_csv(path, "y")
        assert _same_bits(loaded.X, ds.X)
        assert _same_bits(loaded.y, ds.y)
        assert record.feature_names == tuple(name.strip() for name in names)
