"""Synthetic data generation, CSV ingestion, error summaries, serialization.

Random generation uses Philox (counter-based) streams spawned from one
SeedSequence in a fixed order — design matrix, true weights, train noise,
held-out design, held-out noise — so each piece of a seed's output is
independently reproducible.

CSV convention: rows are samples, first row is a header, and a line whose
text starts with '#' after leading blanks is a comment (output files carry
their settings there), as is a row before the header whose first cell
unquotes to '#...'.  A line is one row, so a quoted cell holds no line
break.  The design matrix is stored features-by-samples internally, so
ingestion transposes; this is deliberate and documented to prevent a
silent N/M swap.
"""

import csv
import json
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .core import Dataset
from .errors import (
    ConfigError,
    DimensionMismatch,
    IoError,
    MissingTarget,
    NonNumericCell,
    ParseError,
)


@dataclass(frozen=True)
class SynthConfig:
    """Generator settings: y = X^T w0 + noise with sparse Gaussian w0.

    X entries are iid N(0, 1/N) so sample vectors have unit expected norm;
    w0 entries are zero with probability 1-rho0, else N(0, sigma_w0_sq);
    noise is N(0, sigma_n0_sq).  M = round(alpha * N).
    """

    N: int
    alpha: float
    rho0: float
    sigma_w0_sq: float
    sigma_n0_sq: float
    seed: int
    test_samples: int = 0

    def __post_init__(self):
        if not (isinstance(self.N, numbers.Integral) and self.N >= 1):
            raise ConfigError(f"N must be an integer >= 1, got {self.N}")
        if not (math.isfinite(self.alpha) and self.alpha > 0):
            raise ConfigError(f"alpha must be positive, got {self.alpha}")
        if not math.isfinite(self.alpha * self.N):
            raise ConfigError(f"alpha*N must be finite, got {self.alpha}*{self.N}")
        if self.M < 1:
            raise ConfigError(f"round(alpha*N) must be >= 1, got {self.M}")
        if not 0.0 <= self.rho0 <= 1.0:
            raise ConfigError(f"rho0 must lie in [0,1], got {self.rho0}")
        if not (math.isfinite(self.sigma_w0_sq) and self.sigma_w0_sq > 0.0):
            raise ConfigError(f"sigma_w0_sq must be finite and > 0, got {self.sigma_w0_sq}")
        if not (math.isfinite(self.sigma_n0_sq) and self.sigma_n0_sq >= 0.0):
            raise ConfigError(f"sigma_n0_sq must be finite and >= 0, got {self.sigma_n0_sq}")
        if not (isinstance(self.test_samples, numbers.Integral) and self.test_samples >= 0):
            raise ConfigError(f"test_samples must be an integer >= 0, got {self.test_samples}")
        for name, count in (("M", self.M), ("test_samples", self.test_samples)):
            # numpy rejects an N x count float64 array above this many bytes
            if self.N * count * 8 > np.iinfo(np.intp).max:
                raise ConfigError(f"an N x {name} array ({self.N} x {count:.3g}) exceeds "
                                  "numpy's size limit")
        if not isinstance(self.seed, numbers.Integral) or self.seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed}")

    @property
    def M(self):
        return int(round(self.alpha * self.N))


@dataclass(frozen=True)
class GroundTruth:
    w0: np.ndarray
    support: np.ndarray  # indices of the non-zero coefficients


@dataclass(frozen=True)
class ErrorSummary:
    eps: float
    eps_g: float | None = None


@dataclass(frozen=True)
class CenteringRecord:
    """Ingestion record: per-feature means, target mean, names, centered flag."""

    feature_means: np.ndarray
    y_mean: float
    centered: bool
    feature_names: tuple
    target_name: str


def gen_synthetic(config):
    """Generate (train Dataset, GroundTruth, held-out Dataset or None)."""
    n, m = config.N, config.M
    streams = np.random.SeedSequence(config.seed).spawn(5)
    gen_x, gen_w, gen_noise, gen_tx, gen_tnoise = (
        np.random.Generator(np.random.Philox(s)) for s in streams)

    X = gen_x.normal(0.0, 1.0 / math.sqrt(n), size=(n, m))
    mask = gen_w.random(n) < config.rho0
    slab = gen_w.normal(0.0, math.sqrt(config.sigma_w0_sq), size=n)
    w0 = np.where(mask, slab, 0.0)
    noise = gen_noise.normal(0.0, math.sqrt(config.sigma_n0_sq), size=m) \
        if config.sigma_n0_sq > 0.0 else np.zeros(m)
    y = X.T @ w0 + noise
    train = Dataset(X, y)
    truth = GroundTruth(w0=w0, support=np.flatnonzero(mask))

    heldout = None
    if config.test_samples > 0:
        t = config.test_samples
        Xt = gen_tx.normal(0.0, 1.0 / math.sqrt(n), size=(n, t))
        tnoise = gen_tnoise.normal(0.0, math.sqrt(config.sigma_n0_sq), size=t) \
            if config.sigma_n0_sq > 0.0 else np.zeros(t)
        heldout = Dataset(Xt, Xt.T @ w0 + tnoise)
    return train, truth, heldout


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------


def _numbered_rows(lines):
    """(line number, line) of every line that is neither blank nor a
    comment: one whose text starts with '#' after leading blanks."""
    return [(n, line) for n, line in enumerate(lines, start=1)
            if line.rstrip("\r\n") and not line.lstrip().startswith("#")]


def _cells(line):
    """A line's cells, split and unquoted as csv.reader does."""
    return next(csv.reader([line]))


def _parse_body(body, width):
    """The data rows as finite floats.  One np.loadtxt call reads the body,
    quoted or not; where it rejects the body or reads a non-finite cell, the
    per-cell float() loop parses it and names the first bad row or cell."""
    try:
        data = np.loadtxt([line for _, line in body], delimiter=",", quotechar='"',
                          comments=None, ndmin=2)
        if data.shape == (len(body), width) and np.isfinite(data).all():
            return data
    except ValueError:
        pass
    data = np.empty((len(body), width))
    for i, (lineno, line) in enumerate(body):
        row = _cells(line)
        if len(row) != width:
            raise ParseError(f"expected {width} fields, found {len(row)}", row=lineno)
        for j, cell in enumerate(row):
            text = cell.strip()
            if not text:
                raise NonNumericCell("missing value", row=lineno, column=j + 1)
            try:
                data[i, j] = float(text)
            except ValueError:
                raise NonNumericCell(
                    f"non-numeric cell {cell!r}", row=lineno, column=j + 1) from None
            if not math.isfinite(data[i, j]):
                raise NonNumericCell(f"non-finite cell {cell!r}", row=lineno, column=j + 1)
    return data


def load_csv(path, target_column, center=False):
    """Load a samples-by-columns CSV into a Dataset (features x samples).

    The target column, named once in the header, becomes y; the others
    become feature rows.  A ragged row or a missing, non-numeric or
    non-finite cell is a hard error; the first in file order is named by its
    file row and column.  With center=True, per-feature
    means and the target mean are subtracted and recorded for back-transformation.
    """
    try:
        # utf-8-sig drops the byte-order mark that spreadsheet exports write
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            rows = _numbered_rows(fh.readlines())
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    # before the header, a row whose first cell unquotes to '#...' is a comment
    while rows and _cells(rows[0][1])[0].lstrip().startswith("#"):
        del rows[0]
    if not rows:
        raise ParseError(f"{path} has no header row")
    header = [name.strip() for name in _cells(rows[0][1])]
    if target_column not in header:
        raise MissingTarget(
            f"target column {target_column!r} not in header {header}")
    if header.count(target_column) > 1:
        raise ParseError(f"target column {target_column!r} repeats in the header", row=rows[0][0])
    target_idx = header.index(target_column)
    body = rows[1:]
    if not body:
        raise ParseError(f"{path} has no data rows")

    data = _parse_body(body, len(header))
    y = data[:, target_idx].copy()
    X = np.delete(data, target_idx, axis=1).T.copy()
    feature_names = tuple(name for k, name in enumerate(header) if k != target_idx)

    feature_means, y_mean = np.zeros(X.shape[0]), 0.0
    if center:
        feature_means, y_mean = X.mean(axis=1), float(y.mean())
        X -= feature_means[:, None]
        y -= y_mean
    record = CenteringRecord(feature_means=feature_means, y_mean=y_mean,
                             centered=bool(center), feature_names=feature_names,
                             target_name=target_column)
    return Dataset(X, y), record


def save_dataset_csv(path, dataset, feature_names=None, target_name="y",
                     header_lines=()):
    """Write a Dataset as a samples-by-columns CSV with optional '#' headers;
    ConfigError if a feature is named as the target."""
    n = dataset.n_features
    names = list(feature_names) if feature_names is not None else [
        f"x{i + 1:04d}" for i in range(n)]
    if len(names) != n:
        raise DimensionMismatch(f"{len(names)} names for {n} features")
    if any(name.strip() == target_name.strip() for name in names):
        # load_csv strips the names and rejects a repeated target column
        raise ConfigError(f"feature name {target_name!r} is the target's name")
    rows = (map(repr, x.tolist() + [t]) for x, t in zip(dataset.X.T, dataset.y.tolist()))
    _write_table(path, names + [target_name], rows, header_lines)


# ---------------------------------------------------------------------------
# error summaries
# ---------------------------------------------------------------------------


def error_summary(m, train, test=None):
    """Training eps = (1/2M) sum residual**2; eps_g likewise on held-out data."""
    m = np.asarray(m, dtype=float)

    def eps(data):
        if m.shape != (data.n_features,):
            raise DimensionMismatch(f"m has shape {m.shape}, expected ({data.n_features},)")
        r = data.y - data.X.T @ m
        return float(r @ r) / (2.0 * data.n_samples)

    return ErrorSummary(eps=eps(train), eps_g=None if test is None else eps(test))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------
# Python's repr of a float is the shortest decimal that round-trips to the
# same binary64, so JSON and CSV payloads written here are lossless.


def _json_default(value):
    """ndarrays as lists, numpy scalars as Python scalars."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.generic):
        return value.item()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def _write_json(path, payload):
    """Write payload as indented JSON with a trailing newline."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, default=_json_default)
            fh.write("\n")
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def save_fit_json(path, fit_result, extra=None):
    """Serialize a FitResult to JSON (vectors, scalars, settings echo)."""
    state = fit_result.state
    _write_json(path, {
        "m": state.m,
        "E": float(state.E),
        "h": state.h,
        "variance": state.variance,
        "inclusion_probs": fit_result.inclusion_probs,
        "free_energy": float(state.free_energy),
        "converged": bool(state.converged),
        "iterations": int(state.iterations),
        "settings": {**fit_result.settings, **(extra or {})},
    })


def load_fit_json(path):
    """A fit JSON's payload with its vectors as arrays; ParseError if malformed."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        raise ParseError(f"{path} is not JSON: {exc}") from exc
    for key in ("m", "h", "variance", "inclusion_probs"):
        if not isinstance(payload, dict) or key not in payload:
            raise ParseError(f"{path} has no {key!r} key")
        vector = payload[key]
        if not (isinstance(vector, list) and all(type(x) in (int, float) for x in vector)):
            raise ParseError(f"{path}: {key!r} is not a flat list of numbers")
        payload[key] = np.array(vector, dtype=float)
        # json.load reads NaN and Infinity, which no fit writes
        if not np.isfinite(payload[key]).all():
            raise ParseError(f"{path}: {key!r} has a non-finite entry")
    return payload


def _write_table(path, columns, rows, header_lines):
    """Write '# ' comment lines, the column names, then the data rows.

    Comment lines end in '\\n'; the header and data rows end in '\\r\\n', as
    in csv's default dialect.  csv.writer writes the header, whose names may
    need quoting.  Data cells are repr floats, true/false, integers or empty
    strings, none of which csv.writer would quote, so each data row is its
    cells joined by commas: the same bytes without csv's per-cell checks.
    ConfigError, before anything is written, for text that load_csv would
    misread: a line break in a comment or name, or a first name that starts
    with '#' after blanks, or with the byte-order mark it drops.
    """
    for text in (*header_lines, *columns):
        if "\n" in text or "\r" in text:
            raise ConfigError(f"{text!r} holds a line break")
    if columns[0].lstrip().startswith("#") or columns[0].startswith("\ufeff"):
        raise ConfigError(f"first column name {columns[0]!r} would not read back")
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            for line in header_lines:
                fh.write(f"# {line}\n")
            csv.writer(fh).writerow(columns)
            fh.writelines(",".join(cells) + "\r\n" for cells in rows)
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def _format_cell(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def save_sweep_csv(path, points, header_lines=()):
    """Sweep table: beta,rho,sigma_w2,eps,eps_loo,free_energy,converged."""
    columns = ["beta", "rho", "sigma_w2", "eps", "eps_loo", "free_energy", "converged"]
    rows = ([_format_cell(p.beta), _format_cell(p.rho), _format_cell(p.sigma_w2),
             _format_cell(p.eps), _format_cell(p.eps_loo), _format_cell(p.free_energy),
             _format_cell(bool(p.converged))] for p in points)
    _write_table(path, columns, rows, header_lines)


def save_calibration_csv(path, rows, header_lines=()):
    """Calibration table: K,beta,rho,achieved_K,eps,eps_loo,selected.

    ``rows`` are mappings with those keys, one per (K, beta) point, such as
    hyper.calibrate returns; a failed calibration carries None in rho,
    achieved_K, eps and eps_loo, written as empty cells.
    """
    numeric = ["K", "beta", "rho", "achieved_K", "eps", "eps_loo"]
    cells = ([_format_cell(None if r[c] is None else float(r[c])) for c in numeric]
             + [_format_cell(bool(r["selected"]))] for r in rows)
    _write_table(path, numeric + ["selected"], cells, header_lines)


def save_loo_csv(path, report, literal_report=None, header_lines=()):
    """LOO table: mu,residual_full,leverage,residual_loo,flagged, plus a
    residual_loo_literal comparison column when a literal report is given.
    Row mu is sample mu; the leverage cells are empty for a refit report."""
    columns = ["mu", "residual_full", "leverage", "residual_loo", "flagged"]
    M = len(report.residual_loo)
    leverage = [None] * M if report.leverage is None else report.leverage.tolist()
    table = [report.residual_full.tolist(), leverage, report.residual_loo.tolist()]
    flagged = set(report.flagged)
    if literal_report is not None:
        columns.append("residual_loo_literal")
        table.append(literal_report.residual_loo.tolist())
        flagged |= set(literal_report.flagged)

    def row(mu, full, lev, loo, *literal):
        return [str(mu), _format_cell(full), _format_cell(lev), _format_cell(loo),
                _format_cell(mu in flagged), *map(_format_cell, literal)]

    _write_table(path, columns, (row(mu, *cells) for mu, cells in enumerate(zip(*table))),
                 header_lines)
