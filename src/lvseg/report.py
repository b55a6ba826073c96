"""CSV row formats and the agreement report.

Two row schemas flow through the harness:

  metrics CSV      id, phase, dice, jaccard, hd_mm, mad_mm
                   (plus summary rows with id "mean" / "sd")
  measurement CSV  id, phase, D_cm, S_cm2, V_ml, EF_pct, flag
                   (image rows leave EF empty; per-subject EF rows use
                   phase "EF" and leave the geometry columns empty)

All CSVs are UTF-8, comma-separated, with a mandatory header row and '.'
as the decimal separator; floats are written with full precision so that
write -> read round-trips exactly. ``csv_rows`` and ``write_csv`` read and
write every CSV of the toolkit, the dataset's meta.csv and the training
log.csv included.
"""

from __future__ import annotations

import csv
import math
from dataclasses import astuple, dataclass
from pathlib import Path

import numpy as np

from .errors import ContractViolation, FormatError
from .stats import (AnovaTable, BlandAltman, BoxSummary, LinearFit, PairedSeries,
                    anova_oneway, bland_altman, box_summary, paired_t_pvalue, pearson_fit)

PARAMETERS = ("volume", "area", "length", "EF")
METRICS_HEADER = ["id", "phase", "dice", "jaccard", "hd_mm", "mad_mm"]
MEASUREMENT_HEADER = ["id", "phase", "D_cm", "S_cm2", "V_ml", "EF_pct", "flag"]


@dataclass
class MetricsRow:
    sample_id: str
    phase: str
    dice: float
    jaccard: float
    hd_mm: float
    mad_mm: float


@dataclass
class MeasurementRow:
    sample_id: str
    phase: str
    d_cm: float = math.nan
    s_cm2: float = math.nan
    v_ml: float = math.nan
    ef_pct: float = math.nan
    flag: str = "ok"


def _fmt(x: float) -> str:
    return "" if math.isnan(x) else repr(float(x))


def csv_rows(path: str | Path, header: list[str], kind: str | None = None):
    """(line, row) for each data row of the CSV at ``path``. Its header must
    be exactly ``header`` with a ``kind`` to name in the error, or hold at
    least those fields without one. A row shorter than ``header`` or longer
    than the file's own header raises FormatError naming the file and the
    line; bytes that are not UTF-8 raise it naming the file, and a field
    past csv's size limit naming the line."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        try:
            found = reader.fieldnames
            if kind is not None and found != header:
                raise FormatError(f"{path}: {kind} header must be {header}, got {found}")
            if kind is None and (found is None or not set(header).issubset(found)):
                raise FormatError(f"{path}: header must contain {sorted(header)}")
            for row in reader:
                line = reader.line_num
                missing = [name for name in header if row[name] is None]
                if missing:
                    raise FormatError(f"{path}: line {line}: row ends before field {missing[0]}")
                if None in row:  # csv's key for the cells past the header's last field
                    raise FormatError(f"{path}: line {line}: {len(row[None])} field(s) past "
                                      f"the header's last, {found[-1]}")
                yield line, row
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path}: not UTF-8 text ({exc.reason})") from None
        except csv.Error as exc:
            raise FormatError(f"{path}: line {reader.line_num}: {exc}") from None


def write_csv(path: str | Path, header: list[str], rows) -> None:
    """The header, then each row (a sequence of cells), as a UTF-8 CSV."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def _numbers(path: str | Path, line: int, row: dict, names: list[str]) -> list[float]:
    """The named fields as floats, an empty cell as NaN; a non-numeric cell
    raises FormatError naming the file, the line and the field."""
    values = []
    for name in names:
        try:
            values.append(math.nan if row[name] == "" else float(row[name]))
        except ValueError:
            raise FormatError(f"{path}: line {line}: field {name}: "
                              f"not a number: {row[name]!r}") from None
    return values


def write_metrics_csv(rows: list[MetricsRow], path: str | Path) -> None:
    write_csv(path, METRICS_HEADER,
              ([r.sample_id, r.phase, _fmt(r.dice), _fmt(r.jaccard), _fmt(r.hd_mm),
                _fmt(r.mad_mm)] for r in rows))


def read_metrics_csv(path: str | Path) -> list[MetricsRow]:
    return [MetricsRow(row["id"], row["phase"], *_numbers(path, line, row, METRICS_HEADER[2:]))
            for line, row in csv_rows(path, METRICS_HEADER, "metrics")]


def write_measurements_csv(rows: list[MeasurementRow], path: str | Path) -> None:
    write_csv(path, MEASUREMENT_HEADER,
              ([r.sample_id, r.phase, _fmt(r.d_cm), _fmt(r.s_cm2), _fmt(r.v_ml),
                _fmt(r.ef_pct), r.flag] for r in rows))


def read_measurements_csv(path: str | Path) -> list[MeasurementRow]:
    """The file's rows; a second image row, or a second EF row, with the
    same id raises FormatError naming the file, the id and both lines."""
    rows, first_line = [], {}
    for line, row in csv_rows(path, MEASUREMENT_HEADER, "measurement"):
        key = (row["id"], row["phase"] == "EF")
        if key in first_line:
            raise FormatError(f"{path}: line {line}: field id: duplicate "
                              f"{'EF' if key[1] else 'image'} row id {row['id']!r} "
                              f"(first on line {first_line[key]})")
        first_line[key] = line
        rows.append(MeasurementRow(row["id"], row["phase"],
                                   *_numbers(path, line, row, MEASUREMENT_HEADER[2:6]),
                                   row["flag"]))
    return rows


# -- agreement analysis --------------------------------------------------

@dataclass
class AgreementReport:
    """Per-parameter agreement bundle between one method and the manual
    reference. ``t_p`` is a paired two-sided t-test p-value, emitted as a
    labeled approximation only."""

    parameter: str
    n: int
    fit: LinearFit
    ba: BlandAltman
    abs_error_box: BoxSummary
    t_p: float


def _series_by_parameter(rows: list[MeasurementRow],
                         side: str) -> dict[str, dict[str, float]]:
    """parameter -> {key: value}; geometry keyed by sample id, EF by the
    subject id carried in the EF row's id column. A flagged image row, or
    an EF row with a blank EF, keys its id to NaN: it is in the file but
    measured nothing. Any other value that is not finite raises
    ContractViolation naming ``side``, the id and the field."""
    out: dict[str, dict[str, float]] = {p: {} for p in PARAMETERS}
    for r in rows:
        if r.phase == "EF":
            cells, blank = [("EF", "EF_pct", r.ef_pct)], math.isnan(r.ef_pct)
        else:
            cells = [("volume", "V_ml", r.v_ml), ("area", "S_cm2", r.s_cm2),
                     ("length", "D_cm", r.d_cm)]
            blank = r.flag != "ok"
        for param, field, value in cells:
            if blank:
                value = math.nan
            elif not math.isfinite(value):
                raise ContractViolation(
                    f"{side} row {r.sample_id!r}: field {field}: not a finite number: {value}")
            out[param][r.sample_id] = value
    return out


def _paired(auto_rows: list[MeasurementRow], manual_rows: list[MeasurementRow],
            method: str | None) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """parameter -> (auto values, manual values) over the sorted ids that
    both sides measured: an id flagged on either side, or with a blank EF,
    is left out of that parameter on both. An id in one file but not the
    other raises ContractViolation, beginning with ``method``'s name."""
    where = f"{method}: " if method else ""
    auto = _series_by_parameter(auto_rows, f"{where}auto")
    manual = _series_by_parameter(manual_rows, "manual")
    pairs = {}
    for param in PARAMETERS:
        a, m = auto[param], manual[param]
        missing = sorted(a.keys() ^ m.keys())
        if missing:
            raise ContractViolation(
                f"{where}{param}: ids not present on both sides: {missing}")
        keys = [k for k in sorted(a) if not (math.isnan(a[k]) or math.isnan(m[k]))]
        pairs[param] = (np.array([a[k] for k in keys]), np.array([m[k] for k in keys]))
    return pairs


def agreement_reports(auto_rows: list[MeasurementRow], manual_rows: list[MeasurementRow],
                      method: str | None = None) -> list[AgreementReport]:
    """One report per clinical parameter with at least two ids measured on
    both sides, and at least one report; ids pair as ``_paired`` says."""
    reports = []
    for param, (auto, man) in _paired(auto_rows, manual_rows, method).items():
        if len(auto) < 2:
            continue
        series = PairedSeries(auto=auto, man=man, name=param)
        reports.append(AgreementReport(
            parameter=param, n=len(auto),
            fit=pearson_fit(series), ba=bland_altman(series),
            abs_error_box=box_summary(np.abs(series.auto - series.man)),
            t_p=paired_t_pvalue(series)))
    if not reports:
        raise ContractViolation(
            f"no parameter of {list(PARAMETERS)} has two ids paired on both sides")
    return reports


def method_anova(per_method_rows: dict[str, list[MeasurementRow]],
                 manual_rows: list[MeasurementRow]) -> dict[str, AnovaTable]:
    """One-way ANOVA per parameter over the per-method absolute errors
    against the shared manual reference; each method's ids pair with the
    reference as in ``agreement_reports``, and errors name the method."""
    if len(per_method_rows) < 2:
        raise ContractViolation("method ANOVA needs >= 2 methods")
    pairs = [_paired(per_method_rows[m], manual_rows, m) for m in sorted(per_method_rows)]
    tables = {}
    for param in PARAMETERS:
        groups = [np.abs(auto - man) for auto, man in (p[param] for p in pairs) if len(auto)]
        if len(groups) >= 2 and sum(len(g) for g in groups) > len(groups):
            tables[param] = anova_oneway(groups)
    return tables


def anova_text_table(table: AnovaTable) -> str:
    """Plain-text table with the Source/SS/df/MS/F/p-value columns."""
    header = f"{'Source':<28}{'SS':>10}{'df':>6}{'MS':>10}{'F':>10}{'p-value':>10}"
    row_b = (f"{'between-groups variation':<28}{table.ss_between:>10.4g}"
             f"{table.df_between:>6}{table.ms_between:>10.4g}"
             f"{table.f:>10.4g}{table.p:>10.4g}")
    row_w = (f"{'within-groups variation':<28}{table.ss_within:>10.4g}"
             f"{table.df_within:>6}{table.ms_within:>10.4g}")
    row_t = f"{'Total':<28}{table.ss_total:>10.4g}{table.df_total:>6}"
    return "\n".join([header, row_b, row_w, row_t])


def write_agreement_report(reports: list[AgreementReport], directory: str | Path,
                           anova_tables: dict[str, AnovaTable] | None = None) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    write_csv(directory / "agreement.csv",
              ["parameter", "n", "slope", "intercept", "r", "bias", "loa_low", "loa_high",
               "rpc", "cv_pct", "paired_t_p_approx"],
              ([r.parameter, r.n, _fmt(r.fit.slope), _fmt(r.fit.intercept), _fmt(r.fit.r),
                _fmt(r.ba.bias), _fmt(r.ba.loa_low), _fmt(r.ba.loa_high), _fmt(r.ba.rpc),
                _fmt(r.ba.cv_pct), _fmt(r.t_p)] for r in reports))
    write_csv(directory / "boxplot.csv",
              ["parameter", "q1", "median", "q3", "whisker_low", "whisker_high"],
              ([r.parameter, *map(_fmt, astuple(r.abs_error_box))] for r in reports))
    if anova_tables:
        with open(directory / "anova.txt", "w", encoding="utf-8") as fh:
            for param, table in anova_tables.items():
                fh.write(f"[{param}]\n{anova_text_table(table)}\n\n")
    else:  # an earlier report's tables would read as this one's
        (directory / "anova.txt").unlink(missing_ok=True)
