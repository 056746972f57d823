"""report.json on disk. `write` writes schema hadcl.run_report.v3, JSON
lines; `read` reads v3, and v2 and v1 in any JSON layout, and checks every
cell it returns. Also the names a report's cells are built from, which the
harness shares: the strategies, the paired and ROC splits and the curve
columns, and `replacing`, which every output file is written through."""

from __future__ import annotations

import base64
import contextlib
import itertools
import json
import os

import numpy as np

from .exceptions import ValidationError

REPORT_SCHEMA = "hadcl.run_report.v3"
# the earlier layouts, which read still reads. v2 is one JSON document with
# a summary, whose cells hold their scores and labels as JSON lists and
# their curves as lists of records. v1 is v2 with each ok cell's validation
# split in metrics["val"], with its scores, labels and DeLong CI
_REPORT_SCHEMA_V2 = "hadcl.run_report.v2"
_REPORT_SCHEMA_V1 = "hadcl.run_report.v1"
STRATEGIES = ("baseline", "curriculum1", "curriculum2")
# the test splits that get a paired DeLong test against the baseline
PAIRED_SPLITS = ("in_domain", "ood")
# what RunReport.summary() reads of "val" and of each paired split
_SUMMARY_KEYS = ("accuracy", "auc")
# the keys of a curve record, which curves.tsv writes after strategy and seed
CURVE_COLUMNS = ("epoch", "t", "thres", "k", "k_prime", "branch", "mean_loss", "lr")
_CURVE_KEYS = frozenset(CURVE_COLUMNS)
COMPACT = (",", ":")


def roc_splits(metrics: dict) -> tuple:
    """The splits of a cell's metrics that get ROC points."""
    return ("in_domain", "ood", "slide") if "slide" in metrics else ("in_domain", "ood")


@contextlib.contextmanager
def replacing(*paths):
    """Text files, one per path, that replace `paths` only when the block
    ends: each is written to a temporary file beside its path, and all are
    renamed into place once every one is complete. If the block raises, the
    temporary files are removed and `paths` keep what they held."""
    temps = [f"{path}.{os.getpid()}.tmp" for path in paths]
    files = []
    try:
        for temp in temps:
            files.append(open(temp, "w"))
        yield files
        for f in files:
            f.close()
        for temp, path in zip(temps, paths):
            os.replace(temp, path)
    except BaseException:
        for f, temp in zip(files, temps):
            f.close()
            with contextlib.suppress(OSError):
                os.remove(temp)
        raise


def write(path, config_hash: str, code_version: str, cells: list) -> None:
    """Writes a report of `cells` as schema v3, JSON lines: a header with
    the seeds in cell order, then one line per seed with its labels per
    split and its cells. A cell writes each split's scores as the base64
    text of their little-endian float64 bytes, leaves out labels that
    encode as its seed line's, and writes its curve by column. A cell whose
    metrics repeat those of an earlier cell of its seed, such as a
    curriculum2 cell that kept theta_1, holds that cell's index as
    "metrics_from" instead. No summary is written. Raises ValidationError,
    leaving `path` as it was, if the cells of a seed are not contiguous or
    a curve record's keys are not CURVE_COLUMNS."""
    header = {"schema": REPORT_SCHEMA, "config_hash": config_hash,
              "code_version": code_version,
              "seeds": list(dict.fromkeys(c["seed"] for c in cells))}
    _write_json_lines(path, itertools.chain([header], _seed_lines(cells)))


def read(path) -> tuple[str, str, list]:
    """The config hash, code version and cells of the report at `path`,
    schema v3 as JSON lines or v2 or v1 in any JSON layout; the cells as
    run_experiment returned them. A v3 cell's scores become lists of
    floats, its curve a list of records, and a split without labels gets its
    seed line's. A "metrics_from" index becomes a copy of the named cell's
    split dicts; a v1 cell's metrics["val"] moves to its "val", keeping only
    AUC and accuracy. Raises ValidationError, naming the line and cell where
    it can, for a file that cannot be read, is not JSON, lacks the schema or
    a required key, or holds a cell without a known strategy, a non-negative
    integer seed, the keys, curve records and equal-length score and label
    lists that emit_plot_data reads, or the numbers summary() reads. The
    score and label values themselves are checked where emit_plot_data
    converts them."""
    try:
        with open(path) as f:
            text = f.read()
    except (OSError, ValueError) as exc:
        raise ValidationError(f"cannot read report {path}: {exc}") from None
    first, _, rest = text.partition("\n")
    try:  # a v3 header, or a whole compact v2 or v1 report
        doc = json.loads(first)
    except ValueError:
        doc = None
    if isinstance(doc, dict) and (doc.get("schema") == REPORT_SCHEMA
                                  or rest.strip()):
        schema = REPORT_SCHEMA
        cells, places = _v3_cells(path, doc, rest)
    else:
        if doc is None:
            try:
                doc = json.loads(text)
            except ValueError as exc:
                raise ValidationError(
                    f"cannot read report {path}: {exc}") from None
        schema = doc.get("schema") if isinstance(doc, dict) else None
        if schema not in (_REPORT_SCHEMA_V2, _REPORT_SCHEMA_V1):
            raise ValidationError(f"unknown report schema {schema!r}")
        missing = {"config_hash", "cells", "code_version"} - set(doc)
        if missing:
            raise ValidationError(f"report {path} lacks {sorted(missing)}")
        cells = doc["cells"]
        if not isinstance(cells, list):
            raise ValidationError(f"report {path}: cells must be a list")
        places = [f"report {path} cell {i}" for i in range(len(cells))]
    for i, where in enumerate(places):
        cell = cells[i]
        _check_cell_keys(cell, where)
        if schema != REPORT_SCHEMA:  # _curve_records checked a v3 curve
            _check_curve(cell, where)
        if cell["status"] != "ok":
            continue
        if schema == _REPORT_SCHEMA_V1:
            _move_v1_val(cell)
        elif "metrics_from" in cell:
            cells[i] = cell = _metrics_restored(cells, i, where)
        _check_metrics(cell, where)
    return doc["config_hash"], doc["code_version"], cells


def _is_seed(value) -> bool:
    """Whether `value` is a non-negative int; a bool is not one."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _seed_lines(cells):
    """The v3 seed lines of `cells`, in order: each holds its seed, the
    labels of each split as the first cell of the seed written with that
    split's metrics has them, and the seed's cells as _cells_written gives
    them, encoded by _cell_encoded."""
    done = set()
    for seed, group in itertools.groupby(_cells_written(cells),
                                         key=lambda c: c["seed"]):
        if seed in done:
            raise ValidationError(f"the cells of seed {seed!r} are not contiguous")
        done.add(seed)
        group = list(group)
        labels = {}
        for cell in group:
            for split, m in cell.get("metrics", {}).items():
                if "labels" in m:
                    labels.setdefault(split, m["labels"])
        yield {"seed": seed, "labels": labels,
               "cells": [_cell_encoded(cell, labels) for cell in group]}


def _cell_encoded(cell: dict, labels: dict) -> dict:
    """`cell` as its v3 seed line holds it: each split's metrics encoded by
    _split_encoded against the line's `labels` of that split, and its curve
    as {key: [values]} in CURVE_COLUMNS order."""
    out = dict(cell)
    if "metrics" in cell:
        out["metrics"] = {split: _split_encoded(m, labels.get(split))
                          for split, m in cell["metrics"].items()}
    if "curve" in cell:
        curve = cell["curve"]
        try:
            columns = {key: [r[key] for r in curve] for key in CURVE_COLUMNS}
        except (KeyError, TypeError):
            columns = None
        # each record holds every column, so one with other keys is longer
        if columns is None or sum(map(len, curve)) != len(CURVE_COLUMNS) * len(curve):
            raise ValidationError(
                f"cell of {cell['strategy']}, seed {cell['seed']}: curve records "
                f"must have exactly the keys {sorted(_CURVE_KEYS)}")
        out["curve"] = columns
    return out


def _split_encoded(m: dict, line_labels) -> dict:
    """Split metrics `m` with its scores as the base64 text of their
    little-endian float64 bytes, and without its labels if they are
    `line_labels` or equal them as lists of ints, which encode alike."""
    out = {}
    for key, value in m.items():
        if key == "scores":
            value = base64.b64encode(np.asarray(value, "<f8").tobytes()).decode("ascii")
        elif key == "labels" and (value is line_labels or (
                value == line_labels and set(map(type, value)) <= {int}
                and set(map(type, line_labels)) <= {int})):
            continue
        out[key] = value
    return out


def _v3_cells(path, header: dict, rest: str) -> tuple[list, list]:
    """The cells of the v3 report at `path`, whose first line is `header`
    and whose seed lines are `rest`, decoded by _cell_decoded, and for each
    the place a ValidationError names: its line and its index in the report.
    The header must name the seeds of the lines, in their order."""
    where = f"report {path} line 1"
    if header.get("schema") != REPORT_SCHEMA:
        raise ValidationError(f"{where}: not a {REPORT_SCHEMA} header, schema "
                              f"{header.get('schema')!r}")
    missing = {"config_hash", "code_version", "seeds"} - header.keys()
    if missing:
        raise ValidationError(f"{where}: the header lacks {sorted(missing)}")
    seeds = header["seeds"]
    if not (isinstance(seeds, list) and all(map(_is_seed, seeds))
            and len(set(seeds)) == len(seeds)):
        raise ValidationError(f"{where}: seeds must be distinct non-negative "
                              f"integers, got {seeds!r}")
    cells, places = [], []
    lines = [(n, text) for n, text in enumerate(rest.split("\n"), start=2)
             if text.strip()]
    for k, (n, text) in enumerate(lines):
        where = f"report {path} line {n}"
        try:
            line = json.loads(text)
        except ValueError as exc:
            raise ValidationError(f"{where}: {exc}") from None
        if not (isinstance(line, dict) and {"seed", "labels", "cells"} <= line.keys()):
            raise ValidationError(f"{where}: a seed line needs seed, labels and cells")
        seed, labels = line["seed"], line["labels"]
        if k >= len(seeds) or not _is_seed(seed) or seed != seeds[k]:
            raise ValidationError(f"{where}: seed {seed!r} is not the next of the "
                                  f"header's seeds {seeds}")
        if not (isinstance(labels, dict)
                and all(isinstance(v, list) for v in labels.values())):
            raise ValidationError(f"{where}: labels must map splits to lists")
        if not isinstance(line["cells"], list):
            raise ValidationError(f"{where}: cells must be a list")
        for cell in line["cells"]:
            places.append(f"{where} cell {len(cells)}")
            cells.append(_cell_decoded(cell, seed, labels, places[-1]))
    if len(lines) < len(seeds):
        raise ValidationError(f"report {path} lacks the lines of seeds "
                              f"{seeds[len(lines):]}")
    return cells, places


def _cell_decoded(cell, seed: int, labels: dict, where: str):
    """A v3 `cell` of the line of `seed` in run_seed's form: its curve as
    records, and each split's metrics decoded by _split_decoded with the
    line's `labels` of that split. Anything but a mapping is returned as it
    is, for _check_cell_keys to reject."""
    if not isinstance(cell, dict):
        return cell
    if cell.get("seed", seed) != seed:
        raise ValidationError(f"{where}: seed {cell['seed']!r} is not its line's "
                              f"seed {seed}")
    if "curve" in cell:
        cell["curve"] = _curve_records(cell["curve"], where)
    metrics = cell.get("metrics")
    if isinstance(metrics, dict):
        cell["metrics"] = {
            split: _split_decoded(m, labels.get(split), f"{where} split {split!r}")
            if isinstance(m, dict) else m for split, m in metrics.items()}
    return cell


def _curve_records(columns, where: str) -> list:
    """A v3 curve, {key: [values]}, as the list of records run_seed gives.
    Every record has the column keys, so they are checked once here, not
    per record as a v2 or v1 curve's are."""
    if not (isinstance(columns, dict)
            and all(isinstance(v, list) for v in columns.values())):
        raise ValidationError(f"{where}: curve must map keys to lists of values")
    if len({len(v) for v in columns.values()}) > 1:
        raise ValidationError(f"{where}: curve columns differ in length")
    # the columns are of one length, so any nonempty one means records
    if any(columns.values()) and not _CURVE_KEYS <= columns.keys():
        raise _curve_keys_error(where)
    keys = list(columns)
    return [dict(zip(keys, row)) for row in zip(*columns.values())]


def _split_decoded(m: dict, labels, where: str) -> dict:
    """v3 split metrics `m` with its scores decoded by _scores_decoded and,
    if it has no labels, `labels`, its seed line's, after them."""
    out = {}
    for key, value in m.items():
        out[key] = value
        if key == "scores":
            out[key] = _scores_decoded(value, where)
            if "labels" not in m:
                if labels is None:
                    raise ValidationError(
                        f"{where} has no labels, and neither has its seed line")
                out["labels"] = labels
    return out


def _scores_decoded(text, where: str) -> list:
    """Base64 text of little-endian float64 bytes as a list of floats."""
    if not isinstance(text, str):
        raise ValidationError(f"{where}: scores must be base64 text")
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError as exc:   # binascii.Error, or a non-ASCII character
        raise ValidationError(f"{where}: scores are not base64: {exc}") from None
    if len(raw) % 8:
        raise ValidationError(f"{where}: scores hold {len(raw)} bytes, not a "
                              "whole number of float64s")
    return np.frombuffer(raw, "<f8").tolist()


def _renamed(cell: dict, old: str, new: str, value) -> dict:
    """`cell` with the key `old` replaced, in its place, by `new`: `value`."""
    return {(new if k == old else k): (value if k == old else v)
            for k, v in cell.items()}


def _cells_written(cells):
    """`cells` as write writes them, before _cell_encoded: an ok cell whose
    metrics encode to the same JSON as those of an earlier ok cell of its
    seed holds that cell's index as "metrics_from" in place of "metrics".
    Split dicts whose values are the same objects, in the same key order, as
    run_seed and _metrics_restored share them, encode alike. Other metrics
    are tested for equality first, so only a repeat is encoded, and then by
    their encoding, so that no 0.0 stands in for a -0.0 or 1 for 1.0."""
    earlier = {}  # seed -> [(index, metrics)] of the ok cells written in full
    for i, cell in enumerate(cells):
        if cell["status"] == "ok":
            metrics = cell["metrics"]
            same = earlier.setdefault(cell["seed"], [])
            j = next((j for j, m in same if _shares_values(m, metrics)
                      or (m == metrics and json.dumps(m) == json.dumps(metrics))),
                     None)
            if j is not None:
                yield _renamed(cell, "metrics", "metrics_from", j)
                continue
            same.append((i, metrics))
        yield cell


def _shares_values(a: dict, b: dict) -> bool:
    """Whether metrics `a` and `b` have the same splits and keys in the same
    order, with each value the same object in both."""
    return list(a) == list(b) and all(
        list(a[split]) == list(b[split])
        and all(v is b[split][k] for k, v in a[split].items()) for split in a)


def _metrics_restored(cells: list, i: int, where: str) -> dict:
    """Cell i with its "metrics_from" index replaced by "metrics": a copy of
    each split dict of that earlier ok cell of the same seed, sharing its
    score and label lists as run_seed's cells do."""
    cell, j = cells[i], cells[i]["metrics_from"]
    if "metrics" in cell:
        raise ValidationError(f"{where} has both metrics and metrics_from")
    if isinstance(j, bool) or not isinstance(j, int) or not 0 <= j < i:
        raise ValidationError(f"{where}: metrics_from must be the index of an "
                              f"earlier cell, got {j!r}")
    source = cells[j]
    if source["status"] != "ok" or source["seed"] != cell["seed"]:
        raise ValidationError(f"{where}: metrics_from {j} is not an ok cell of "
                              f"seed {cell['seed']!r}")
    return _renamed(cell, "metrics_from", "metrics",
                    {split: dict(m) for split, m in source["metrics"].items()})


def _move_v1_val(cell: dict) -> None:
    """Moves a v1 cell's metrics["val"] mapping to cell["val"], keeping its
    AUC and accuracy; any other "val" is left for _check_metrics to reject."""
    metrics = cell.get("metrics")
    if isinstance(metrics, dict) and isinstance(metrics.get("val"), dict):
        val = metrics.pop("val")
        cell["val"] = {k: val[k] for k in ("accuracy", "auc") if k in val}


def _check_cell_keys(cell, where: str) -> None:
    """Raises ValidationError unless `cell` is a mapping with the keys every
    cell has, a non-negative integer seed and a known strategy."""
    if not isinstance(cell, dict):
        raise ValidationError(f"{where} is not a mapping")
    missing = [key for key in ("strategy", "seed", "status") if key not in cell]
    if missing:
        raise ValidationError(f"{where} lacks {missing}")
    if not _is_seed(cell["seed"]):
        raise ValidationError(f"{where}: seed must be a non-negative integer, "
                              f"got {cell['seed']!r}")
    if cell["strategy"] not in STRATEGIES:
        raise ValidationError(f"{where}: strategy must be one of "
                              f"{list(STRATEGIES)}, got {cell['strategy']!r}")


def _check_curve(cell: dict, where: str) -> None:
    """Raises ValidationError unless the curve of the v2 or v1 `cell`, if
    it has one, is a list of records with the keys curves.tsv reads."""
    curve = cell.get("curve", [])
    if not (isinstance(curve, list) and all(
            isinstance(r, dict) and _CURVE_KEYS <= r.keys() for r in curve)):
        raise _curve_keys_error(where)


def _curve_keys_error(where: str) -> ValidationError:
    return ValidationError(f"{where}: curve must be a list of records "
                           f"with keys {sorted(_CURVE_KEYS)}")


def _check_metrics(cell: dict, where: str) -> None:
    """Raises ValidationError unless the ok `cell` has a metrics mapping of
    split mappings, with score and label lists of equal length for each
    split emit_plot_data reads, and the numbers summary() reads: AUC and
    accuracy of "val" and of each paired split, and the slide AUC if there
    is one. Only lengths are checked, so the cost does not grow with the
    scores."""
    metrics = cell.get("metrics")
    if not (isinstance(metrics, dict)
            and all(isinstance(m, dict) for m in metrics.values())):
        raise ValidationError(f"{where}: an ok cell needs a metrics mapping "
                              "of split mappings")
    for split in roc_splits(metrics):
        m = metrics.get(split)
        if not (isinstance(m, dict) and isinstance(m.get("scores"), list)
                and isinstance(m.get("labels"), list)
                and len(m["scores"]) == len(m["labels"])):
            raise ValidationError(f"{where}: metrics {split!r} needs scores and "
                                  "labels lists of equal length")
    summarised = [("val", cell.get("val"), _SUMMARY_KEYS)]
    summarised += [(f"metrics {split!r}", metrics[split], _SUMMARY_KEYS)
                   for split in PAIRED_SPLITS]
    if "slide" in metrics:
        summarised.append(("metrics 'slide'", metrics["slide"], ("auc",)))
    for name, m, keys in summarised:
        if not (isinstance(m, dict) and all(
                type(m.get(key)) in (int, float) for key in keys)):
            raise ValidationError(f"{where}: {name} needs a numeric "
                                  f"{' and '.join(keys)}")


def _write_json_lines(path, docs) -> None:
    """Writes each of `docs`, any iterable, as one line of compact JSON
    with the C encoder, replacing `path` only once every line is written."""
    with replacing(path) as (f,):
        for doc in docs:
            f.write(json.dumps(doc, separators=COMPACT))
            f.write("\n")
