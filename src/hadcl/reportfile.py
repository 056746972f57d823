"""report.json on disk, schema hadcl.run_report.v3, JSON lines: `write`
writes it, and `read` reads it and checks every cell it returns; no other
schema is read. Also the names a report's cells are built from, which the
harness shares: the strategies, the paired and ROC splits and the curve
columns, and `replacing`, which every output file is written through."""

from __future__ import annotations

import base64
import contextlib
import dataclasses
import itertools
import json
import os

import numpy as np

from .curriculum import IterationRecord
from .exceptions import ValidationError

REPORT_SCHEMA = "hadcl.run_report.v3"
STRATEGIES = ("baseline", "curriculum1", "curriculum2")
# the test splits that get a paired DeLong test against the baseline
PAIRED_SPLITS = ("in_domain", "ood")
# what RunReport.summary() reads of "val" and of each paired split
_SUMMARY_KEYS = ("accuracy", "auc")
# the keys of a curve record, which curves.tsv writes after strategy and
# seed: IterationRecord's fields, in order
CURVE_COLUMNS = tuple(f.name for f in dataclasses.fields(IterationRecord))
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
    the seeds in cell order, then one line per seed, as _seed_line builds it
    from that seed's cells. No summary is written. Raises ValidationError,
    leaving `path` as it was, if the cells of a seed are not contiguous, which
    is checked before anything is written, or a curve record's keys are not
    CURVE_COLUMNS."""
    groups = {}  # seed -> its cells, in cell order
    for seed, group in itertools.groupby(cells, key=lambda c: c["seed"]):
        if seed in groups:
            raise ValidationError(f"the cells of seed {seed!r} are not contiguous")
        groups[seed] = list(group)
    header = {"schema": REPORT_SCHEMA, "config_hash": config_hash,
              "code_version": code_version, "seeds": list(groups)}
    with replacing(path) as (f,):
        f.write(json.dumps(header, separators=COMPACT) + "\n")
        start = 0
        for group in groups.values():
            f.write(json.dumps(_seed_line(group, start), separators=COMPACT) + "\n")
            start += len(group)


def read(path) -> tuple[str, str, list]:
    """The config hash, code version and cells of the v3 report at `path`;
    the cells as run_experiment returned them. A cell's scores become lists
    of floats, its curve a list of records, and a split without labels gets
    its seed line's. A "metrics_from" index becomes a copy of the named
    cell's split dicts. Raises ValidationError, naming the line and cell
    where it can, for a file that cannot be read, is not JSON, is JSON of
    another schema (an "unknown report schema" error names it), lacks a
    required key, or holds a cell without a known strategy, a
    non-negative integer seed, the keys, curve columns and equal-length score
    and label lists that emit_plot_data reads, or the numbers summary()
    reads. The score and label values themselves are checked where
    emit_plot_data converts them."""
    try:
        with open(path) as f:
            text = f.read()
    except (OSError, ValueError) as exc:
        raise ValidationError(f"cannot read report {path}: {exc}") from None
    first, _, rest = text.partition("\n")
    try:  # a v3 header, or a whole one-line document of another schema
        doc = json.loads(first)
    except ValueError:
        doc = None
    if not (isinstance(doc, dict) and (doc.get("schema") == REPORT_SCHEMA
                                       or rest.strip())):
        try:  # a JSON document in any layout, of another schema
            doc = json.loads(text)
        except ValueError as exc:
            raise ValidationError(f"cannot read report {path}: {exc}") from None
        schema = doc.get("schema") if isinstance(doc, dict) else None
        raise ValidationError(f"report {path}: unknown report schema {schema!r}")
    cells, places = _v3_cells(path, doc, rest)
    for i, where in enumerate(places):
        cell = cells[i]
        _check_cell_keys(cell, where)
        if cell["status"] != "ok":
            continue
        if "metrics_from" in cell:
            cells[i] = cell = _metrics_restored(cells, i, where)
        _check_metrics(cell, where)
    return doc["config_hash"], doc["code_version"], cells


def _is_seed(value) -> bool:
    """Whether `value` is a non-negative int; a bool is not one."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _seed_line(cells: list, start: int) -> dict:
    """The v3 line of one seed's `cells`, the first of which is report cell
    `start`: the seed, each split's labels as the first cell written with
    that split's metrics has them, and the cells encoded by _cell_encoded.
    An ok cell whose metrics repeat those of an earlier ok cell holds that
    cell's report index as "metrics_from" instead of "metrics". Split dicts
    holding the same objects in the same key order, as run_seed and
    _metrics_restored share them, are a repeat; other metrics are compared
    with == and then by their JSON, so that no 0.0 stands in for a -0.0 or
    1 for 1.0."""
    earlier = []  # (index, metrics) of the ok cells written in full
    written, labels = [], {}
    for i, cell in enumerate(cells, start):
        if cell["status"] == "ok":
            metrics = cell["metrics"]
            j = next((j for j, m in earlier if _shares_values(m, metrics)
                      or (m == metrics and json.dumps(m) == json.dumps(metrics))),
                     None)
            if j is None:
                earlier.append((i, metrics))
            else:
                cell = _renamed(cell, "metrics", "metrics_from", j)
        written.append(cell)
        for split, m in cell.get("metrics", {}).items():
            if "labels" in m:
                labels.setdefault(split, m["labels"])
    return {"seed": cells[0]["seed"], "labels": labels,
            "cells": [_cell_encoded(cell, labels) for cell in written]}


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
    Every record has the column keys, so they are checked once, here."""
    if not (isinstance(columns, dict)
            and all(isinstance(v, list) for v in columns.values())):
        raise ValidationError(f"{where}: curve must map keys to lists of values")
    if len({len(v) for v in columns.values()}) > 1:
        raise ValidationError(f"{where}: curve columns differ in length")
    # the columns are of one length, so any nonempty one means records
    if any(columns.values()) and not _CURVE_KEYS <= columns.keys():
        raise ValidationError(f"{where}: curve must be a list of records "
                              f"with keys {sorted(_CURVE_KEYS)}")
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

