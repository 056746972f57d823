"""Experiment runner: pretrain on a source task, fine-tune with the baseline
and both curriculum stages, evaluate in-domain / out-of-domain / slide-level,
and emit machine-readable reports. Also hosts the alpha ablation sweep.

For a given seed all strategies share the same pretrained parameters and the
same epoch shuffles, so metric differences are attributable to the update
rule alone.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import hashlib
import json
import os
import time
from dataclasses import dataclass, field, replace

import numpy as np
import yaml

from . import __version__, curriculum, data, metrics, numcore, slidelevel
from .exceptions import NumericError, ValidationError

REPORT_SCHEMA = "hadcl.run_report.v1"
STRATEGIES = ("baseline", "curriculum1", "curriculum2")

# draw-seed offsets keep the per-seed splits disjoint
_VAL_OFFSET = 9000
_TEST_OFFSET = 7000
_SLIDE_TEST_OFFSET = 5000


@dataclass(frozen=True)
class EvalConfig:
    test_per_class: int = 500
    val_per_class: int = 250

    def __post_init__(self):
        # DeLong needs at least two scores per class
        if self.test_per_class < 2 or self.val_per_class < 2:
            raise ValidationError("test_per_class and val_per_class must be >= 2")


@dataclass(frozen=True)
class ModelConfig:
    hidden: int

    def __post_init__(self):
        if self.hidden < 1:
            raise ValidationError("hidden must be >= 1")


@dataclass(frozen=True)
class ExperimentConfig:
    seeds: tuple
    output_dir: str
    hidden: int
    source: data.BlobTaskSpec
    target: data.BlobTaskSpec
    shift: data.DomainShiftSpec
    pretrain: curriculum.TrainConfig
    baseline: curriculum.TrainConfig
    curriculum1: curriculum.CurriculumTrainConfig
    curriculum2: curriculum.CurriculumTrainConfig
    eval: EvalConfig = EvalConfig()
    slides: data.SlideSpec | None = None
    strategies: tuple = STRATEGIES
    config_hash: str = ""

    def __post_init__(self):
        if not self.seeds:
            raise ValidationError("seed list must be nonempty")
        if any(isinstance(s, bool) or not isinstance(s, int) or s < 0
               for s in self.seeds):
            raise ValidationError(
                f"seeds must be non-negative integers, got {list(self.seeds)}")
        if not isinstance(self.output_dir, str):
            raise ValidationError(
                f"output_dir must be a string, got {self.output_dir!r}")
        unknown = [s for s in self.strategies if s not in STRATEGIES]
        if unknown:
            raise ValidationError(f"unknown strategies {unknown}")
        for key in ("seeds", "strategies"):
            values = getattr(self, key)
            if len(set(values)) != len(values):
                raise ValidationError(f"duplicate {key} in {list(values)}")
        if self.source.dim != self.target.dim:
            raise ValidationError("source and target feature dims must match")
        if self.target.n_classes != 2:
            raise ValidationError("AUC evaluation requires a binary target task")
        if "curriculum2" in self.strategies and "curriculum1" not in self.strategies:
            raise ValidationError("curriculum2 requires curriculum1 (it starts "
                                  "from the stage-1 parameters)")
        # each section checks its own values; its batch must also fit the
        # training set it runs on, or the loop would have no full batch
        for name in ("pretrain", "baseline", "curriculum1", "curriculum2"):
            spec = self.source if name == "pretrain" else self.target
            n = spec.per_class * spec.n_classes
            batch_size = getattr(self, name).batch_size
            if batch_size > n:
                raise ValidationError(f"{name}: batch_size {batch_size} exceeds "
                                      f"{n}, the size of its training set")


def config_from_dict(d: dict, config_hash: str = "") -> ExperimentConfig:
    target = _section(d, "target", data.BlobTaskSpec)
    slides = None
    if d.get("slides"):
        # patch features share the target task's class geometry
        slides = _section(d, "slides", data.SlideSpec, patch_spec=replace(
            target, hard_fraction=0.0, noise_fraction=0.0))

    return ExperimentConfig(
        seeds=_list(d, "seeds"),
        output_dir=d.get("output_dir", "runs"),
        hidden=_section(d, "model", ModelConfig).hidden,
        source=_section(d, "source", data.BlobTaskSpec),
        target=target,
        shift=_section(d, "shift", data.DomainShiftSpec, default={}),
        pretrain=_section(d, "pretrain", curriculum.TrainConfig),
        baseline=_section(d, "baseline", curriculum.TrainConfig),
        curriculum1=_section(d, "curriculum1", curriculum.CurriculumTrainConfig),
        curriculum2=_section(d, "curriculum2", curriculum.CurriculumTrainConfig),
        eval=_section(d, "eval", EvalConfig, default={}),
        slides=slides,
        strategies=_list(d, "strategies", default=STRATEGIES),
        config_hash=config_hash,
    )


_NUMBER_TYPES = {"int": (int,), "float": (int, float)}


def _section(d: dict, name: str, cls, default=None, **extra):
    """`cls` built from the mapping d[name]; a missing section, an unknown
    key, a value of the wrong numeric type or one `cls` rejects is a
    ValidationError that names the section."""
    section = d.get(name, default)
    if not isinstance(section, dict):
        raise ValidationError(f"config section {name!r} is missing or not a mapping")
    try:
        for f in dataclasses.fields(cls):
            kind = getattr(f.type, "__name__", f.type)
            types = _NUMBER_TYPES.get(kind)
            value = section.get(f.name, 0)  # a missing key is cls's to judge
            if types and (isinstance(value, bool) or not isinstance(value, types)):
                raise ValidationError(f"{f.name} must be {kind}, got {value!r}")
        return cls(**dict(section, **extra))
    except (TypeError, ValidationError) as exc:
        raise ValidationError(f"config section {name!r}: {exc}") from None


def _list(d: dict, key: str, default=None) -> tuple:
    value = d.get(key, default)
    if not isinstance(value, (list, tuple)):
        raise ValidationError(f"{key} must be a list, got {value!r}")
    return tuple(value)


def load_config(path) -> ExperimentConfig:
    """The config at `path`; raises ValidationError on any structural or
    value problem, including a file that cannot be read or is not YAML. Its
    config_hash is the sha256 of the file's bytes."""
    try:
        with open(path, "rb") as f:
            raw = f.read()
        d = yaml.safe_load(raw)
    except (OSError, yaml.YAMLError) as exc:
        raise ValidationError(f"cannot read config {path}: {exc}") from None
    if not isinstance(d, dict):
        raise ValidationError("config file must contain a mapping")
    return config_from_dict(d, config_hash=hashlib.sha256(raw).hexdigest())


def positive_probs(model: numcore.MlpModel, features) -> np.ndarray:
    logits = numcore.forward(model, features)
    return numcore.softmax(logits)[:, 1]


def _build_datasets(config: ExperimentConfig, seed: int):
    source_train = data.generate_blobs(replace(config.source, draw_seed=seed))
    target_train = data.generate_blobs(replace(config.target, draw_seed=seed))
    clean = replace(config.target, noise_fraction=0.0)
    val = data.generate_blobs(replace(
        clean, per_class=config.eval.val_per_class, draw_seed=seed + _VAL_OFFSET))
    test = data.generate_blobs(replace(
        clean, per_class=config.eval.test_per_class, draw_seed=seed + _TEST_OFFSET))
    test_ood = data.apply_domain_shift(
        test, replace(config.shift, seed=config.shift.seed + seed))
    return source_train, target_train, val, test, test_ood


def _evaluate(model, val, test, test_ood) -> dict:
    out = {}
    for name, ds in (("val", val), ("in_domain", test), ("ood", test_ood)):
        probs = positive_probs(model, ds.features)
        est = metrics.delong_ci(metrics.ScoredOutcomes(probs, ds.labels))
        out[name] = {
            "accuracy": metrics.accuracy((probs > 0.5).astype(int), ds.labels),
            "auc": est.auc, "auc_variance": est.variance, "ci95": list(est.ci95),
            "scores": probs.tolist(), "labels": ds.labels.tolist(),
        }
    return out


def _slide_features(model, slides, spec: data.SlideSpec):
    feats, labels = [], []
    for slide in slides:
        probs = positive_probs(model, slide.features)
        grid = slidelevel.SlideGrid(probs.reshape(spec.height, spec.width))
        feats.append(slidelevel.extract_features(grid))
        labels.append(slide.label)
    return np.array(feats), np.array(labels)


def _slide_cohorts(spec: data.SlideSpec, seed: int):
    """The (train, test) slide cohorts of a seed, shared by every strategy."""
    return (data.generate_slides(replace(spec, draw_seed=seed)),
            data.generate_slides(replace(spec, draw_seed=seed + _SLIDE_TEST_OFFSET)))


def _evaluate_slides(model, spec: data.SlideSpec, train, test) -> dict:
    f_train, y_train = _slide_features(model, train, spec)
    f_test, y_test = _slide_features(model, test, spec)
    clf = slidelevel.train_slide_classifier(f_train, y_train)
    scores = clf.predict(f_test)
    est = metrics.delong_ci(metrics.ScoredOutcomes(scores, y_test))
    return {"auc": est.auc, "auc_variance": est.variance, "ci95": list(est.ci95),
            "scores": scores.tolist(), "labels": y_test.tolist()}


def run_seed(config: ExperimentConfig, seed: int) -> list[dict]:
    """All requested strategies for one seed; one report cell per strategy."""
    source_train, target_train, val, test, test_ood = _build_datasets(config, seed)

    model0 = numcore.init_model(config.target.dim, config.hidden,
                                config.target.n_classes, seed=1000 + seed)
    if config.pretrain.epochs > 0:
        pretrained, _ = curriculum.finetune_plain(
            model0, source_train.features, source_train.labels,
            config.pretrain, seed=2000 + seed)
    else:
        pretrained = model0

    ft_seed = 3000 + seed  # shared by baseline and curriculum1: identical shuffles
    # Stage 2 is a short refinement of theta_1: its parameters are kept only
    # at the epoch with the best validation score, with theta_1 itself as
    # the fallback candidate. Baseline and stage 1 train for their fixed
    # budget so their trajectories stay directly comparable.
    select_set = (val.features, val.labels)
    cells = []
    theta1 = None
    cohorts = None  # slide cohorts, generated when first needed
    # curriculum2 starts from curriculum1's result, so run in STRATEGIES order
    for strategy in [s for s in STRATEGIES if s in config.strategies]:
        start = time.perf_counter()
        cell = {"strategy": strategy, "seed": seed, "status": "ok"}
        try:
            if strategy == "baseline":
                model, report = curriculum.finetune_plain(
                    pretrained, target_train.features, target_train.labels,
                    config.baseline, seed=ft_seed)
            elif strategy == "curriculum1":
                model, report = curriculum.run_stage(
                    pretrained, target_train.features, target_train.labels,
                    config.curriculum1, curriculum.decide_update_stage1,
                    seed=ft_seed)
                theta1 = model
            else:
                if theta1 is None:
                    stage1 = next(c for c in cells if c["strategy"] == "curriculum1")
                    raise ValidationError(
                        "curriculum2 starts from the curriculum1 parameters, "
                        f"but curriculum1 failed: {stage1['error']}")
                model, report = curriculum.run_stage(
                    theta1, target_train.features, target_train.labels,
                    config.curriculum2, curriculum.decide_update_stage2,
                    seed=4000 + seed, select_set=select_set)
            cell["metrics"] = _evaluate(model, val, test, test_ood)
            if config.slides is not None:
                cohorts = cohorts or _slide_cohorts(config.slides, seed)
                cell["metrics"]["slide"] = _evaluate_slides(
                    model, config.slides, *cohorts)
            cell["curve"] = [dataclasses.asdict(r) for r in report.records]
            cell["best_epoch"] = report.best_epoch
        except (NumericError, ValidationError) as exc:
            cell["status"] = "failed"
            cell["error"] = str(exc)
        cell["wall_clock"] = time.perf_counter() - start
        cells.append(cell)

    # paired DeLong significance versus the baseline of the same seed
    by_strategy = {c["strategy"]: c for c in cells}
    base = by_strategy.get("baseline")
    if base is not None and base["status"] == "ok":
        for strategy, cell in by_strategy.items():
            if strategy == "baseline" or cell["status"] != "ok":
                continue
            for split in ("in_domain", "ood"):
                a = cell["metrics"][split]
                b = base["metrics"][split]
                cell["metrics"][split]["p_vs_baseline"] = metrics.delong_paired_test(
                    metrics.ScoredOutcomes(np.array(a["scores"]), np.array(a["labels"])),
                    metrics.ScoredOutcomes(np.array(b["scores"]), np.array(b["labels"])))
    return cells


@dataclass
class RunReport:
    config_hash: str
    cells: list = field(default_factory=list)
    schema: str = REPORT_SCHEMA
    code_version: str = __version__

    @property
    def all_ok(self) -> bool:
        return all(c["status"] == "ok" for c in self.cells)

    def summary(self) -> dict:
        """Median metrics per strategy over the ok cells."""
        out = {}
        for strategy in STRATEGIES:
            cells = [c for c in self.cells
                     if c["strategy"] == strategy and c["status"] == "ok"]
            if not cells:
                continue
            entry = {}
            for split in ("val", "in_domain", "ood"):
                entry[f"median_auc_{split}"] = float(np.median(
                    [c["metrics"][split]["auc"] for c in cells]))
                entry[f"median_accuracy_{split}"] = float(np.median(
                    [c["metrics"][split]["accuracy"] for c in cells]))
            if all("slide" in c["metrics"] for c in cells):
                entry["median_auc_slide"] = float(np.median(
                    [c["metrics"]["slide"]["auc"] for c in cells]))
            out[strategy] = entry
        return out

    def to_json(self, path) -> None:
        write_json(path, {"schema": self.schema, "config_hash": self.config_hash,
                          "code_version": self.code_version,
                          "summary": self.summary(), "cells": self.cells},
                   stream="cells")

    @classmethod
    def from_json(cls, path) -> "RunReport":
        """The report at `path`, in any JSON layout; raises ValidationError
        for a file that cannot be read, is not JSON, lacks the schema or a
        required key, or holds a cell that emit_plot_data cannot read."""
        try:
            with open(path) as f:
                doc = json.load(f)
        except (OSError, ValueError) as exc:
            raise ValidationError(f"cannot read report {path}: {exc}") from None
        schema = doc.get("schema") if isinstance(doc, dict) else None
        if schema != REPORT_SCHEMA:
            raise ValidationError(f"unknown report schema {schema!r}")
        missing = {"config_hash", "cells", "code_version"} - set(doc)
        if missing:
            raise ValidationError(f"report {path} lacks {sorted(missing)}")
        if not isinstance(doc["cells"], list):
            raise ValidationError(f"report {path}: cells must be a list")
        for i, cell in enumerate(doc["cells"]):
            _check_cell(cell, f"report {path} cell {i}")
        return cls(config_hash=doc["config_hash"], cells=doc["cells"],
                   code_version=doc["code_version"])


def _check_cell(cell, where: str) -> None:
    """Raises ValidationError unless `cell` has the keys every cell has, its
    curve records the keys curves.tsv reads and, if ok, score and label lists
    of equal length for each split it reports. Only lengths are checked, so
    the cost does not grow with the scores."""
    if not isinstance(cell, dict):
        raise ValidationError(f"{where} is not a mapping")
    missing = [key for key in ("strategy", "seed", "status") if key not in cell]
    if missing:
        raise ValidationError(f"{where} lacks {missing}")
    curve = cell.get("curve", [])
    if not (isinstance(curve, list) and all(
            isinstance(r, dict) and _CURVE_KEYS <= r.keys() for r in curve)):
        raise ValidationError(f"{where}: curve must be a list of records "
                              f"with keys {sorted(_CURVE_KEYS)}")
    if cell["status"] != "ok":
        return
    metrics = cell.get("metrics")
    if not isinstance(metrics, dict):
        raise ValidationError(f"{where}: an ok cell needs a metrics mapping")
    for split in _roc_splits(metrics):
        m = metrics.get(split)
        if not (isinstance(m, dict) and isinstance(m.get("scores"), list)
                and isinstance(m.get("labels"), list)
                and len(m["scores"]) == len(m["labels"])):
            raise ValidationError(f"{where}: metrics {split!r} needs scores and "
                                  "labels lists of equal length")


_COMPACT = (",", ":")


def write_json(path, doc: dict, stream: str) -> None:
    """Writes `doc` as compact JSON with the C encoder. The list doc[stream]
    is encoded and written one item at a time, so the whole document is
    never held as one string."""
    with open(path, "w") as f:
        f.write("{")
        for i, (key, value) in enumerate(doc.items()):
            f.write(("," if i else "") + json.dumps(key) + ":")
            if key != stream:
                f.write(json.dumps(value, separators=_COMPACT))
                continue
            f.write("[")
            for j, item in enumerate(value):
                f.write(("," if j else "") + json.dumps(item, separators=_COMPACT))
            f.write("]")
        f.write("}")


def make_output_dir(path) -> None:
    """Creates the directory `path` and its parents if missing; a path that
    is a file, or any other reason it cannot be made, is a ValidationError."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ValidationError(
            f"cannot use {path} as the output directory: {exc}") from None


def run_experiment(config: ExperimentConfig, workers: int = 1) -> RunReport:
    report = RunReport(config_hash=config.config_hash)
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(run_seed, config, s) for s in config.seeds]
            for fut in futures:
                report.cells.extend(fut.result())
    else:
        for seed in config.seeds:
            report.cells.extend(run_seed(config, seed))
    return report


def run_ablation_alpha(config: ExperimentConfig, alpha_grid,
                       workers: int = 1) -> dict:
    """One curriculum-1 run per alpha; summarized by median validation metrics."""
    # every alpha's config is built first, so a bad grid fails before training
    configs = [replace(config, curriculum1=replace(config.curriculum1, alpha=alpha),
                       strategies=("curriculum1",)) for alpha in alpha_grid]
    sweep = {"schema": "hadcl.alpha_sweep.v1", "config_hash": config.config_hash,
             "entries": []}
    for cfg in configs:
        report = run_experiment(cfg, workers=workers)
        ok = [c for c in report.cells if c["status"] == "ok"]
        entry = {"alpha": cfg.curriculum1.alpha, "all_ok": report.all_ok,
                 "median_val_accuracy": float(np.median(
                     [c["metrics"]["val"]["accuracy"] for c in ok])) if ok else None,
                 "median_val_auc": float(np.median(
                     [c["metrics"]["val"]["auc"] for c in ok])) if ok else None,
                 "cells": report.cells}
        sweep["entries"].append(entry)
    return sweep


def roc_points(scores, labels):
    """ROC curve as (threshold, fpr, tpr) rows, thresholds descending.

    The thresholds are the distinct scores; a sample counts as predicted
    positive at a threshold when its score is >= it. Labels other than 0 and
    1 give thresholds but count as neither class, and an empty class divides
    by 1, so its rate stays 0.0."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos = np.sort(scores[labels == 1])
    neg = np.sort(scores[labels == 0])
    # the first occurrence of each distinct score, as set() would keep it
    _, first = np.unique(scores, return_index=True)
    thresholds = scores[first][::-1]
    # samples with a score >= t: the class size minus those sorted below t
    tp = len(pos) - np.searchsorted(pos, thresholds, side="left")
    fp = len(neg) - np.searchsorted(neg, thresholds, side="left")
    tpr = tp / max(len(pos), 1)
    fpr = fp / max(len(neg), 1)
    return list(zip(thresholds.tolist(), fpr.tolist(), tpr.tolist()))


def _roc_splits(metrics: dict) -> tuple:
    """The splits of a cell's metrics that get ROC points."""
    return ("in_domain", "ood", "slide") if "slide" in metrics else ("in_domain", "ood")


CURVES_HEADER = "strategy\tseed\tepoch\tt\tthres\tk\tk_prime\tbranch\tmean_loss\tlr\n"
ROC_HEADER = "strategy\tseed\tsplit\tthreshold\tfpr\ttpr\n"
# the keys of a curve record, in the columns after strategy and seed
_CURVE_KEYS = frozenset(CURVES_HEADER.split()[2:])


def emit_plot_data(report: RunReport, outdir) -> dict:
    """Write per-iteration curves and ROC points as TSV; byte-stable."""
    make_output_dir(outdir)
    curves_path = os.path.join(outdir, "curves.tsv")
    roc_path = os.path.join(outdir, "roc.tsv")
    with open(curves_path, "w") as f:
        f.write(CURVES_HEADER)
        for cell in report.cells:
            for r in cell.get("curve", []):
                f.write(f"{cell['strategy']}\t{cell['seed']}\t{r['epoch']}\t{r['t']}"
                        f"\t{r['thres']!r}\t{r['k']}\t{r['k_prime']}\t{r['branch']}"
                        f"\t{r['mean_loss']!r}\t{r['lr']!r}\n")
    with open(roc_path, "w") as f:
        f.write(ROC_HEADER)
        for cell in report.cells:
            if cell["status"] != "ok":
                continue
            for split in _roc_splits(cell["metrics"]):
                m = cell["metrics"][split]
                for thr, fpr, tpr in roc_points(m["scores"], m["labels"]):
                    f.write(f"{cell['strategy']}\t{cell['seed']}\t{split}"
                            f"\t{thr!r}\t{fpr!r}\t{tpr!r}\n")
    return {"curves": curves_path, "roc": roc_path}
