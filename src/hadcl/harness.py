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
class PlainTrainConfig:
    epochs: int
    lr: float
    milestones: tuple = ()
    gamma: float = 0.1
    batch_size: int = 64


@dataclass(frozen=True)
class CurriculumTrainConfig(PlainTrainConfig):
    alpha: float = 0.10
    a: float = 0.7
    b: float = 0.2


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
    pretrain: PlainTrainConfig
    baseline: PlainTrainConfig
    curriculum1: CurriculumTrainConfig
    curriculum2: CurriculumTrainConfig
    eval: EvalConfig = EvalConfig()
    slides: data.SlideSpec | None = None
    strategies: tuple = STRATEGIES
    config_hash: str = ""

    def __post_init__(self):
        if not self.seeds:
            raise ValidationError("seed list must be nonempty")
        for key in ("seeds", "strategies"):
            values = getattr(self, key)
            if len(set(values)) != len(values):
                raise ValidationError(f"duplicate {key} in {list(values)}")
        if self.source.dim != self.target.dim:
            raise ValidationError("source and target feature dims must match")
        if self.target.n_classes != 2:
            raise ValidationError("AUC evaluation requires a binary target task")
        unknown = set(self.strategies) - set(STRATEGIES)
        if unknown:
            raise ValidationError(f"unknown strategies {sorted(unknown)}")
        if "curriculum2" in self.strategies and "curriculum1" not in self.strategies:
            raise ValidationError("curriculum2 requires curriculum1 (it starts "
                                  "from the stage-1 parameters)")
        # build what run_seed builds, so a bad value fails here, not in a cell
        for name in ("pretrain", "baseline", "curriculum1", "curriculum2"):
            tc = getattr(self, name)
            spec = self.source if name == "pretrain" else self.target
            n = spec.per_class * spec.n_classes
            try:
                _lr_schedule(tc)
                if isinstance(tc, CurriculumTrainConfig):
                    _curriculum_config(tc)
                if tc.epochs < 0 or not 1 <= tc.batch_size <= n:
                    raise ValidationError(
                        f"need epochs >= 0 and batch_size in [1, {n}], the "
                        f"size of its training set; got {tc.epochs}, {tc.batch_size}")
            except ValidationError as exc:
                raise ValidationError(f"{name}: {exc}") from None


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
        pretrain=_section(d, "pretrain", PlainTrainConfig),
        baseline=_section(d, "baseline", PlainTrainConfig),
        curriculum1=_section(d, "curriculum1", CurriculumTrainConfig),
        curriculum2=_section(d, "curriculum2", CurriculumTrainConfig),
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
        section = dict(section, **extra)
        if "milestones" in section:
            section["milestones"] = tuple(section["milestones"])
        return cls(**section)
    except (TypeError, ValidationError) as exc:
        raise ValidationError(f"config section {name!r}: {exc}") from None


def _list(d: dict, key: str, default=None) -> tuple:
    value = d.get(key, default)
    if not isinstance(value, (list, tuple)):
        raise ValidationError(f"{key} must be a list, got {value!r}")
    return tuple(value)


def load_config(path) -> ExperimentConfig:
    """The config at `path`; raises ValidationError on any structural or
    value problem. Its config_hash is the sha256 of the file's bytes."""
    with open(path, "rb") as f:
        raw = f.read()
    d = yaml.safe_load(raw)
    if not isinstance(d, dict):
        raise ValidationError("config file must contain a mapping")
    return config_from_dict(d, config_hash=hashlib.sha256(raw).hexdigest())


def _lr_schedule(tc) -> numcore.LrSchedule:
    return numcore.LrSchedule(base=tc.lr, milestones=tc.milestones, gamma=tc.gamma)


def _curriculum_config(tc: CurriculumTrainConfig) -> curriculum.CurriculumConfig:
    sched = curriculum.ThresholdSchedule(a=tc.a, b=tc.b)
    return curriculum.CurriculumConfig(alpha=tc.alpha, schedule=sched,
                                       epochs=tc.epochs, batch_size=tc.batch_size)


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
    scores = np.atleast_1d(clf.predict(f_test))
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
            epochs=config.pretrain.epochs, batch_size=config.pretrain.batch_size,
            lr_schedule=_lr_schedule(config.pretrain), seed=2000 + seed)
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
                tc = config.baseline
                model, report = curriculum.finetune_plain(
                    pretrained, target_train.features, target_train.labels,
                    epochs=tc.epochs, batch_size=tc.batch_size,
                    lr_schedule=_lr_schedule(tc), seed=ft_seed)
            elif strategy == "curriculum1":
                tc = config.curriculum1
                model, report = curriculum.run_stage(
                    pretrained, target_train.features, target_train.labels,
                    _curriculum_config(tc), curriculum.decide_update_stage1,
                    _lr_schedule(tc), seed=ft_seed)
                theta1 = model
            else:
                if theta1 is None:
                    stage1 = next(c for c in cells if c["strategy"] == "curriculum1")
                    raise ValidationError(
                        "curriculum2 starts from the curriculum1 parameters, "
                        f"but curriculum1 failed: {stage1['error']}")
                tc = config.curriculum2
                model, report = curriculum.run_stage(
                    theta1, target_train.features, target_train.labels,
                    _curriculum_config(tc), curriculum.decide_update_stage2,
                    _lr_schedule(tc), seed=4000 + seed, select_set=select_set)
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
        doc = {"schema": self.schema, "config_hash": self.config_hash,
               "code_version": self.code_version, "summary": self.summary(),
               "cells": self.cells}
        with open(path, "w") as f:
            json.dump(doc, f, indent=1)

    @classmethod
    def from_json(cls, path) -> "RunReport":
        with open(path) as f:
            doc = json.load(f)
        if doc.get("schema") != REPORT_SCHEMA:
            raise ValidationError(f"unknown report schema {doc.get('schema')!r}")
        return cls(config_hash=doc["config_hash"], cells=doc["cells"],
                   code_version=doc["code_version"])


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
    alpha_grid = list(alpha_grid)
    if any(not (0.0 < a <= 1.0) for a in alpha_grid):
        raise ValidationError("alpha grid must lie in (0, 1]")
    sweep = {"schema": "hadcl.alpha_sweep.v1", "config_hash": config.config_hash,
             "entries": []}
    for alpha in alpha_grid:
        cfg = replace(config,
                      curriculum1=replace(config.curriculum1, alpha=alpha),
                      strategies=("curriculum1",))
        report = run_experiment(cfg, workers=workers)
        ok = [c for c in report.cells if c["status"] == "ok"]
        entry = {"alpha": alpha, "all_ok": report.all_ok,
                 "median_val_accuracy": float(np.median(
                     [c["metrics"]["val"]["accuracy"] for c in ok])) if ok else None,
                 "median_val_auc": float(np.median(
                     [c["metrics"]["val"]["auc"] for c in ok])) if ok else None,
                 "cells": report.cells}
        sweep["entries"].append(entry)
    return sweep


def roc_points(scores, labels):
    """ROC curve as (threshold, fpr, tpr) rows, thresholds descending."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    n_pos = max(int((labels == 1).sum()), 1)
    n_neg = max(int((labels == 0).sum()), 1)
    rows = []
    for thr in sorted(set(scores.tolist()), reverse=True):
        pred = scores >= thr
        tpr = float((pred & (labels == 1)).sum()) / n_pos
        fpr = float((pred & (labels == 0)).sum()) / n_neg
        rows.append((thr, fpr, tpr))
    return rows


CURVES_HEADER = "strategy\tseed\tepoch\tt\tthres\tk\tk_prime\tbranch\tmean_loss\tlr\n"
ROC_HEADER = "strategy\tseed\tsplit\tthreshold\tfpr\ttpr\n"


def emit_plot_data(report: RunReport, outdir) -> dict:
    """Write per-iteration curves and ROC points as TSV; byte-stable."""
    os.makedirs(outdir, exist_ok=True)
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
            splits = ["in_domain", "ood"]
            if "slide" in cell["metrics"]:
                splits.append("slide")
            for split in splits:
                m = cell["metrics"][split]
                for thr, fpr, tpr in roc_points(m["scores"], m["labels"]):
                    f.write(f"{cell['strategy']}\t{cell['seed']}\t{split}"
                            f"\t{thr!r}\t{fpr!r}\t{tpr!r}\n")
    return {"curves": curves_path, "roc": roc_path}
