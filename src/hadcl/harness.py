"""Experiment runner: pretrain on a source task, fine-tune with the baseline
and both curriculum stages, evaluate in-domain / out-of-domain / slide-level,
and emit machine-readable reports. Also hosts the alpha ablation sweep.

For a given seed all strategies share the same pretrained parameters and the
same epoch shuffles, so metric differences are attributable to the update
rule alone. A seed keeps what it computes for a model, its metrics and
p-values, once per distinct parameter vector, for every cell of that model.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import dataclasses
import hashlib
import itertools
import math
import multiprocessing
import operator
import os
import time
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np
import yaml

from . import __version__, curriculum, data, metrics, numcore, reportfile, slidelevel
from .exceptions import NumericError, ValidationError
from .reportfile import STRATEGIES

# draw-seed offsets keep the per-seed splits disjoint
_VAL_OFFSET = 9000
_TEST_OFFSET = 7000
_SLIDE_TEST_OFFSET = 5000

# the most elements one array of a run may hold (2 GiB of float64): a config
# whose sizes imply a larger array is rejected before anything is allocated
MAX_ARRAY_ELEMENTS = 2**28


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
        if not self.strategies:
            raise ValidationError("strategy list must be nonempty")
        if any(isinstance(s, bool) or not isinstance(s, int) or s < 0
               for s in self.seeds):
            raise ValidationError(
                f"seeds must be non-negative integers, got {list(self.seeds)}")
        if not isinstance(self.output_dir, str):
            raise ValidationError(
                f"output_dir must be a string, got {self.output_dir!r}")
        names = [row.name for row in curriculum.STRATEGY_TABLE]
        unknown = [s for s in self.strategies if s not in names]
        if unknown:
            raise ValidationError(f"unknown strategies {unknown}")
        for key in ("seeds", "strategies"):
            values = getattr(self, key)
            if len(set(values)) != len(values):
                raise ValidationError(f"duplicate {key} in {list(values)}")
        # two seeds as far apart as two draw offsets of one family, blobs or
        # slides, would draw a split from one stream
        families = [(0, _TEST_OFFSET, _VAL_OFFSET)] + (
            [(0, _SLIDE_TEST_OFFSET)] if self.slides is not None else [])
        gaps = sorted({b - a for f in families for a in f for b in f if b > a})
        seeds = set(self.seeds)
        for s, gap in itertools.product(self.seeds, gaps):
            if s + gap in seeds:
                raise ValidationError(f"seeds {s} and {s + gap} are {gap} apart, "
                                      "so they would draw a split from one stream")
        if self.source.dim != self.target.dim:
            raise ValidationError("source and target feature dims must match")
        # the hidden-to-hidden weights and each split's rows times max(dim, hidden)
        width = max(self.target.dim, self.hidden)
        sizes = {"model": self.hidden ** 2,
                 "source": 2 * self.source.per_class * width,
                 "target": 2 * self.target.per_class * width,
                 "eval": 2 * max(self.eval.val_per_class,
                                 self.eval.test_per_class) * width}
        if self.slides is not None:   # per cohort
            sizes["slides"] = (self.slides.n_slides * self.slides.height
                               * self.slides.width * width)
        for name, size in sizes.items():
            if size > MAX_ARRAY_ELEMENTS:
                raise ValidationError(f"{name}: sizes imply an array of {size} "
                                      f"elements, above {MAX_ARRAY_ELEMENTS}")
        if self.slides is not None:
            # the slide classifier trains on both classes and DeLong needs
            # two slides of each; a tumor slide without a region is normal
            n_tumor = self.slides.n_tumor if self.slides.region_count > 0 else 0
            n_normal = self.slides.n_slides - n_tumor
            if n_tumor < 2 or n_normal < 2:
                raise ValidationError(
                    f"slides: a cohort needs >= 2 tumor and >= 2 normal slides "
                    f"to be scored, got {n_tumor} and {n_normal}")
        for row in curriculum.STRATEGY_TABLE:
            if row.name in self.strategies and row.start not in (None, *self.strategies):
                raise ValidationError(f"{row.name} requires {row.start} (it starts "
                                      f"from the {row.start} parameters)")
        # each section checks its own values; its batch must also fit the
        # training set it runs on, or the loop would have no full batch
        for name in ("pretrain", "baseline", "curriculum1", "curriculum2"):
            spec = self.source if name == "pretrain" else self.target
            n = spec.per_class * spec.n_classes
            batch_size = getattr(self, name).batch_size
            if batch_size > n:
                raise ValidationError(f"{name}: batch_size {batch_size} exceeds "
                                      f"{n}, the size of its training set")


# the top-level keys of a config; any other key would be silently ignored
_CONFIG_KEYS = frozenset({"seeds", "output_dir", "model", "source", "target",
                          "shift", "pretrain", "baseline", "curriculum1",
                          "curriculum2", "eval", "slides", "strategies"})


def config_from_dict(d: dict, config_hash: str = "") -> ExperimentConfig:
    unknown = sorted(set(d) - _CONFIG_KEYS, key=str)
    if unknown:
        raise ValidationError(f"unknown config keys {unknown}")
    slides = None
    if d.get("slides") is not None:  # an empty mapping is an error, not "off"
        slides = _section(d, "slides", data.SlideSpec)

    return ExperimentConfig(
        seeds=_list(d, "seeds"),
        output_dir=d.get("output_dir", "runs"),
        hidden=_section(d, "model", ModelConfig).hidden,
        source=_section(d, "source", data.BlobTaskSpec),
        target=_section(d, "target", data.BlobTaskSpec),
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


def _section(d: dict, name: str, cls, default=None):
    """`cls` built from the mapping d[name]; a missing section, an unknown
    key, a value of the wrong numeric type, a NaN or infinite number or a
    value `cls` rejects is a ValidationError that names the section."""
    section = d.get(name, default)
    if not isinstance(section, dict):
        raise ValidationError(f"config section {name!r} is missing or not a mapping")
    fields = dataclasses.fields(cls)
    unknown = sorted(set(section) - {f.name for f in fields}, key=str)
    if unknown:
        raise ValidationError(f"config section {name!r}: unknown keys {unknown}")
    try:
        for f in fields:
            kind = getattr(f.type, "__name__", f.type)
            types = _NUMBER_TYPES.get(kind)
            value = section.get(f.name, 0)  # a missing key is cls's to judge
            if types and (isinstance(value, bool) or not isinstance(value, types)):
                raise ValidationError(f"{f.name} must be {kind}, got {value!r}")
            if isinstance(value, float) and not math.isfinite(value):
                raise ValidationError(f"{f.name} must be finite, got {value!r}")
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
    """The target splits of a seed: train, validation, test and OOD test."""
    target_train = data.generate_blobs(config.target, draw_seed=seed)
    clean = replace(config.target, noise_fraction=0.0)
    val = data.generate_blobs(replace(clean, per_class=config.eval.val_per_class),
                              draw_seed=seed + _VAL_OFFSET)
    test = data.generate_blobs(replace(clean, per_class=config.eval.test_per_class),
                               draw_seed=seed + _TEST_OFFSET)
    test_ood = data.apply_domain_shift(
        test, replace(config.shift, seed=config.shift.seed + seed))
    return target_train, val, test, test_ood


def _scored(model, ds: data.Dataset) -> metrics.ScoredOutcomes:
    """A split's labels and the model's score of each row, its logit margin
    l1 - l0, which every AUC, CI, paired test and accuracy (margin > 0)
    ranks: softmax would round distinct margins to tied 0.0s and 1.0s."""
    logits = numcore.forward(model, ds.features)
    return metrics.ScoredOutcomes(logits[:, 1] - logits[:, 0], ds.labels)


def _evaluate(model, val, test, test_ood) -> tuple[dict, dict, dict]:
    """The validation AUC and accuracy of `val`, the model's validation
    ScoredOutcomes, its metrics per test split, and its ScoredOutcomes on
    the splits that get a paired test. Validation only ranks models, so it
    keeps no scores, labels or CI."""
    val_result = {"accuracy": metrics.accuracy(val.scores > 0, val.labels),
                  "auc": metrics.auc(val)}
    out, outcomes = {}, {}
    for name, ds in (("in_domain", test), ("ood", test_ood)):
        outcomes[name] = scored = _scored(model, ds)
        out[name] = {"accuracy": metrics.accuracy(scored.scores > 0, scored.labels),
                     **_delong_split(scored)}
    return val_result, out, outcomes


def _delong_split(scored: metrics.ScoredOutcomes) -> dict:
    """A split's DeLong AUC, variance and 95% CI, and its scores and labels."""
    est = metrics.delong_ci(scored)
    return {"auc": est.auc, "auc_variance": est.variance, "ci95": list(est.ci95),
            "scores": scored.scores.tolist(), "labels": scored.labels.tolist()}


def _slide_features(model, slides, spec: data.SlideSpec):
    feats, labels = [], []
    for slide in slides:
        probs = positive_probs(model, slide.features)
        grid = slidelevel.SlideGrid(probs.reshape(spec.height, spec.width))
        feats.append(slidelevel.extract_features(grid))
        labels.append(slide.label)
    return np.array(feats), np.array(labels)


def _slide_cohorts(config: ExperimentConfig, seed: int):
    """The (train, test) slide cohorts of a seed, shared by every strategy;
    their patch features share the clean target task's class geometry."""
    patch_spec = replace(config.target, hard_fraction=0.0, noise_fraction=0.0)
    return tuple(data.generate_slides(config.slides, patch_spec, draw_seed=seed + offset)
                 for offset in (0, _SLIDE_TEST_OFFSET))


def _evaluate_slides(model, spec: data.SlideSpec, train, test) -> dict:
    f_train, y_train = _slide_features(model, train, spec)
    f_test, y_test = _slide_features(model, test, spec)
    clf = slidelevel.train_slide_classifier(f_train, y_train)
    return _delong_split(metrics.ScoredOutcomes(clf.predict(f_test), y_test))


def run_seed(config: ExperimentConfig, seed: int, stage1) -> list[dict]:
    """One seed's cells, all from its one pretrained model: one per row of
    curriculum.STRATEGY_TABLE that config.strategies names, in table order,
    with the curriculum1 section set to each config in `stage1` in turn. A
    cell the same for two of those configs (the same row, stage config and
    start), such as the baseline's, is trained and listed once."""
    plan, keys = {}, {}  # (strategy, stage, start's key) -> row; strategy -> key
    for stage in stage1:
        run = replace(config, curriculum1=stage)
        for row in curriculum.STRATEGY_TABLE:
            if row.name in config.strategies:
                keys[row.name] = (row.name, getattr(run, row.section),
                                  keys.get(row.start))
                plan.setdefault(keys[row.name], row)
    if not plan:
        return []

    pretrained = numcore.init_model(config.target.dim, config.hidden,
                                    config.target.n_classes, seed=1000 + seed)
    if config.pretrain.epochs > 0:
        # the source set serves only to pretrain, so it is drawn here and
        # freed before the target splits are drawn: each generator seeds
        # its own stream, so the order of the draws changes no bytes
        source = data.generate_blobs(config.source, draw_seed=seed)
        try:
            pretrained = curriculum.finetune_plain(
                pretrained, source.features, source.labels,
                config.pretrain, seed=2000 + seed)[0]
        except (NumericError, ValidationError) as exc:
            # every cell of the seed starts from the pretrained model
            return [{"strategy": row.name, "seed": seed, "status": "failed",
                     "error": f"pretraining: {exc}", "wall_clock": 0.0}
                    for row in plan.values()]
        del source
    target_train, val, test, test_ood = _build_datasets(config, seed)

    cells = []
    cohorts = None  # slide cohorts, generated when first needed
    # what was computed for each model, by its parameter bytes: a model equal
    # to one already scored, such as a stage 2 that kept theta_1, is neither
    # evaluated nor paired against the baseline again
    results = {}
    # the validation scores select made in the cell in progress, by parameter
    # bytes, so that _evaluate does not forward the kept model again
    val_scored = {}

    def val_auc(model) -> float:
        """The validation AUC that _evaluate reports, from results if it ran."""
        key = model.theta.tobytes()
        if key in results:
            return results[key]["val"]["auc"]
        val_scored[key] = _scored(model, val)
        return metrics.auc(val_scored[key])

    # strategy -> the model, result and error of its last cell; None -> theta_0
    last = {None: (pretrained, None, None)}
    for (_, stage, _), row in plan.items():
        start = time.perf_counter()
        cell = {"strategy": row.name, "seed": seed, "status": "ok"}
        try:
            model, _, error = last[row.start]
            if error is not None:
                raise ValidationError(f"{row.name} starts from the {row.start} "
                                      f"parameters, but {row.start} failed: {error}")
            model, report = curriculum.run_stage(
                model, target_train.features, target_train.labels, stage,
                getattr(curriculum, row.decide), seed=row.shuffle_offset + seed,
                select=val_auc if row.select else None)
            key = model.theta.tobytes()
            if key not in results:
                if key not in val_scored:  # a stage without select
                    val_scored[key] = _scored(model, val)
                val_result, split_metrics, outcomes = _evaluate(
                    model, val_scored[key], test, test_ood)
                if config.slides is not None:
                    cohorts = cohorts or _slide_cohorts(config, seed)
                    split_metrics["slide"] = _evaluate_slides(
                        model, config.slides, *cohorts)
                results[key] = {"val": val_result, "metrics": split_metrics,
                                "outcomes": outcomes}
            result = results[key]
            cell["val"] = dict(result["val"])
            # each cell its own split dicts, which its p-values extend; the
            # score and label lists are shared
            cell["metrics"] = {split: dict(m) for split, m in result["metrics"].items()}
            base = last.get(curriculum.BASELINE, (None, None, None))[1]
            if base is not None:
                if "p_values" not in result:
                    result["p_values"] = {
                        split: metrics.delong_paired_test(result["outcomes"][split],
                                                          base["outcomes"][split])
                        for split in reportfile.PAIRED_SPLITS}
                for split, p in result["p_values"].items():
                    cell["metrics"][split]["p_vs_baseline"] = p
            cell["curve"] = [dict(vars(r)) for r in report.records]
            cell["best_epoch"] = report.best_epoch
        except (NumericError, ValidationError) as exc:
            model = result = None
            cell["status"] = "failed"
            cell["error"] = str(exc)
        val_scored.clear()
        cell["wall_clock"] = time.perf_counter() - start
        cells.append(cell)
        last[row.name] = (model, result, cell.get("error"))
    return cells


@dataclass
class RunReport:
    config_hash: str
    cells: list = field(default_factory=list)
    code_version: str = __version__

    @property
    def all_ok(self) -> bool:
        return all(c["status"] == "ok" for c in self.cells)

    def summary(self) -> dict:
        """Median metrics per strategy over the ok cells."""
        out = {}
        for strategy in (row.name for row in curriculum.STRATEGY_TABLE):
            cells = [c for c in self.cells
                     if c["strategy"] == strategy and c["status"] == "ok"]
            if not cells:
                continue
            entry = {}
            for split in ("val", "in_domain", "ood"):
                results = [c["val"] if split == "val" else c["metrics"][split]
                           for c in cells]
                entry[f"median_auc_{split}"] = float(np.median(
                    [m["auc"] for m in results]))
                entry[f"median_accuracy_{split}"] = float(np.median(
                    [m["accuracy"] for m in results]))
            if all("slide" in c["metrics"] for c in cells):
                entry["median_auc_slide"] = float(np.median(
                    [c["metrics"]["slide"]["auc"] for c in cells]))
            out[strategy] = entry
        return out

    def to_json(self, path) -> None:
        """Writes the report to `path` as reportfile.write does: schema v3,
        JSON lines, with no summary, which summary() computes from the cells."""
        reportfile.write(path, self.config_hash, self.code_version, self.cells)

    @classmethod
    def from_json(cls, path) -> "RunReport":
        """The v3 report at `path`, with its cells as run_experiment
        returned them; reportfile.read says what it checks."""
        config_hash, code_version, cells = reportfile.read(path)
        return cls(config_hash=config_hash, cells=cells, code_version=code_version)


def make_output_dir(path) -> None:
    """Creates the directory `path` and its parents if missing; a path that
    is a file, or any other reason it cannot be made, is a ValidationError."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ValidationError(
            f"cannot use {path} as the output directory: {exc}") from None


def check_workers(workers) -> None:
    """Raises ValidationError unless `workers` is an integer >= 1."""
    if isinstance(workers, bool) or not isinstance(workers, int) or workers < 1:
        raise ValidationError(f"workers must be an integer >= 1, got {workers!r}")


# the variables that size the BLAS and OpenMP thread pools when NumPy loads
_THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@contextlib.contextmanager
def _single_threaded_env():
    """os.environ with every _THREAD_ENV variable set to 1 for the block,
    restored to the values it had (or their absence) when the block ends."""
    saved = {name: os.environ.get(name) for name in _THREAD_ENV}
    os.environ.update(dict.fromkeys(_THREAD_ENV, "1"))
    try:
        yield
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


def _per_seed(run, seeds, workers: int) -> list:
    """[run(seed) for seed in seeds], on `workers` processes if more than one.

    The workers are fresh interpreters (the spawn start method) that load
    NumPy with single-threaded BLAS, so `workers` processes use `workers`
    cores; a forked worker would keep the parent's BLAS thread pool, already
    sized when NumPy loaded. Each seed is deterministic, so the result does
    not depend on `workers`."""
    check_workers(workers)
    if workers == 1:
        return [run(seed) for seed in seeds]
    with _single_threaded_env(), concurrent.futures.ProcessPoolExecutor(
            max_workers=workers,
            mp_context=multiprocessing.get_context("spawn")) as pool:
        return list(pool.map(run, seeds))


def run_experiment(config: ExperimentConfig, workers: int = 1) -> RunReport:
    per_seed = _per_seed(partial(run_seed, config, stage1=[config.curriculum1]),
                         config.seeds, workers)
    return RunReport(config_hash=config.config_hash,
                     cells=[cell for cells in per_seed for cell in cells])


def alpha_stages(config: ExperimentConfig, alpha_grid) -> list:
    """config.curriculum1 with each alpha of the grid; a repeated alpha, or
    one that CurriculumTrainConfig rejects, is a ValidationError."""
    if len(set(alpha_grid)) < len(alpha_grid):
        raise ValidationError(f"duplicate alpha in {list(alpha_grid)}")
    return [replace(config.curriculum1, alpha=alpha) for alpha in alpha_grid]


def run_ablation_alpha(config: ExperimentConfig, alpha_grid,
                       workers: int = 1) -> list[RunReport]:
    """One RunReport per alpha, in grid order: that of a curriculum1-only run
    of the alpha under the sweep config's hash. A bad grid fails before any
    training, and each seed pretrains once for every alpha."""
    stage1 = alpha_stages(config, alpha_grid)
    config = replace(config, strategies=("curriculum1",))
    per_seed = _per_seed(partial(run_seed, config, stage1=stage1), config.seeds,
                         workers)
    return [RunReport(config.config_hash, list(cells)) for cells in zip(*per_seed)]


def _roc_arrays(scores, labels):
    """A split's scores as a float64 array and its labels as an integer
    array. Raises ValidationError unless the scores are finite numbers and
    the labels integers, in two equal-length flat sequences; an empty pair
    is valid. A bool, which NumPy would read as 1 or 0, is neither."""
    try:
        score_array = np.asarray(scores)
        label_array = np.asarray(labels)
    except ValueError:  # ragged nesting, such as [0.5, [1]]
        raise ValidationError("scores and labels must be flat lists") from None
    if score_array.ndim != 1 or label_array.shape != score_array.shape:
        raise ValidationError("scores and labels must be equal-length flat lists")
    if score_array.size:
        if (score_array.dtype.kind not in "iuf" or _holds_bool(scores)
                or not np.isfinite(score_array).all()):
            raise ValidationError("scores must be finite numbers")
        if label_array.dtype.kind not in "iu" or _holds_bool(labels):
            raise ValidationError("labels must be integers")
    return score_array.astype(np.float64, copy=False), label_array


def _holds_bool(values) -> bool:
    """Whether a list (not an array, whose dtype tells) holds a bool; one
    pass over the item types in C."""
    return not isinstance(values, np.ndarray) and bool in set(map(type, values))


def _roc_counts(scores: np.ndarray, labels: np.ndarray):
    """ROC counts as (thresholds, fp, tp, n_neg, n_pos), thresholds descending,
    of a split's arrays as _roc_arrays returns them.

    The thresholds are the distinct scores; fp[i] and tp[i] count the
    negatives and positives whose score is >= thresholds[i]. Labels other
    than 0 and 1 give thresholds but count as neither class."""
    pos = np.sort(scores[labels == 1])
    neg = np.sort(scores[labels == 0])
    # the first occurrence of each distinct score, as set() would keep it
    _, first = np.unique(scores, return_index=True)
    thresholds = scores[first][::-1]
    # samples with a score >= t: the class size minus those sorted below t
    tp = len(pos) - np.searchsorted(pos, thresholds, side="left")
    fp = len(neg) - np.searchsorted(neg, thresholds, side="left")
    return thresholds, fp, tp, len(neg), len(pos)


def _rates(counts, n: int) -> np.ndarray:
    """counts / n as roc_points reports it: an empty class divides by 1, so
    its rate stays 0.0."""
    return counts / max(n, 1)


def roc_points(scores, labels):
    """ROC curve as (threshold, fpr, tpr) rows, thresholds descending: the
    rates view of _roc_counts, after the checks of _roc_arrays."""
    thresholds, fp, tp, n_neg, n_pos = _roc_counts(*_roc_arrays(scores, labels))
    return list(zip(thresholds.tolist(), _rates(fp, n_neg).tolist(),
                    _rates(tp, n_pos).tolist()))


CURVES_HEADER = "\t".join(("strategy", "seed") + reportfile.CURVE_COLUMNS) + "\n"
# a curves.tsv row after strategy and seed: str, so repr for a float, per column
_CURVE_ROW = "\t".join(["%s"] * len(reportfile.CURVE_COLUMNS)) + "\n"
_curve_values = operator.itemgetter(*reportfile.CURVE_COLUMNS)
ROC_HEADER = "strategy\tseed\tsplit\tthreshold\tfpr\ttpr\n"


def emit_plot_data(report: RunReport, outdir) -> dict:
    """Write per-iteration curves and ROC points as TSV; byte-stable.

    A ROC row's rates are fp / n_neg and tp / n_pos, so a class of n
    samples has only the n + 1 rates k / n. Each distinct class size gets
    one table of their reprs, built from the same int-array division as
    roc_points, and rows look their rates up by count; only the threshold
    column is formatted per row. A split bit-equal to the same split of the
    previous ok cell reuses its rows. A split whose scores or labels
    _roc_arrays rejects raises ValidationError naming its cell and split;
    curves.tsv and roc.tsv are then left as they were. Both files replace
    the old ones only once both are complete."""
    make_output_dir(outdir)
    curves_path = os.path.join(outdir, "curves.tsv")
    roc_path = os.path.join(outdir, "roc.tsv")
    rate_text = {}  # class size n -> [repr(k / n) for k in 0..n]

    def rates(n: int) -> list:
        if n not in rate_text:
            rate_text[n] = list(map(repr, _rates(np.arange(n + 1), n).tolist()))
        return rate_text[n]

    def roc_rows(scores, labels) -> list:
        """The split's roc.tsv rows without their prefix and newline."""
        thresholds, fps, tps, n_neg, n_pos = _roc_counts(scores, labels)
        fpr_text, tpr_text = rates(n_neg), rates(n_pos)
        return [f"{thr!r}\t{fpr_text[fp]}\t{tpr_text[tp]}"
                for thr, fp, tp in zip(thresholds.tolist(), fps.tolist(),
                                       tps.tolist())]

    # one string and one write per cell's curve and per (cell, split)'s ROC
    with reportfile.replacing(curves_path, roc_path) as (curves, roc):
        curves.write(CURVES_HEADER)
        for cell in report.cells:
            prefix = f"{cell['strategy']}\t{cell['seed']}\t"
            curves.write("".join(prefix + _CURVE_ROW % _curve_values(r)
                                 for r in cell.get("curve", [])))
        roc.write(ROC_HEADER)
        last = {}  # split -> (arrays' bytes, rows) of the last ok cell
        for i, cell in enumerate(report.cells):
            if cell["status"] != "ok":
                continue
            for split in reportfile.roc_splits(cell["metrics"]):
                m = cell["metrics"][split]
                try:
                    scores, labels = _roc_arrays(m["scores"], m["labels"])
                except ValidationError as exc:
                    raise ValidationError(
                        f"report cell {i} ({cell['strategy']}, seed "
                        f"{cell['seed']}) split {split!r}: {exc}") from None
                # a curriculum2 cell that kept theta_1 repeats curriculum1's
                # splits bit for bit, and so its rows
                key = (scores.tobytes(), labels.tobytes())
                if split not in last or last[split][0] != key:
                    last[split] = (key, roc_rows(scores, labels))
                rows = last[split][1]
                if rows:
                    prefix = f"{cell['strategy']}\t{cell['seed']}\t{split}\t"
                    roc.write(prefix + f"\n{prefix}".join(rows) + "\n")
    return {"curves": curves_path, "roc": roc_path}
