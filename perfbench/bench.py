"""Workloads of the hadcl benchmark, their timed units and output checks.

A workload turns a workload seed into program inputs (set-up), runs one
unit of work through hadcl's public API (timed), and checks what the unit
produced (not timed). `run_workload` repeats the unit for the requested
number of seconds and reduces the repeats to the benchmark's metrics.

Why these workloads (see also README.md in this directory):

- reference_run: `hadcl run` on configs/reference.yaml with ten seeds. The
  paper's headline experiment; at B=50 a training step is bound by per-call
  overhead, and every module does work.
- large_batch: the shapes of configs/full_scale.yaml (B=512, 80,000 target
  samples, 10,000-point eval splits) with the epochs cut to fit a run.
  Matmul FLOPs dominate.
- report_plots: `emit-plots` on a reference_run report made at set-up. No
  training runs, so it is the bypass workload for every training change.
"""

from __future__ import annotations

import contextlib
import ctypes
import dataclasses
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import time
from pathlib import Path

import numpy as np
import scipy
import yaml

from hadcl import harness

from . import calibration, tracing

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"
OUT = Path(__file__).resolve().parent / "_out"

N_SEEDS = 10
# large_batch keeps every stage of configs/full_scale.yaml but only this
# many epochs of each, so one unit takes seconds instead of hours
LARGE_BATCH_EPOCHS = {"pretrain": 1, "baseline": 2, "curriculum1": 2,
                      "curriculum2": 1}
AUC_TOLERANCE = 1e-9
MIN_UNITS = 3

END_TO_END = (
    ("setup_s", "s"),
    ("wall_ref", "ref"),
    ("cpu_ref", "ref"),
    ("peak_rss_mb", "MB"),
    ("output_mb", "MB"),
    ("ok_share", "share"),
    ("headline_auc", "auc"),
)


# ---------------------------------------------------------------- inputs

def _load_yaml(name: str) -> dict:
    with open(CONFIGS / name) as f:
        return yaml.safe_load(f)


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _config(d: dict) -> harness.ExperimentConfig:
    return harness.config_from_dict(d, config_hash=digest(d))


def run_config(seed: int, smoke: bool) -> harness.ExperimentConfig:
    """configs/reference.yaml (smoke.yaml) with consecutive seeds from `seed`."""
    d = _load_yaml("smoke.yaml" if smoke else "reference.yaml")
    n_seeds = len(d["seeds"]) if smoke else N_SEEDS
    d["seeds"] = list(range(seed, seed + n_seeds))
    return _config(d)


def large_batch_config(seed: int, smoke: bool) -> harness.ExperimentConfig:
    """configs/full_scale.yaml (smoke.yaml) with one seed and cut epochs."""
    d = _load_yaml("smoke.yaml" if smoke else "full_scale.yaml")
    d["seeds"] = [seed]
    for section, epochs in LARGE_BATCH_EPOCHS.items():
        d[section] = dict(d[section], epochs=min(epochs, d[section]["epochs"]))
    return _config(d)


# --------------------------------------------------------------- helpers

def _strip(cells) -> list:
    return [{k: v for k, v in c.items() if k != "wall_clock"} for c in cells]


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _file_digest(*paths: Path) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(p.read_bytes())
    return h.hexdigest()


def oracle_auc(scores, labels) -> float:
    """Mann-Whitney AUC by binary search, independent of hadcl.metrics."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    pos, neg = s[y == 1], np.sort(s[y == 0])
    lo = np.searchsorted(neg, pos, "left")
    hi = np.searchsorted(neg, pos, "right")
    return float((lo.sum() + 0.5 * (hi - lo).sum()) / (pos.size * neg.size))


def oracle_roc_rows(scores, labels) -> list[str]:
    """(threshold, fpr, tpr) rows as emit_plot_data formats them, computed
    from sorted scores instead of one scan per threshold."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    pos, neg = np.sort(s[y == 1]), np.sort(s[y == 0])
    thr = np.unique(s)[::-1]
    n_pos, n_neg = max(pos.size, 1), max(neg.size, 1)
    tp = pos.size - np.searchsorted(pos, thr, "left")
    fp = neg.size - np.searchsorted(neg, thr, "left")
    return [f"{t!r}\t{f!r}\t{p!r}" for t, f, p in
            zip(thr.tolist(), (fp / n_neg).tolist(), (tp / n_pos).tolist())]


def _steps_per_cell(config: harness.ExperimentConfig, strategy: str) -> int:
    n = config.target.per_class * config.target.n_classes
    tc = getattr(config, strategy)
    return tc.epochs * (n // tc.batch_size)


def _pretrain_steps(config: harness.ExperimentConfig) -> int:
    n = config.source.per_class * config.source.n_classes
    return config.pretrain.epochs * (n // config.pretrain.batch_size)


def _check_cells(config, cells, checks: dict, prefix: str) -> None:
    """Cell-level checks shared by the run workloads."""
    checks[f"{prefix}cells_ok"] = (
        len(cells) == len(config.seeds) * len(config.strategies)
        and all(c["status"] == "ok" for c in cells))
    checks[f"{prefix}curve_lengths"] = all(
        len(c.get("curve", ())) == _steps_per_cell(config, c["strategy"])
        for c in cells)
    auc_ok = True
    for c in cells:
        for m in c.get("metrics", {}).values():
            auc_ok &= abs(oracle_auc(m["scores"], m["labels"]) - m["auc"]) <= AUC_TOLERANCE
    checks[f"{prefix}auc_oracle"] = bool(auc_ok) and bool(cells)


@dataclasses.dataclass
class UnitResult:
    """What one unit produced, reduced to what the metrics and checks need."""

    digest: str
    items: int
    bytes_written: int
    headline: float
    checks: dict
    # program cells the unit ran (report_plots: its one emit) and how many failed
    cells: int
    failed_cells: int
    # the slice of the output that `alone` reproduces on its own
    sample: object = None
    # process peak so far, read before the unit's output is inspected
    peak_rss_mb: float = 0.0


# ------------------------------------------------------------- workloads

class RunWorkload:
    """`hadcl run`: run_experiment, then RunReport.to_json."""

    # set-up is cheap, so it is repeated and the median taken
    setup_repeats = 5

    def __init__(self, config_fn):
        self.config_fn = config_fn

    def setup(self, seed, smoke, workdir):
        return self.config_fn(seed, smoke)

    def unit(self, config, outdir: Path):
        report = harness.run_experiment(config, workers=1)
        report.to_json(outdir / "report.json")
        return report

    def inspect(self, config, report, outdir: Path) -> UnitResult:
        checks = {}
        _check_cells(config, report.cells, checks, "")
        loaded = harness.RunReport.from_json(outdir / "report.json")
        stripped = _strip(report.cells)
        checks["report_roundtrip"] = _strip(loaded.cells) == stripped
        headline = report.summary().get("curriculum2", {}).get("median_auc_ood", math.nan)
        checks["headline_finite"] = 0.0 < headline <= 1.0
        items = (sum(len(c.get("curve", ())) for c in report.cells)
                 + _pretrain_steps(config) * len(config.seeds))
        return UnitResult(digest=digest(stripped), items=items,
                          bytes_written=_dir_bytes(outdir), headline=headline,
                          checks=checks, cells=len(report.cells),
                          failed_cells=sum(c["status"] != "ok" for c in report.cells),
                          sample=_strip(c for c in report.cells
                                        if c["seed"] == config.seeds[0]))

    def alone(self, config, workdir: Path):
        """The first seed run on its own; its cells must match the first
        seed's cells of every unit bit for bit."""
        again = harness.run_experiment(
            dataclasses.replace(config, seeds=config.seeds[:1]))
        return _strip(again.cells)


class ReportPlotsWorkload:
    """`hadcl emit-plots`: RunReport.from_json, then emit_plot_data."""

    # set-up runs a whole reference experiment: once is enough
    setup_repeats = 1

    def setup(self, seed, smoke, workdir):
        # the input is a reference_run report made here, at the same seed
        config = run_config(seed, smoke)
        report = harness.run_experiment(config, workers=1)
        path = workdir / "input_report.json"
        report.to_json(path)
        return {"path": path,
                "headline": report.summary()["curriculum2"]["median_auc_ood"]}

    def unit(self, ctx, outdir: Path):
        report = harness.RunReport.from_json(ctx["path"])
        harness.emit_plot_data(report, outdir)
        return report

    def inspect(self, ctx, report, outdir: Path) -> UnitResult:
        with open(outdir / "curves.tsv") as f:
            curves = f.readlines()
        with open(outdir / "roc.tsv") as f:
            roc = f.readlines()
        ok_cells = [c for c in report.cells if c["status"] == "ok"]
        splits = [(c, s) for c in ok_cells
                  for s in ("in_domain", "ood", "slide") if s in c["metrics"]]
        checks = {
            "curves_rows": len(curves) - 1 == sum(len(c.get("curve", ()))
                                                  for c in report.cells),
            "roc_rows": len(roc) - 1 == sum(len(set(c["metrics"][s]["scores"]))
                                            for c, s in splits),
            "headline_roundtrip":
                report.summary()["curriculum2"]["median_auc_ood"] == ctx["headline"],
        }
        # ROC rows of the first cell against an independent computation
        first = ok_cells[0] if ok_cells else None
        want = []
        for c, s in splits:
            if c is first:
                m = c["metrics"][s]
                want += [f"{c['strategy']}\t{c['seed']}\t{s}\t{r}\n"
                         for r in oracle_roc_rows(m["scores"], m["labels"])]
        checks["roc_oracle"] = bool(want) and roc[1:1 + len(want)] == want
        first_cell = report.cells[0]
        n_curves = 1 + len(first_cell.get("curve", ()))
        n_roc = 1 + sum(len(set(first_cell["metrics"][s]["scores"]))
                        for c, s in splits if c is first_cell)
        return UnitResult(digest=_file_digest(outdir / "curves.tsv", outdir / "roc.tsv"),
                          items=len(curves) + len(roc) - 2,
                          bytes_written=_dir_bytes(outdir),
                          headline=ctx["headline"], checks=checks,
                          cells=1, failed_cells=0,
                          sample=(curves[:n_curves], roc[:n_roc]))

    def alone(self, ctx, workdir: Path):
        """The first cell of the input emitted on its own; its rows must
        equal the ones it gets in every unit's full output."""
        report = harness.RunReport.from_json(ctx["path"])
        sub = workdir / "alone"
        harness.emit_plot_data(harness.RunReport(config_hash=report.config_hash,
                                                 cells=report.cells[:1]), sub)
        rows = []
        for name in ("curves.tsv", "roc.tsv"):
            with open(sub / name) as f:
                rows.append(f.readlines())
        shutil.rmtree(sub)
        return tuple(rows)


WORKLOADS = {
    "reference_run": RunWorkload(run_config),
    "large_batch": RunWorkload(large_batch_config),
    "report_plots": ReportPlotsWorkload(),
}


# ------------------------------------------------------------ the run

def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def _measure(workload, ctx, outdir: Path, tracer=None, reference=None
             ) -> tuple[UnitResult, float, float, calibration.Sampler | None]:
    """Runs one timed unit, traced if a tracer is given, and inspects it.
    With a reference computation, samples it while the unit runs and takes
    the samples' time out of the unit's. The unit's output is dropped before
    the next unit starts, so it cannot raise that unit's memory peak."""
    outdir.mkdir(parents=True)
    # garbage of the set-up or the previous unit is not this unit's cost
    gc.collect()
    sampler = calibration.Sampler(reference) if reference is not None else None
    with tracer if tracer is not None else contextlib.nullcontext():
        wall0, cpu0 = time.perf_counter(), time.process_time()
        with sampler if sampler is not None else contextlib.nullcontext():
            raw = workload.unit(ctx, outdir)
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    if sampler is not None:
        wall -= sampler.spent_wall
        cpu -= sampler.spent_cpu
    peak = _peak_rss_mb()
    result = workload.inspect(ctx, raw, outdir)
    result.peak_rss_mb = peak
    shutil.rmtree(outdir)
    return result, wall, cpu, sampler


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool = False, import_s: float = 0.0) -> dict:
    """One benchmark run. Returns the result dict the entry point prints,
    plus a "detail" entry with per-unit figures and every check."""
    workload = WORKLOADS[name]
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"{name}-s{seed}-t{int(trace)}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    try:
        setup_times = []
        for _ in range(workload.setup_repeats):
            t0 = time.perf_counter()
            ctx = workload.setup(seed, smoke, workdir)
            setup_times.append(time.perf_counter() - t0)
        setup_s = import_s + statistics.median(setup_times)

        # the first seed (cell) on its own, before any timed unit: it warms
        # the process up, and every unit must reproduce its output
        alone = workload.alone(ctx, workdir)

        reference = calibration.Reference()
        units, walls, cpus, samplers = [], [], [], []
        while True:
            unit, wall, cpu, sampler = _measure(
                workload, ctx, workdir / f"unit{len(units)}", reference=reference)
            units.append(unit)
            walls.append(wall)
            cpus.append(cpu)
            samplers.append(sampler)
            # a traced run needs one untraced unit, to measure the overhead;
            # otherwise units repeat until the run ends nearest `seconds`,
            # and at least MIN_UNITS of them, so the median drops the first
            # unit, slower than the rest in most runs, or one that a burst of
            # load on the host slowed
            if trace or (len(walls) >= MIN_UNITS
                         and sum(walls) + wall / 2 > seconds):
                break

        layers = layer_self_s = None
        if trace:
            tracer = tracing.Tracer(run_id=f"{name}-s{seed}-traced")
            unit, wall, _, _ = _measure(workload, ctx, workdir / "traced", tracer)
            units.append(unit)
            layers = tracing.layer_metrics(tracer.spans, wall, walls[0])
            layer_self_s = tracing.layer_self_s(tracer.spans)
            tracer.write_tsv(OUT / f"spans-{name}-s{seed}.tsv")

        checks = {"alone_identical": all(u.sample == alone for u in units)}
        checks["repeats_identical"] = len({u.digest for u in units}) == 1
        checks["blas_single_thread"] = blas_threads() == 1
        checks["reference_value_stable"] = all(s.stable for s in samplers)
        for i, u in enumerate(units):
            checks.update({f"unit{i}.{k}": v for k, v in u.checks.items()})
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed_checks = sorted(k for k, v in checks.items() if not v)
    attempted = sum(u.cells for u in units) + len(checks)
    failed = sum(u.failed_cells for u in units) + len(failed_checks)
    # a unit's time in multiples of one repetition of the reference
    # computation sampled while it ran, so that a drift of the host's speed
    # cancels; a unit too short to be sampled uses the run's samples
    run_walls = [w for s in samplers for w in s.walls]
    run_cpus = [c for s in samplers for c in s.cpus]
    if not run_walls:
        wall0, cpu0 = time.perf_counter(), time.process_time()
        reference.once()
        run_walls, run_cpus = [time.perf_counter() - wall0], [time.process_time() - cpu0]
    wall_ref = [w / statistics.mean(s.walls or run_walls) for w, s in zip(walls, samplers)]
    cpu_ref = [c / statistics.mean(s.cpus or run_cpus) for c, s in zip(cpus, samplers)]
    e2e = {
        "setup_s": setup_s,
        "wall_ref": statistics.median(wall_ref),
        "cpu_ref": statistics.median(cpu_ref),
        "peak_rss_mb": units[0].peak_rss_mb,
        "output_mb": units[0].bytes_written / 1e6,
        "ok_share": 1.0 - failed / attempted,
        "headline_auc": units[0].headline,
    }
    if trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
    else:
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END}
    return {
        "correct": not failed,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "detail": {"workload": name, "seed": seed, "trace": trace,
                   "units": len(walls), "unit_wall_s": walls, "unit_cpu_s": cpus,
                   "unit_wall_ref": wall_ref, "unit_cpu_ref": cpu_ref,
                   "reference_wall_s": [s.walls for s in samplers],
                   "items_per_unit": units[0].items,
                   "setup_light_s": setup_times, "import_s": import_s,
                   "failed_checks": failed_checks, "checks": len(checks),
                   "end_to_end": e2e, "layer_self_s": layer_self_s},
    }


# --------------------------------------------------------- environment

def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that NumPy loaded, or None if unknown."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("lib*openblas*.so*")):
        handle = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit() -> str:
    """HEAD of the checkout read from .git, or "unknown" outside a repo."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _source_digest() -> str:
    """sha256 over src/ and configs/, which identifies the code measured
    where the checkout carries no git metadata."""
    h = hashlib.sha256()
    for base in (ROOT / "src", CONFIGS):
        for p in sorted(base.rglob("*")):
            if p.is_file() and "__pycache__" not in p.parts:
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": _git_commit(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "thread_env": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
    }
