import base64
import collections
import contextlib
import copy
import functools
import hashlib
import io
import itertools
import json
import math
import os
import re
import shlex
import subprocess
import sys
import tempfile
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

import hadcl
from hadcl import cli, curriculum, data, harness, metrics, numcore, reportfile
from hadcl.exceptions import ValidationError
from hadcl.harness import RunReport, config_from_dict, run_experiment


def tiny_dict(**over):
    d = {
        "seeds": [0, 1],
        "output_dir": "runs",
        "model": {"hidden": 6},
        "source": dict(dim=3, n_classes=2, per_class=40, separation=6.0,
                       spread=1.0, hard_fraction=0.0, noise_fraction=0.0,
                       seed=101),
        "target": dict(dim=3, n_classes=2, per_class=40, separation=4.0,
                       spread=1.0, hard_fraction=0.2, noise_fraction=0.05,
                       seed=202),
        "shift": dict(scale=1.3, rotation_angle=0.4, noise_level=0.3, seed=303),
        "pretrain": dict(epochs=1, lr=1e-3, batch_size=20),
        "baseline": dict(epochs=2, lr=5e-4, milestones=[1], gamma=0.1,
                         batch_size=20),
        "curriculum1": dict(epochs=2, lr=5e-4, milestones=[1], gamma=0.1,
                            batch_size=20, alpha=0.10, a=0.7, b=0.2),
        "curriculum2": dict(epochs=1, lr=5e-5, batch_size=20, alpha=0.10,
                            a=0.7, b=0.2),
        "eval": dict(test_per_class=15, val_per_class=10),
    }
    d.update(over)
    return d


SLIDES = dict(height=5, width=5, n_slides=6, tumor_slide_fraction=0.5,
              region_count=1, radius_lo=1.0, radius_hi=2.0, seed=21)


def strip_wall_clock(cells):
    out = copy.deepcopy(cells)
    for c in out:
        c.pop("wall_clock")
    return out


def expression_margin(model, x) -> np.ndarray:
    """l1 - l0 of the forward pass as one expression per layer over all
    rows, on new arrays."""
    h1 = np.maximum(x @ model.w1 + model.b1, 0.0)
    h2 = np.maximum(h1 @ model.w2 + model.b2, 0.0)
    logits = h2 @ model.w3 + model.b3
    return logits[:, 1] - logits[:, 0]


def roc_cases() -> list:
    """(scores, labels) pairs: random scores with and without heavy ties,
    one class only, one score, no scores, and +0.0 and -0.0 in either order."""
    rng = np.random.default_rng(5)
    cases = []
    for n in (2, 7, 50, 400, 1000):
        for _ in range(20):
            scores = rng.random(n)
            cases.append((np.round(scores, 2).tolist(),  # heavy ties
                          rng.integers(0, 2, n).tolist()))
            cases.append((scores, rng.integers(0, 2, n)))
    cases += [([0.3, 0.3, 0.9, 0.1], [1, 1, 1, 1]),   # one class only
              ([0.3, 0.3, 0.9, 0.1], [0, 0, 0, 0]),
              ([0.4], [1]), ([0.4], [0]),             # one score
              ([], []),                               # empty
              ([0.0, -0.0, 0.5], [1, 0, 1]),          # the first zero is
              ([-0.0, 0.0, 0.5], [1, 0, 1])]          # the one printed
    return cases


def written_cells(cells) -> list:
    """`cells` as a report holds them: an ok cell whose metrics equal
    those of an earlier ok cell of the same seed names the first such cell
    in "metrics_from", at the place of its metrics."""
    out = []
    for i, cell in enumerate(cells):
        j = next((j for j, c in enumerate(cells[:i])
                  if c["status"] == "ok" == cell["status"]
                  and c["seed"] == cell["seed"] and c["metrics"] == cell["metrics"]),
                 None)
        out.append(cell if j is None else {
            ("metrics_from" if k == "metrics" else k): (j if k == "metrics" else v)
            for k, v in cell.items()})
    return out


def b64(values, dtype="<f8") -> str:
    """`values` as a v3 report writes scores: base64 of their bytes."""
    return base64.b64encode(np.asarray(values, dtype).tobytes()).decode("ascii")


def v3_lines(report) -> list:
    """The lines of `report` in schema v3, built from the layout's
    definition: a header with the seeds in cell order, then per seed each
    split's labels as its first cell written in full has them and its cells
    as written_cells gives them, with scores as base64 float64 bytes, labels
    left out where they equal the line's, and curves by column."""
    cells = written_cells(report.cells)
    seeds = list(dict.fromkeys(c["seed"] for c in cells))
    lines = [{"schema": reportfile.REPORT_SCHEMA, "config_hash": report.config_hash,
              "code_version": report.code_version, "seeds": seeds}]
    columns = harness.CURVES_HEADER.split()[2:]
    for seed in seeds:
        group = [c for c in cells if c["seed"] == seed]
        labels = {}
        for c in group:
            for split, m in c.get("metrics", {}).items():
                labels.setdefault(split, m["labels"])
        written = []
        for c in group:
            c = dict(c)
            if "metrics" in c:
                c["metrics"] = {split: {
                    k: (b64(v) if k == "scores" else v) for k, v in m.items()
                    if not (k == "labels" and v == labels[split])}
                    for split, m in c["metrics"].items()}
            if "curve" in c:
                c["curve"] = {k: [r[k] for r in c["curve"]] for k in columns}
            written.append(c)
        lines.append({"seed": seed, "labels": labels, "cells": written})
    return lines


def written_v3_cells(path) -> list:
    """The cells of the v3 report at `path` as its seed lines hold them."""
    return [cell for line in Path(path).read_text().splitlines()[1:]
            for cell in json.loads(line)["cells"]]


def assert_emit_plots_rejects(path, tmp_path, capsys, place: str) -> None:
    """emit-plots of the report at `path` exits 2 with an error naming
    `place`, and leaves the files of an earlier emit as they were."""
    plots = tmp_path / "plots"
    plots.mkdir(exist_ok=True)
    before = {name: f"earlier {name}\n".encode()
              for name in ("curves.tsv", "roc.tsv")}
    for name, content in before.items():
        (plots / name).write_bytes(content)
    argv = ["emit-plots", "--report", str(path), "--output-dir", str(plots)]
    capsys.readouterr()
    assert cli.main(argv) == 2
    assert place in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in plots.iterdir()} == before


# the AUC and accuracy that summary() reads of an ok cell's "val" and of its
# paired splits
SCORED = {"accuracy": 0.5, "auc": 0.5}


def raw_v3_cell(cell) -> dict:
    """`cell` as a v3 seed line holds it, encoded without to_json's checks:
    each list of numbers under "scores" as base64 float64 bytes, and a curve
    of records by column, keyed by its first record's keys. Anything else,
    labels among it, is written as it is."""
    out = dict(cell)
    splits = cell.get("metrics")
    if isinstance(splits, dict):
        out["metrics"] = {split: {
            k: (b64(v) if k == "scores" and isinstance(v, list)
                and set(map(type, v)) <= {float, int} else v)
            for k, v in m.items()} if isinstance(m, dict) else m
            for split, m in splits.items()}
    curve = cell.get("curve")
    if isinstance(curve, list) and all(isinstance(r, dict) for r in curve):
        keys = curve[0] if curve else {}
        out["curve"] = {k: [r[k] for r in curve] for k in keys}
    return out


def report_lines(cells) -> list:
    """`cells` as the lines of a v3 report, written by raw_v3_cell, so that
    a cell to_json refuses can still be read: a header, then one line per
    run of cells of one seed, with no labels of its own. A cell without a
    seed goes in a line of seed 0."""
    runs = [(seed, list(group)) for seed, group in
            itertools.groupby(cells, key=lambda c: c.get("seed", 0))]
    return [{"schema": reportfile.REPORT_SCHEMA, "config_hash": "",
             "code_version": "", "seeds": [seed for seed, _ in runs]}] + [
        {"seed": seed, "labels": {}, "cells": [raw_v3_cell(c) for c in group]}
        for seed, group in runs]


def report_json(cells) -> str:
    """The text of report_lines(cells)."""
    return lines_text(report_lines(cells))


def lines_text(lines) -> str:
    """A report's lines, each a JSON value or a str, as its file holds them."""
    return "".join((line if isinstance(line, str) else json.dumps(line)) + "\n"
                   for line in lines)


def report_via_json(tmp_path, cells) -> RunReport:
    """The report holding `cells`, read back from its JSON file as
    emit-plots reads it."""
    path = tmp_path / "report.json"
    path.write_text(report_json(cells))
    return RunReport.from_json(path)


class TestConfig:
    def test_round_trip_fields(self):
        cfg = config_from_dict(tiny_dict())
        assert cfg.seeds == (0, 1)
        assert cfg.curriculum1.alpha == 0.10
        assert cfg.baseline.milestones == (1,)
        assert cfg.slides is None

    def test_dim_mismatch_rejected(self):
        d = tiny_dict()
        d["source"]["dim"] = 5
        with pytest.raises(ValidationError):
            config_from_dict(d)

    def test_empty_seeds_rejected(self):
        with pytest.raises(ValidationError):
            config_from_dict(tiny_dict(seeds=[]))

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValidationError):
            config_from_dict(tiny_dict(strategies=["baseline", "sgd"]))

    def test_stage2_requires_stage1(self):
        with pytest.raises(ValidationError, match="curriculum2 requires curriculum1"):
            config_from_dict(tiny_dict(strategies=["baseline", "curriculum2"]))

    @pytest.mark.parametrize("over,match", [
        ({"strategies": ["baseline", "curriculum1", "baseline"]}, "duplicate"),
        ({"seeds": [0, 1, 0]}, "duplicate"),
        ({"strategies": "baseline"}, "must be a list"),
        ({"seeds": 3}, "must be a list"),
        ({"strategies": []}, "strategy list must be nonempty"),
        ({"strategies": [["baseline"]]}, "unknown strategies"),
        ({"seeds": [1.5]}, "non-negative integers"),
        ({"seeds": [-1]}, "non-negative integers"),
        ({"seeds": ["a"]}, "non-negative integers"),
        ({"seeds": [True]}, "non-negative integers"),
        ({"output_dir": 5}, "output_dir must be a string"),
        ({"slide": SLIDES}, r"unknown config keys \['slide'\]"),
        ({"evaluation": {"test_per_class": 15}},
         r"unknown config keys \['evaluation'\]"),
        ({"source": dict(tiny_dict()["source"], draw_seed=1)},
         r"^config section 'source': unknown keys \['draw_seed'\]$"),
        ({"target": dict(tiny_dict()["target"], draw_seed=1)},
         r"^config section 'target': unknown keys \['draw_seed'\]$"),
        ({"slides": dict(SLIDES, draw_seed=1)},
         r"^config section 'slides': unknown keys \['draw_seed'\]$"),
        ({"slides": dict(SLIDES, patch_spec={"dim": 3})},
         r"^config section 'slides': unknown keys \['patch_spec'\]$"),
        ({"source": dict(tiny_dict()["source"], spec_hash="x", draw_seed=1)},
         r"^config section 'source': unknown keys \['draw_seed', 'spec_hash'\]$"),
        ({"slides": {}}, r"section 'slides': .*missing"),
        # seed 2000's test split would be seed 0's validation split
        ({"seeds": [5, 0, 2000]}, r"^seeds 0 and 2000 are 2000 apart"),
        # seed 5003's train slide cohort would be seed 3's test cohort
        ({"seeds": [3, 5003], "slides": SLIDES}, r"^seeds 3 and 5003 are 5000 apart"),
    ], ids=["duplicate_strategies", "duplicate_seeds", "scalar_strategies",
            "scalar_seeds", "empty_strategies", "nested_strategies",
            "float_seed", "negative_seed", "string_seed", "bool_seed",
            "int_output_dir", "misspelt_slides",
            "misspelt_eval", "source_draw_seed", "target_draw_seed",
            "slides_draw_seed", "slides_patch_spec", "source_two_unknown_keys",
            "empty_slides", "blob_seed_gap", "slide_seed_gap"])
    def test_malformed_lists_rejected(self, over, match):
        with pytest.raises(ValidationError, match=match):
            config_from_dict(tiny_dict(**over))

    def test_seed_gaps_follow_the_draw_offsets(self):
        # every blob gap (offsets 0, 7000 and 9000), through replace as
        # --seeds uses it; a slide gap only when slides are drawn
        config = config_from_dict(tiny_dict(seeds=[3, 5003]))
        for gap in (2000, 7000, 9000):
            with pytest.raises(ValidationError, match=f"are {gap} apart"):
                replace(config, seeds=(7, 7 + gap))
        assert replace(config, seeds=(0, 1999, 2001, 6999, 7001)).seeds[1] == 1999

    def test_slide_patches_inherit_clean_target_geometry(self):
        d = tiny_dict(slides=dict(height=4, width=4, n_slides=4,
                                  tumor_slide_fraction=0.5, region_count=1,
                                  radius_lo=1.0, radius_hi=1.5, seed=21))
        cfg = config_from_dict(d)
        clean = replace(cfg.target, hard_fraction=0.0, noise_fraction=0.0)
        train, test = harness._slide_cohorts(cfg, 3)
        for cohort, draw_seed in ((train, 3), (test, 3 + harness._SLIDE_TEST_OFFSET)):
            want = data.generate_slides(cfg.slides, clean, draw_seed=draw_seed)
            assert [s.features.tobytes() for s in cohort] == \
                [s.features.tobytes() for s in want]

    def test_size_ceiling_admits_its_own_size(self):
        side = math.isqrt(harness.MAX_ARRAY_ELEMENTS)
        assert side * side == harness.MAX_ARRAY_ELEMENTS
        assert config_from_dict(tiny_dict(model={"hidden": side})).hidden == side

    def test_config_hash_is_file_sha256(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump(tiny_dict()))
        cfg = harness.load_config(path)
        assert cfg.config_hash == hashlib.sha256(path.read_bytes()).hexdigest()


SHIPPED_CONFIGS = {p.name: yaml.safe_load(p.read_text()) for p in sorted(
    (Path(__file__).resolve().parents[1] / "configs").glob("*.yaml"))}
# what a mutated leaf or list element becomes
MUTANT_VALUES = [None, "x", "", [], [1], {}, {"a": 1}, True, False, 0, 1, -1, 2,
                 10**30, 0.5, -0.5, 1e308, math.nan, math.inf, -math.inf]


def config_paths(node, path=()) -> list:
    """The path of every mapping value and list element under `node`."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    out = []
    for key, child in items:
        out.append(path + (key,))
        out += config_paths(child, path + (key,))
    return out


def edited(name: str, section: str, **values) -> dict:
    """A shipped config with some values of one section replaced."""
    d = copy.deepcopy(SHIPPED_CONFIGS[name])
    d[section] = dict(d[section], **values)
    return d


def quick_cut(config: harness.ExperimentConfig) -> harness.ExperimentConfig:
    """The config with its first seed, at most two epochs per training
    section, at most 50 evaluation samples per class, and each domain cut to
    max(25, half its largest batch) samples per class, so that a batch can
    be the whole training set."""
    def cut(spec, *stages):
        half = -(-max(s.batch_size for s in stages) // spec.n_classes)
        return replace(spec, per_class=min(spec.per_class, max(25, half)))

    stages = {name: replace(getattr(config, name),
                            epochs=min(getattr(config, name).epochs, 2))
              for name in ("pretrain", "baseline", "curriculum1", "curriculum2")}
    return replace(
        config, seeds=config.seeds[:1], **stages,
        source=cut(config.source, config.pretrain),
        target=cut(config.target, config.baseline, config.curriculum1,
                   config.curriculum2),
        eval=replace(config.eval,
                     test_per_class=min(config.eval.test_per_class, 50),
                     val_per_class=min(config.eval.val_per_class, 50)))


def structure_paths(node, path=()) -> list:
    """config_paths with each list cut to its first element: a report's
    structure, not its thousands of list values."""
    if isinstance(node, list):
        node = node[:1]
    items = node.items() if isinstance(node, dict) else enumerate(node) \
        if isinstance(node, list) else ()
    out = []
    for key, child in items:
        out.append(path + (key,))
        out += structure_paths(child, path + (key,))
    return out


def edit(draw, d: dict, paths=config_paths) -> None:
    """One edit under d at one of paths(d): a value or list element set to
    one of MUTANT_VALUES, a key or element removed, or an unknown key added
    to d or to one of its mappings."""
    path = draw(st.sampled_from(paths(d)))
    parent = d
    for key in path[:-1]:
        parent = parent[key]
    kind = draw(st.sampled_from(["set", "remove", "add"]))
    if kind == "set":
        parent[path[-1]] = copy.deepcopy(draw(st.sampled_from(MUTANT_VALUES)))
    elif kind == "remove":
        del parent[path[-1]]
    else:
        target = parent if isinstance(parent, dict) else d
        target["unknown_key"] = copy.deepcopy(draw(st.sampled_from(MUTANT_VALUES)))


@st.composite
def config_mutants(draw) -> dict:
    """A shipped config with one to three edits."""
    d = copy.deepcopy(SHIPPED_CONFIGS[draw(st.sampled_from(sorted(SHIPPED_CONFIGS)))])
    for _ in range(draw(st.integers(1, 3))):
        edit(draw, d)
    return d


@functools.cache
def small_report_lines() -> tuple:
    """The lines of a two-seed report.json with slides."""
    report = run_experiment(config_from_dict(tiny_dict(slides=SLIDES)))
    with tempfile.TemporaryDirectory() as out:
        path = Path(out) / "report.json"
        report.to_json(path)
        return tuple(path.read_text().splitlines())


@st.composite
def report_mutants(draw) -> list:
    """The parsed lines of small_report_lines with one or two edits."""
    lines = [json.loads(line) for line in small_report_lines()]
    for _ in range(draw(st.integers(1, 2))):
        edit(draw, draw(st.sampled_from(lines)), structure_paths)
    return lines


class TestConfigContract:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(config_mutants())
    def test_mutant_is_valid_or_rejected(self, d):
        # a ValidationError is the only failure a config may cause
        try:
            config = config_from_dict(d)
        except ValidationError:
            return
        assert isinstance(config, harness.ExperimentConfig)

    @settings(max_examples=20, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.filter_too_much,
                                     HealthCheck.too_slow])
    @given(config_mutants())
    @example(edited("smoke.yaml", "model", hidden=1))
    @example(edited("reference.yaml", "curriculum1", batch_size=1))
    def test_valid_mutant_runs_end_to_end(self, d):
        # run, report.json and emit-plots on a quick cut of a valid mutant:
        # no exception (tier-1 makes RuntimeWarnings errors), nothing on
        # stderr and every cell ok
        try:
            config = quick_cut(config_from_dict(d))
        except ValidationError:
            assume(False)
        with tempfile.TemporaryDirectory() as out, \
                contextlib.redirect_stderr(io.StringIO()) as stderr:
            report = run_experiment(config)
            path = os.path.join(out, "report.json")
            report.to_json(path)
            harness.emit_plot_data(RunReport.from_json(path), out)
        assert stderr.getvalue() == ""
        assert [c.get("error") for c in report.cells if c["status"] != "ok"] == []


class TestReportContract:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(report_mutants())
    def test_mutant_is_read_or_rejected(self, lines):
        # a ValidationError is the only failure a report file may cause in
        # from_json, summary() or emit-plots, and nothing goes to stderr
        with tempfile.TemporaryDirectory() as out, \
                contextlib.redirect_stderr(io.StringIO()) as stderr:
            path = Path(out) / "report.json"
            path.write_text("".join(json.dumps(line) + "\n" for line in lines))
            try:
                report = RunReport.from_json(path)
                report.summary()
                harness.emit_plot_data(report, out)
            except ValidationError:
                pass
        assert stderr.getvalue() == ""


class TestRunExperiment:
    @pytest.fixture(scope="class")
    def full_tiny_cells(self):
        """The cells of a run of every strategy; tests copy them to edit."""
        return run_experiment(config_from_dict(tiny_dict(slides=SLIDES))).cells

    def test_smoke_all_cells_ok(self):
        d = tiny_dict(slides=SLIDES)
        report = run_experiment(config_from_dict(d))
        assert report.all_ok
        assert len(report.cells) == 6  # 3 strategies x 2 seeds
        for cell in report.cells:
            assert set(cell["val"]) == {"accuracy", "auc"}
            assert 0.0 <= cell["val"]["auc"] <= 1.0
            assert set(cell["metrics"]) == {"in_domain", "ood", "slide"}
            for split in ("in_domain", "ood", "slide"):
                assert 0.0 <= cell["metrics"][split]["auc"] <= 1.0
            assert cell["wall_clock"] > 0
        summary = report.summary()
        assert set(summary) == {"baseline", "curriculum1", "curriculum2"}
        assert "median_auc_slide" in summary["baseline"]

    def test_slide_cohorts_generated_once_per_seed(self, monkeypatch):
        calls = []
        generate_slides = data.generate_slides

        def counting(spec, patch_spec, draw_seed=0):
            calls.append(draw_seed)
            return generate_slides(spec, patch_spec, draw_seed)

        monkeypatch.setattr(data, "generate_slides", counting)
        d = tiny_dict(slides=SLIDES)
        report = run_experiment(config_from_dict(d))
        assert report.all_ok
        assert all("slide" in c["metrics"] for c in report.cells)
        assert len(calls) == 2 * len(d["seeds"])

    def test_source_set_freed_before_target_splits(self, monkeypatch):
        config = config_from_dict(tiny_dict(seeds=[0]))
        generate_blobs = data.generate_blobs
        sources, source_alive = [], []

        def watching(spec, draw_seed=0):
            ds = generate_blobs(spec, draw_seed)
            if spec == config.source:
                sources.append(weakref.ref(ds.features))
            else:
                source_alive.append(any(ref() is not None for ref in sources))
            return ds

        monkeypatch.setattr(data, "generate_blobs", watching)
        cells = harness.run_seed(config, 0, [config.curriculum1])
        assert all(c["status"] == "ok" for c in cells)
        assert len(sources) == 1
        # target train, validation and test; the OOD split shifts the test set
        assert source_alive == [False] * 3

    def test_no_pretraining_draws_no_source_set(self, monkeypatch):
        d = tiny_dict(pretrain=dict(epochs=0, lr=1e-3, batch_size=20))
        config = config_from_dict(d)
        specs = []
        generate_blobs = data.generate_blobs

        def counting(spec, draw_seed=0):
            specs.append(spec)
            return generate_blobs(spec, draw_seed)

        monkeypatch.setattr(data, "generate_blobs", counting)
        report = run_experiment(config)
        assert report.all_ok
        assert config.source not in specs
        assert len(specs) == 3 * len(d["seeds"])

    def test_curve_lengths_match_epochs_and_batches(self):
        report = run_experiment(config_from_dict(tiny_dict(seeds=[0])))
        n_batches = 2 * 40 // 20
        by = {c["strategy"]: c for c in report.cells}
        assert len(by["baseline"]["curve"]) == 2 * n_batches
        assert len(by["curriculum1"]["curve"]) == 2 * n_batches
        assert len(by["curriculum2"]["curve"]) == 1 * n_batches
        assert all(r["k_prime"] is not None for r in by["curriculum2"]["curve"])

    @staticmethod
    def count_calls(monkeypatch, d):
        """The cells of config `d`, run with the parameter bytes of each
        model harness._evaluate scores and the outcome pairs of each
        metrics.delong_paired_test recorded: (evaluated, paired, cells)."""
        evaluated, paired = [], []
        evaluate, paired_test = harness._evaluate, metrics.delong_paired_test

        def counting_evaluate(model, *args):
            evaluated.append(model.theta.tobytes())
            return evaluate(model, *args)

        def counting_paired_test(a, b):
            paired.append((a, b))
            return paired_test(a, b)

        monkeypatch.setattr(harness, "_evaluate", counting_evaluate)
        monkeypatch.setattr(metrics, "delong_paired_test", counting_paired_test)
        report = run_experiment(config_from_dict(d))
        assert report.all_ok
        return evaluated, paired, report.cells

    def count_evaluations(self, monkeypatch, stage2_lr):
        d = tiny_dict(seeds=[0], slides=SLIDES)
        d["curriculum2"]["lr"] = stage2_lr
        calls, _, cells = self.count_calls(monkeypatch, d)
        return calls, {c["strategy"]: c for c in cells}

    def test_kept_theta1_is_evaluated_once(self, monkeypatch):
        # with a zero stage-2 lr no epoch can beat theta_1, so stage 2
        # returns parameters byte-equal to it
        calls, by = self.count_evaluations(monkeypatch, 0.0)
        assert by["curriculum2"]["best_epoch"] == -1
        assert len(calls) == 2
        assert by["curriculum2"]["val"] == by["curriculum1"]["val"]
        c1, c2 = by["curriculum1"]["metrics"], by["curriculum2"]["metrics"]
        assert c2 == c1
        assert set(c1) == {"in_domain", "ood", "slide"}
        for split in c1:
            assert c2[split] is not c1[split]

    def test_moved_theta2_is_evaluated(self, monkeypatch):
        calls, by = self.count_evaluations(monkeypatch, 5e-3)
        assert by["curriculum2"]["best_epoch"] == 0
        assert len(calls) == len(set(calls)) == 3

    def test_stage2_forwards_validation_once_per_epoch(self, monkeypatch):
        # theta_1's epoch -1 score is read from its curriculum1 cell, so
        # stage 2 forwards the validation split once after each epoch, and
        # the model it keeps scored what its cell reports as val AUC; over
        # the seed, select and _evaluate together, each parameter vector is
        # forwarded on the validation split once
        d = tiny_dict(seeds=[0, 1])
        d["curriculum2"].update(epochs=3, lr=5e-3)
        runs = []   # per stage-2 run: its validation forwards, select's scores
        active = []   # the stage-2 run in progress
        vals = []   # each seed's validation features
        val_forwards = collections.Counter()   # parameter bytes -> forwards
        run_stage, forward = curriculum.run_stage, numcore.forward
        build_datasets = harness._build_datasets

        def recording_build(*args):
            splits = build_datasets(*args)
            vals.append(splits[1].features)
            return splits

        def counting_forward(model, inputs, buffers=None):
            # a training step forwards into its buffers, a score without
            if active and buffers is None:
                active[0]["forwards"] += 1
            if any(inputs is v for v in vals):
                val_forwards[model.theta.tobytes()] += 1
            return forward(model, inputs, buffers)

        def recording_stage(*args, select=None, **kwargs):
            if select is None:
                return run_stage(*args, **kwargs)
            run = {"forwards": 0, "scores": []}
            runs.append(run)

            def recording_select(model):
                run["scores"].append(select(model))
                return run["scores"][-1]

            active.append(run)
            try:
                return run_stage(*args, select=recording_select, **kwargs)
            finally:
                active.clear()

        monkeypatch.setattr(numcore, "forward", counting_forward)
        monkeypatch.setattr(curriculum, "run_stage", recording_stage)
        monkeypatch.setattr(harness, "_build_datasets", recording_build)
        report = run_experiment(config_from_dict(d))
        assert report.all_ok and len(runs) == 2
        # per seed: the baseline, theta_1 and stage 2's three epochs
        assert len(vals) == 2 and len(val_forwards) == 2 * 5
        assert set(val_forwards.values()) == {1}
        # one seed keeps theta_1 and the other a later epoch
        assert sorted(c["best_epoch"] for c in report.cells
                      if c["strategy"] == "curriculum2") == [-1, 2]
        for seed, run in zip((0, 1), runs):
            by = {c["strategy"]: c for c in report.cells if c["seed"] == seed}
            assert run["forwards"] == 3   # its epochs, not epochs + 1
            scores = run["scores"]
            assert len(scores) == 1 + 3
            assert scores[0].hex() == by["curriculum1"]["val"]["auc"].hex()
            kept = scores[by["curriculum2"]["best_epoch"] + 1]
            assert kept.hex() == by["curriculum2"]["val"]["auc"].hex()

    def test_scores_are_logit_margins(self, monkeypatch):
        # each ok cell's test scores are l1 - l0 of its model, in the bits
        # of an expression-form forward pass, and its accuracy is the share
        # of rows whose margin sign (margin > 0 means class 1) is the label
        config = config_from_dict(tiny_dict(seeds=[0, 1]))
        models, run_stage = [], curriculum.run_stage

        def recording_stage(*args, **kwargs):
            models.append(run_stage(*args, **kwargs))
            return models[-1]

        monkeypatch.setattr(curriculum, "run_stage", recording_stage)
        report = run_experiment(config)
        assert report.all_ok
        # per seed, run_stage pretrains theta_0 and then trains each cell
        per_seed = 1 + len(report.cells) // len(config.seeds)
        assert len(models) == per_seed * len(config.seeds)
        for i, seed in enumerate(config.seeds):
            _, _, test, test_ood = harness._build_datasets(config, seed)
            cells = [c for c in report.cells if c["seed"] == seed]
            trained = models[i * per_seed + 1:(i + 1) * per_seed]
            for (model, _), cell in zip(trained, cells, strict=True):
                for split, ds in (("in_domain", test), ("ood", test_ood)):
                    m = cell["metrics"][split]
                    margin = expression_margin(model, ds.features)
                    assert np.array(m["scores"]).tobytes() == margin.tobytes()
                    assert m["accuracy"] == np.mean((margin > 0) == (ds.labels == 1))

    def count_paired_tests(self, monkeypatch, stage2_lr, seeds):
        d = tiny_dict(seeds=seeds)
        d["curriculum2"]["lr"] = stage2_lr
        _, calls, cells = self.count_calls(monkeypatch, d)
        return calls, cells

    @staticmethod
    def list_p_value(cell, base, split, paired=metrics.delong_paired_test):
        """The paired test, uncounted, on arrays rebuilt from the report's
        lists."""
        a, b = cell["metrics"][split], base["metrics"][split]
        return paired(
            metrics.ScoredOutcomes(np.array(a["scores"]), np.array(a["labels"])),
            metrics.ScoredOutcomes(np.array(b["scores"]), np.array(b["labels"])))

    def test_kept_theta1_is_paired_once(self, monkeypatch):
        calls, cells = self.count_paired_tests(monkeypatch, 0.0, [0, 1])
        assert len(calls) == 2 * 2   # curriculum1's two splits per seed
        for seed in (0, 1):
            by = {c["strategy"]: c for c in cells if c["seed"] == seed}
            assert by["curriculum2"]["best_epoch"] == -1
            for split in ("in_domain", "ood"):
                p1 = by["curriculum1"]["metrics"][split]["p_vs_baseline"]
                assert by["curriculum2"]["metrics"][split]["p_vs_baseline"] == p1
                assert p1 == self.list_p_value(by["curriculum1"], by["baseline"],
                                               split)

    def test_moved_theta2_is_paired(self, monkeypatch):
        calls, cells = self.count_paired_tests(monkeypatch, 5e-3, [0])
        by = {c["strategy"]: c for c in cells}
        assert by["curriculum2"]["best_epoch"] == 0
        assert len(calls) == 4
        for strategy in ("curriculum1", "curriculum2"):
            for split in ("in_domain", "ood"):
                assert (by[strategy]["metrics"][split]["p_vs_baseline"]
                        == self.list_p_value(by[strategy], by["baseline"], split))

    def test_baseline_theta_is_scored_once_and_paired_once(self, monkeypatch):
        # with alpha = 1 curriculum1's theta is the baseline's, and a zero
        # stage-2 lr keeps it: the three cells share what was computed for
        # the baseline, and only the two others get p-values, from one
        # paired test per split
        d = tiny_dict(seeds=[3])
        d["curriculum1"].update(alpha=1.0, a=0.79, b=0.2)  # thres < 1 always
        d["curriculum2"]["lr"] = 0.0
        evaluated, paired, cells = self.count_calls(monkeypatch, d)
        by = {c["strategy"]: c for c in cells}
        assert len(evaluated) == 1
        assert len(paired) == 2
        for split in ("in_domain", "ood"):
            assert "p_vs_baseline" not in by["baseline"]["metrics"][split]
            for strategy in ("curriculum1", "curriculum2"):
                assert by[strategy]["metrics"][split]["p_vs_baseline"] == 1.0

    @pytest.mark.parametrize("workers", [0, -3, 1.5])
    def test_workers_below_one_rejected(self, workers):
        cfg = config_from_dict(tiny_dict(seeds=[0]))
        with pytest.raises(ValidationError, match="workers"):
            run_experiment(cfg, workers=workers)
        with pytest.raises(ValidationError, match="workers"):
            harness.run_ablation_alpha(cfg, [0.1], workers=workers)

    def test_pool_workers_load_single_threaded_blas(self, monkeypatch):
        monkeypatch.setenv("OMP_NUM_THREADS", "3")
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        before = dict(os.environ)
        names = ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"]
        assert harness._per_seed(os.getenv, names, workers=2) == ["1"] * 3
        assert dict(os.environ) == before   # the parent's is restored
        # one worker runs in this process, whose environment is not touched
        assert harness._per_seed(os.getenv, names, workers=1) == [None, "3", None]

    def test_deterministic_modulo_wall_clock(self):
        cfg = config_from_dict(tiny_dict())
        a = run_experiment(cfg)
        b = run_experiment(cfg, workers=2)
        assert strip_wall_clock(a.cells) == strip_wall_clock(b.cells)

    def test_alpha_one_curriculum1_equals_baseline(self):
        # with alpha = 1 the top-K set is the whole batch, so stage 1 must
        # reproduce the baseline trajectory bit for bit
        d = tiny_dict(seeds=[3])
        d["curriculum1"].update(alpha=1.0, a=0.79, b=0.2)  # thres < 1 always
        report = run_experiment(config_from_dict(d))
        by = {c["strategy"]: c for c in report.cells}
        assert by["curriculum1"]["val"] == by["baseline"]["val"]
        for split in ("in_domain", "ood"):
            assert (by["curriculum1"]["metrics"][split]["scores"]
                    == by["baseline"]["metrics"][split]["scores"])

    def test_paired_p_values_only_on_non_baseline(self):
        report = run_experiment(config_from_dict(tiny_dict(seeds=[0])))
        by = {c["strategy"]: c for c in report.cells}
        assert "p_vs_baseline" not in by["baseline"]["metrics"]["ood"]
        for s in ("curriculum1", "curriculum2"):
            for split in ("in_domain", "ood"):
                p = by[s]["metrics"][split]["p_vs_baseline"]
                assert 0.0 <= p <= 1.0

    def test_strategies_run_in_stage_order(self):
        d = tiny_dict(seeds=[0],
                      strategies=["curriculum2", "curriculum1", "baseline"])
        report = run_experiment(config_from_dict(d))
        assert report.all_ok
        assert [c["strategy"] for c in report.cells] == list(harness.STRATEGIES)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_stage2_names_the_failed_stage1(self):
        d = tiny_dict(seeds=[0])
        d["curriculum1"]["lr"] = 1e200   # diverges to non-finite logits
        by = {c["strategy"]: c for c in run_experiment(config_from_dict(d)).cells}
        assert by["baseline"]["status"] == "ok"
        assert by["curriculum1"]["status"] == "failed"
        assert "at epoch 0, iteration" in by["curriculum1"]["error"]
        assert by["curriculum2"]["status"] == "failed"
        assert "curriculum1 failed" in by["curriculum2"]["error"]
        assert by["curriculum1"]["error"] in by["curriculum2"]["error"]

    def test_traced_functions_are_called_through_the_module(self, monkeypatch):
        # a tracer wraps these module attributes, so a run must call them
        # there and not through functions taken when a module was imported
        calls = collections.Counter()
        for name in ("finetune_plain", "run_stage", "decide_update_stage1",
                     "decide_update_stage2"):
            def counting(*args, _name=name, _wrapped=getattr(curriculum, name),
                         **kwargs):
                calls[_name] += 1
                return _wrapped(*args, **kwargs)
            monkeypatch.setattr(curriculum, name, counting)
        d = tiny_dict()
        report = run_experiment(config_from_dict(d))
        assert report.all_ok
        steps = collections.Counter()
        for c in report.cells:
            steps[c["strategy"]] += len(c["curve"])
        n = len(d["seeds"])
        # one pretraining per seed, which runs one stage, plus one per cell
        assert calls == {"finetune_plain": n, "run_stage": n + len(report.cells),
                         "decide_update_stage1": steps["curriculum1"],
                         "decide_update_stage2": steps["curriculum2"]}

    @pytest.mark.parametrize("strategies", [
        ["baseline"], ["curriculum1"], ["baseline", "curriculum1"],
        ["curriculum1", "curriculum2"]])
    def test_a_subset_of_strategies_gives_the_full_runs_cells(
            self, strategies, full_tiny_cells):
        full = [c for c in strip_wall_clock(full_tiny_cells)
                if c["strategy"] in strategies]
        if "baseline" not in strategies:
            for c in full:
                for m in c["metrics"].values():
                    m.pop("p_vs_baseline", None)
        d = tiny_dict(slides=SLIDES, strategies=strategies)
        assert strip_wall_clock(run_experiment(config_from_dict(d)).cells) == full

    def test_a_row_added_to_the_table_runs(self, monkeypatch):
        # stage 2 without selection: from theta_1, with curriculum2's rule,
        # section and shuffles, keeping its final epoch
        row = curriculum.Strategy("stage2_unselected", "curriculum2",
                                  "decide_update_stage2", start="curriculum1",
                                  shuffle_offset=4000)
        monkeypatch.setattr(curriculum, "STRATEGY_TABLE",
                            curriculum.STRATEGY_TABLE + (row,))
        names = [*harness.STRATEGIES, row.name]
        d = tiny_dict(seeds=[0, 1, 2, 3], strategies=names)
        d["curriculum2"].update(epochs=3, lr=5e-3)
        with pytest.raises(ValidationError, match="stage2_unselected requires "
                                                  "curriculum1"):
            config_from_dict(dict(d, strategies=["baseline", row.name]))
        report = run_experiment(config_from_dict(d))
        assert report.all_ok
        kept_last = set()
        for seed in d["seeds"]:
            cells = [c for c in report.cells if c["seed"] == seed]
            assert [c["strategy"] for c in cells] == names
            stage2, unselected = cells[2:]
            assert unselected["curve"] == stage2["curve"]
            assert unselected["best_epoch"] is None
            assert "p_vs_baseline" in unselected["metrics"]["ood"]
            # its metrics are those of its final epoch's parameters, which
            # are curriculum2's where curriculum2 kept its final epoch
            if stage2["best_epoch"] == 2:
                kept_last.add(seed)
            assert (unselected["metrics"] == stage2["metrics"]) == (seed in kept_last)
        assert 0 < len(kept_last) < len(d["seeds"])

    def test_code_version_is_package_version(self):
        assert RunReport(config_hash="").code_version == hadcl.__version__

    def test_report_json_round_trip(self, tmp_path):
        failing = tiny_dict(seeds=[0])
        failing["curriculum1"]["lr"] = 1e200   # curriculum1 and 2 fail
        kept = tiny_dict(slides=SLIDES)
        kept["curriculum2"]["lr"] = 0.0   # every curriculum2 cell keeps theta_1
        no_baseline = dict(kept, strategies=["curriculum1", "curriculum2"])
        reports = {"tiny_run": run_experiment(config_from_dict(tiny_dict(seeds=[0]))),
                   "empty": RunReport(config_hash="h"),
                   "failed_cell": run_experiment(config_from_dict(failing)),
                   "kept_theta1": run_experiment(config_from_dict(kept)),
                   "no_baseline": run_experiment(config_from_dict(no_baseline))}
        assert not reports["failed_cell"].all_ok
        # cells written as "metrics_from": one per kept theta_1
        n_from = {"tiny_run": 1, "empty": 0, "failed_cell": 0, "kept_theta1": 2,
                  "no_baseline": 2}
        for name, report in reports.items():
            path = tmp_path / f"{name}.json"
            report.to_json(path)
            raw = path.read_text()
            # same values and the same key order at every level, one line
            # each, and no summary: summary() computes it on read
            assert [json.dumps(json.loads(line)) for line in raw.splitlines()] == \
                [json.dumps(line) for line in v3_lines(report)], name
            assert raw.endswith("\n") and '"summary"' not in raw
            assert raw.count('"metrics_from"') == n_from[name], name
            back = RunReport.from_json(path)
            assert back.cells == report.cells
            assert (back.config_hash, back.code_version) == \
                (report.config_hash, report.code_version)
            # a restored cell has split dicts of its own, as run_seed's have
            written = written_cells(report.cells)
            for cell, w in zip(back.cells, written):
                if "metrics_from" in w:
                    source = back.cells[w["metrics_from"]]["metrics"]
                    for split, m in cell["metrics"].items():
                        assert m is not source[split]
                        assert m["scores"] is source[split]["scores"]
            # written again, the loaded report gives the same bytes
            back.to_json(tmp_path / "again.json")
            assert (tmp_path / "again.json").read_text() == raw

    def test_failed_write_keeps_the_old_file(self, tmp_path):
        path = tmp_path / "report.json"
        path.write_text("earlier")
        cell = {"strategy": "baseline", "seed": 0, "status": "failed",
                "error": object(), "wall_clock": 0.0}
        with pytest.raises(TypeError):   # its seed line is not JSON
            RunReport(config_hash="h", cells=[cell]).to_json(path)
        assert [p.name for p in tmp_path.iterdir()] == ["report.json"]
        assert path.read_text() == "earlier"

    def test_bad_schema_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        header = report_lines([])[0]
        bad = [json.dumps(dict(header, schema="other.v9")), "{not json", "[]"]
        bad += [json.dumps({k: v for k, v in header.items() if k != key})
                for key in ("config_hash", "code_version", "seeds")]
        split = dict(SCORED, scores=[0.2, 0.7], labels=[0, 1])
        cell = {"strategy": "baseline", "seed": 0, "status": "ok", "val": SCORED,
                "metrics": {"in_domain": split, "ood": split}}
        for cells in (5, [5]):   # a seed line whose cells are not cells
            lines = report_lines([cell])
            lines[1]["cells"] = cells
            bad.append(lines_text(lines))
        bad_cells = [
            [{k: v for k, v in cell.items() if k != "status"}],
            [{k: v for k, v in cell.items() if k != "seed"}],
            [{k: v for k, v in cell.items() if k != "metrics"}],
            [dict(cell, curve=5)],
            [dict(cell, curve=[{"epoch": 0}])],
            [dict(cell, curve=[5])],
            [dict(cell, metrics={"in_domain": split})],
            [dict(cell, metrics={"in_domain": split, "ood": 5})],
            [dict(cell, metrics={"in_domain": split,
                                 "ood": dict(split, labels=[0])})],
            [dict(cell, metrics={"in_domain": split,
                                 "ood": dict(split, scores=0.5)})],
            [dict(cell, metrics=dict(cell["metrics"], slide={"scores": []}))],
            [dict(cell, metrics=dict(cell["metrics"],
                                     slide={"scores": [0.5], "labels": []}))],
        ]
        bad += [report_json(cells) for cells in bad_cells]
        for text in bad:
            path.write_text(text)
            with pytest.raises(ValidationError):
                RunReport.from_json(path)
        # the well-formed cells load, a failed cell needing no metrics
        failed = {"strategy": "baseline", "seed": 1, "status": "failed",
                  "error": "diverged"}
        path.write_text(report_json([cell, failed]))
        assert len(RunReport.from_json(path).cells) == 2


    @pytest.mark.parametrize("path,value", [
        (("val",), None), (("val", "auc"), None), (("val", "accuracy"), None),
        (("in_domain", "auc"), None), (("ood", "accuracy"), None),
        (("slide", "auc"), None), (("val", "auc"), "0.9"),
        (("ood", "auc"), True), (("in_domain", "accuracy"), [0.5]),
    ], ids=["no_val", "no_val_auc", "no_val_accuracy", "no_in_domain_auc",
            "no_ood_accuracy", "no_slide_auc", "string_val_auc", "bool_ood_auc",
            "list_in_domain_accuracy"])
    def test_cell_without_summary_numbers_rejected(self, tmp_path, path, value):
        # from_json rejects a report that summary(), and so to_json, cannot
        # read, naming the cell
        split = dict(SCORED, scores=[0.2, 0.7], labels=[0, 1])
        cell = {"strategy": "curriculum1", "seed": 4, "status": "ok",
                "val": dict(SCORED), "metrics": {
                    name: dict(split) for name in ("in_domain", "ood", "slide")}}
        failed = {"strategy": "baseline", "seed": 4, "status": "failed",
                  "error": "diverged"}
        # the well-formed cell loads and writes, slide accuracy not needed
        del cell["metrics"]["slide"]["accuracy"]
        report = report_via_json(tmp_path, [failed, cell])
        report.to_json(tmp_path / "again.json")
        holder = cell if path[0] == "val" else cell["metrics"]
        if len(path) == 1:
            del holder[path[0]]
        else:
            target = holder[path[0]]
            if value is None:
                del target[path[1]]
            else:
                target[path[1]] = value
        with pytest.raises(ValidationError, match=r" cell 1: .*needs a numeric"):
            report_via_json(tmp_path, [failed, cell])


class TestGoldenReport:
    # sha256 of a seeded run's cells without wall_clock (json.dumps with
    # sorted keys) and of the curves.tsv and roc.tsv emit_plot_data writes
    # for it. Any change to data, training numerics, evaluation, the report
    # cells or the plot format moves them.
    CELLS = "945232a96d0a909232034445e117b9c4fb790c8fb5a2145e87755f36943457e0"
    CURVES = "a2dab121d7b2bd484bc67389749219672b28f5be0074730ebe45a1c94159e91e"
    ROC = "0401cb9cdec6c432786110f818c79607a50c0ebc37cc22e65ccac6b85410b20e"

    @staticmethod
    def config():
        return config_from_dict(tiny_dict(seeds=[0], slides=SLIDES))

    def test_cells_and_plot_data_match_digests(self, tmp_path):
        report = run_experiment(self.config())
        cells = json.dumps(strip_wall_clock(report.cells), sort_keys=True)
        paths = harness.emit_plot_data(report, tmp_path)
        digests = [hashlib.sha256(cells.encode()).hexdigest()]
        digests += [hashlib.sha256(Path(paths[key]).read_bytes()).hexdigest()
                    for key in ("curves", "roc")]
        assert digests == [self.CELLS, self.CURVES, self.ROC]


def metrics_from_cells(**over) -> list:
    """An ok cell, a failed one, an ok cell (index 2) with no metrics, whose
    keys, metrics_from among them, `over` sets, and an ok cell of its seed."""
    split = {"accuracy": 0.5, "auc": 1.0, "scores": [0.2, 0.7], "labels": [0, 1]}
    ok = {"strategy": "baseline", "seed": 0, "status": "ok",
          "val": {"accuracy": 0.5, "auc": 1.0},
          "metrics": {"in_domain": split, "ood": split}}
    cell = dict({"strategy": "curriculum2", "seed": 0, "status": "ok",
                 "val": ok["val"]}, **over)
    return [ok, {"strategy": "curriculum1", "seed": 0, "status": "failed",
                 "error": "diverged"},
            cell, dict(ok, strategy="curriculum1", seed=cell["seed"])]


class TestReportV2:
    def test_only_repeats_that_encode_equally_are_shared(self, tmp_path):
        # equal copies are written once; 0.0 == -0.0 and 1 == 1.0, but each
        # is written differently, so such a cell keeps its metrics
        base = metrics_from_cells()[0]
        base["metrics"]["ood"] = dict(base["metrics"]["ood"], scores=[0.0, 0.7])
        cells = [copy.deepcopy(base) for _ in range(4)]
        cells[2]["metrics"]["ood"]["scores"] = [-0.0, 0.7]
        cells[3]["metrics"]["ood"]["labels"] = [0.0, 1]
        assert all(c["metrics"] == base["metrics"] for c in cells)
        path = tmp_path / "report.json"
        RunReport("", cells).to_json(path)
        raw = written_v3_cells(path)
        assert [c.get("metrics_from") for c in raw] == [None, 0, None, None]
        # float labels encode unlike the line's int labels, so stay inline
        assert ["labels" in c["metrics"]["ood"] for c in raw if "metrics" in c] \
            == [False, False, True]
        back = RunReport.from_json(path).cells
        assert back == cells
        assert [repr(c["metrics"]["ood"]["scores"][0]) for c in back] == \
            ["0.0", "0.0", "-0.0", "0.0"]
        assert repr(back[3]["metrics"]["ood"]["labels"][0]) == "0.0"

    def test_shared_repeat_is_not_encoded(self, monkeypatch):
        # split dicts holding the same objects, as run_seed's cells of one
        # parameter vector do, are a repeat without encoding them; the same
        # objects in another key order are not one
        base = metrics_from_cells()[0]
        shared = dict(base, strategy="curriculum2", metrics={
            split: dict(m) for split, m in base["metrics"].items()})
        reordered = dict(base, strategy="curriculum2", metrics={
            split: dict(reversed(m.items())) for split, m in base["metrics"].items()})
        encoded = []
        dumps = json.dumps
        monkeypatch.setattr(json, "dumps",
                            lambda obj, **kw: encoded.append(obj) or dumps(obj, **kw))
        written = reportfile._seed_line([base, shared], 0)["cells"]
        assert written[1]["metrics_from"] == 0 and "metrics" not in written[1]
        # the index is the report's: the line's first cell is cell `start`
        assert reportfile._seed_line([base, shared], 3)["cells"][1]["metrics_from"] == 3
        assert encoded == []
        written = reportfile._seed_line([base, reordered], 0)["cells"]
        assert "metrics" in written[1] and "metrics_from" not in written[1]
        assert encoded == [base["metrics"], reordered["metrics"]]

    @pytest.mark.parametrize("over", [
        {"metrics_from": True}, {"metrics_from": -1}, {"metrics_from": 2},
        {"metrics_from": 3}, {"metrics_from": "0"}, {"metrics_from": 1},
        {"metrics_from": 0, "seed": 1},
        {"metrics_from": 0, "metrics": {}},
    ], ids=["bool", "negative", "self", "forward", "string", "failed_cell",
            "other_seed", "with_metrics"])
    def test_malformed_metrics_from_rejected(self, tmp_path, capsys, over):
        path = tmp_path / "report.json"
        path.write_text(report_json(metrics_from_cells(**over)))
        with pytest.raises(ValidationError, match=r" cell 2\b"):
            RunReport.from_json(path)
        assert_emit_plots_rejects(path, tmp_path, capsys, " cell 2")

    def test_metrics_from_restores_the_named_cell(self, tmp_path):
        path = tmp_path / "report.json"
        cells = metrics_from_cells(metrics_from=0)
        path.write_text(report_json(cells))
        back = RunReport.from_json(path).cells
        assert back[2] == {"strategy": "curriculum2", "seed": 0, "status": "ok",
                           "val": cells[0]["val"], "metrics": cells[0]["metrics"]}


def two_seed_cells() -> list:
    """An ok cell for each of seeds 0 and 1, with a two-record curve."""
    split = dict(SCORED, scores=[0.2, 0.7, 0.4], labels=[0, 1, 1])
    curve = [{"epoch": 0, "t": t, "thres": 0.9, "k": 1, "k_prime": None,
              "branch": "total", "mean_loss": 0.5, "lr": 1e-3} for t in (0, 1)]
    return [{"strategy": "baseline", "seed": seed, "status": "ok",
             "val": dict(SCORED),
             "metrics": {"in_domain": dict(split), "ood": dict(split)},
             "curve": copy.deepcopy(curve), "best_epoch": None, "wall_clock": 0.0}
            for seed in (0, 1)]


def first_ood(lines) -> dict:
    return lines[1]["cells"][0]["metrics"]["ood"]


def first_curve(lines) -> dict:
    return lines[1]["cells"][0]["curve"]


def metrics_from_first_cell(cell: dict) -> None:
    del cell["metrics"]
    cell["metrics_from"] = 0


# edits of the v3 report of two_seed_cells, as a list of its parsed lines,
# and the place and message of the error each must raise
MALFORMED_V3 = {
    "no_header": (lambda lines: lines.pop(0),
                  r"line 1: not a hadcl\.run_report\.v3 header"),
    "v2_header": (lambda lines: lines[0].update(schema="hadcl.run_report.v2"),
                  r"line 1: not a hadcl\.run_report\.v3 header"),
    "header_without_seeds": (lambda lines: lines[0].pop("seeds"),
                             r"line 1: the header lacks \['seeds'\]"),
    "bool_header_seed": (lambda lines: lines[0].update(seeds=[False, 1]),
                         r"line 1: seeds must be distinct non-negative integers"),
    "line_not_json": (lambda lines: lines.__setitem__(2, "{not json"),
                      r"line 3: Expecting"),
    "seed_not_in_header": (lambda lines: lines[2].update(seed=7),
                           r"line 3: seed 7 is not the next of the header's seeds"),
    "seed_line_missing": (lambda lines: lines.pop(2),
                          r"lacks the lines of seeds \[1\]"),
    "cell_of_another_seed": (lambda lines: lines[2]["cells"][0].update(seed=0),
                             r"line 3 cell 1: seed 0 is not its line's seed 1"),
    "bool_cell_seed": (lambda lines: lines[2]["cells"][0].update(seed=True),
                       r"line 3 cell 1: seed must be a non-negative integer"),
    # base64 with a character outside its alphabet, which a lax decoder skips
    "scores_not_base64": (
        lambda lines: first_ood(lines).update(scores="*" + b64([0.2, 0.7, 0.4])),
        r"line 2 cell 0 split 'ood': scores are not base64"),
    "scores_a_list": (lambda lines: first_ood(lines).update(scores=[0.2, 0.7, 0.4]),
                      r"line 2 cell 0 split 'ood': scores must be base64 text"),
    "scores_not_whole_float64s": (
        lambda lines: first_ood(lines).update(scores=b64([1, 2, 3], "<i4")),
        r"line 2 cell 0 split 'ood': scores hold 12 bytes"),
    "scores_longer_than_labels": (
        lambda lines: first_ood(lines).update(scores=b64([0.2, 0.7, 0.4, 0.1])),
        r"line 2 cell 0: metrics 'ood' needs scores and labels lists of equal"),
    "labels_nowhere": (lambda lines: lines[1]["labels"].pop("ood"),
                       r"line 2 cell 0 split 'ood' has no labels"),
    "curve_column_not_a_list": (lambda lines: first_curve(lines).update(thres=0.9),
                                r"line 2 cell 0: curve must map keys to lists"),
    "curve_columns_of_unequal_length": (lambda lines: first_curve(lines)["lr"].pop(),
                                        r"line 2 cell 0: curve columns differ"),
    "curve_without_a_column": (lambda lines: first_curve(lines).pop("branch"),
                               r"line 2 cell 0: curve must be a list of records"),
    "metrics_and_metrics_from": (
        lambda lines: lines[2]["cells"][0].update(metrics_from=0),
        r"line 3 cell 1 has both metrics and metrics_from"),
    "metrics_from_another_seed": (
        lambda lines: metrics_from_first_cell(lines[2]["cells"][0]),
        r"line 3 cell 1: metrics_from 0 is not an ok cell of seed 1"),
}


class TestReportV3:
    # the smoke config's report, written by an earlier build. It is made,
    # from the repository root, by this one command:
    #   PYTHONPATH=src python -c "from hadcl.harness import load_config, run_experiment; \
    #     run_experiment(load_config('configs/smoke.yaml')) \
    #     .to_json('tests/data/smoke_report_v3.json')"
    FIXTURE = Path(__file__).resolve().parent / "data" / "smoke_report_v3.json"
    # sha256 of the curves.tsv and roc.tsv that emit-plots wrote for the
    # fixture with the code that wrote it
    FIXTURE_CURVES = "a3e9ba0eb6dc4a03be1788ecdb4e0e69ffe39a6dc5a03bd315ec8cf717ec95ca"
    FIXTURE_ROC = "6a20e9de2ea409ffb9037ecaee63dce1a030daccbc2e0f960bccfaf3ad730dc3"

    def test_committed_report_of_the_smoke_config_matches_a_fresh_run(
            self, tmp_path, capsys):
        root = Path(__file__).resolve().parents[1]
        report = run_experiment(harness.load_config(root / "configs" / "smoke.yaml"))
        report.to_json(tmp_path / "report.json")
        old = RunReport.from_json(self.FIXTURE)
        new = RunReport.from_json(tmp_path / "report.json")
        assert strip_wall_clock(old.cells) == strip_wall_clock(new.cells) \
            == strip_wall_clock(report.cells)
        assert old.config_hash == new.config_hash
        digests = []
        for name, path in (("old", self.FIXTURE), ("new", tmp_path / "report.json")):
            assert cli.main(["emit-plots", "--report", str(path),
                             "--output-dir", str(tmp_path / name)]) == 0
            digests.append([hashlib.sha256((tmp_path / name / f).read_bytes())
                            .hexdigest() for f in ("curves.tsv", "roc.tsv")])
        assert digests == [[self.FIXTURE_CURVES, self.FIXTURE_ROC]] * 2

    @pytest.mark.parametrize("schema,val_in_metrics", [
        ("hadcl.run_report.v1", False), ("hadcl.run_report.v1", True),
        ("hadcl.run_report.v2", False)], ids=["v1", "v1_metrics_val", "v2"])
    @pytest.mark.parametrize("indent", [None, 1], ids=["compact", "indented"])
    def test_earlier_schemas_rejected(self, tmp_path, capsys, schema,
                                      val_in_metrics, indent):
        # a whole-document report of an earlier schema, with scores and
        # labels as JSON lists and curves as records, is not read; in v1 an
        # ok cell's validation split was metrics["val"]
        cells = two_seed_cells()
        if val_in_metrics:
            cells[0]["metrics"]["val"] = dict(cells[0].pop("val"),
                                              scores=[0.2, 0.7], labels=[0, 1])
        path = tmp_path / "report.json"
        path.write_text(json.dumps({"schema": schema, "config_hash": "h",
                                    "code_version": "0", "cells": cells},
                                   indent=indent))
        message = f"unknown report schema {schema!r}"
        with pytest.raises(ValidationError, match=re.escape(message)):
            RunReport.from_json(path)
        assert_emit_plots_rejects(path, tmp_path, capsys, message)

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(st.floats(), max_size=40))
    @example([-0.0, 0.0, 1.0, 5e-324, 2.2250738585072009e-308, math.inf, -math.inf])
    def test_scores_round_trip_bit_exact(self, tmp_path, scores):
        cells = two_seed_cells()
        cells[1]["metrics"]["ood"] = dict(
            SCORED, scores=scores, labels=[i % 2 for i in range(len(scores))])
        path = tmp_path / "report.json"
        RunReport("", cells).to_json(path)
        back = RunReport.from_json(path).cells[1]["metrics"]["ood"]["scores"]
        assert all(type(s) is float for s in back)
        assert np.asarray(back, "<f8").tobytes() == np.asarray(scores, "<f8").tobytes()

    def test_labels_written_once_per_seed(self, tmp_path):
        # each split's labels are in its seed line; a cell whose labels
        # differ from them keeps its own
        report = run_experiment(config_from_dict(tiny_dict(slides=SLIDES)))
        cells = copy.deepcopy(report.cells)
        assert cells[1]["strategy"] == "curriculum1" and cells[1]["seed"] == 0
        ood = cells[1]["metrics"]["ood"]
        ood["labels"] = [1 - y for y in ood["labels"]]
        path = tmp_path / "report.json"
        RunReport("", cells).to_json(path)
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert [list(line) for line in lines[1:]] == [["seed", "labels", "cells"]] * 2
        assert [list(line["labels"]) for line in lines[1:]] == \
            [["in_domain", "ood", "slide"]] * 2
        inline = [(c["seed"], c["strategy"], split)
                  for line in lines[1:] for c in line["cells"]
                  for split, m in c.get("metrics", {}).items() if "labels" in m]
        assert inline == [(0, "curriculum1", "ood")]
        assert RunReport.from_json(path).cells == cells

    @pytest.mark.parametrize("edit,message", [
        (lambda cells: cells.append(cells[0]), "seed 0 are not contiguous"),
        (lambda cells: cells[1]["curve"][1].update(extra=1),
         "seed 1: curve records must have exactly the keys"),
        (lambda cells: cells[1]["curve"][0].pop("lr"),
         "seed 1: curve records must have exactly the keys"),
    ], ids=["seed_not_contiguous", "curve_key_extra", "curve_key_missing"])
    def test_cells_v3_cannot_hold_are_not_written(self, tmp_path, edit, message):
        cells = two_seed_cells()
        edit(cells)
        path = tmp_path / "report.json"
        path.write_text("earlier")
        with pytest.raises(ValidationError, match=message):
            RunReport("", cells).to_json(path)
        assert [p.name for p in tmp_path.iterdir()] == ["report.json"]
        assert path.read_text() == "earlier"

    @pytest.mark.parametrize("edit,message", list(MALFORMED_V3.values()),
                             ids=list(MALFORMED_V3))
    def test_malformed_v3_rejected(self, tmp_path, capsys, edit, message):
        path = tmp_path / "report.json"
        RunReport("", two_seed_cells()).to_json(path)
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert RunReport.from_json(path).cells == two_seed_cells()
        edit(lines)
        path.write_text("\n".join(line if isinstance(line, str) else json.dumps(line)
                                   for line in lines) + "\n")
        with pytest.raises(ValidationError, match=message) as exc:
            RunReport.from_json(path)
        assert_emit_plots_rejects(path, tmp_path, capsys, str(exc.value))

    @pytest.mark.parametrize("over,message", [
        ({"seed": [0]}, "seed [0] is not its line's seed 1"),
        ({"seed": "0"}, "seed '0' is not its line's seed 1"),
        ({"seed": True}, "seed must be a non-negative integer, got True"),
        ({"seed": -1}, "seed -1 is not its line's seed 1"),
        ({"seed": 1.5}, "seed 1.5 is not its line's seed 1"),
        ({"seed": 1.0}, "seed must be a non-negative integer, got 1.0"),
        ({"strategy": "curriculum3"}, "strategy must be one of"),
        ({"strategy": None}, "strategy must be one of"),
        ({"strategy": ["baseline"]}, "strategy must be one of"),
    ], ids=["list_seed", "string_seed", "bool_seed", "negative_seed", "float_seed",
            "float_seed_equal_to_the_line's", "unknown_strategy", "null_strategy",
            "list_strategy"])
    def test_cell_seed_and_strategy_checked(self, tmp_path, capsys, over, message):
        # a seed other than its line's fails that comparison; only one equal
        # to it, a bool or a float, reaches the cell's own seed check
        lines = report_lines(two_seed_cells())
        lines[2]["cells"][0].update(over)
        path = tmp_path / "report.json"
        path.write_text(lines_text(lines))
        with pytest.raises(ValidationError,
                           match=r"line 3 cell 1: " + re.escape(message)) as exc:
            RunReport.from_json(path)
        assert_emit_plots_rejects(path, tmp_path, capsys, str(exc.value))


class TestAblation:
    def test_sweep_runs_only_curriculum1(self):
        cfg = config_from_dict(tiny_dict(seeds=[0]))
        reports = harness.run_ablation_alpha(cfg, [0.1, 0.5])
        assert len(reports) == 2
        for report in reports:
            assert report.all_ok
            assert report.config_hash == cfg.config_hash
            assert 0.0 <= report.summary()["curriculum1"]["median_auc_val"] <= 1.0
            assert {c["strategy"] for c in report.cells} == {"curriculum1"}

    def test_bad_grid_rejected(self, monkeypatch):
        monkeypatch.setattr(harness, "run_seed",
                            lambda *a, **k: pytest.fail("training started"))
        cfg = config_from_dict(tiny_dict(seeds=[0]))
        for grid, message in (
                ([0.0, 0.1], "alpha must be in"),
                ([0.1, 0.3, 0.1], r"duplicate alpha in \[0.1, 0.3, 0.1\]")):
            with pytest.raises(ValidationError, match=message):
                harness.run_ablation_alpha(cfg, grid)

    # at batch_size 20, alpha 0.10 and 0.11 both give K = 2; 0.3 gives K = 6
    GRID = (0.10, 0.11, 0.3)

    def test_entries_equal_one_run_per_alpha(self):
        cfg = config_from_dict(tiny_dict(slides=SLIDES))
        assert [replace(cfg.curriculum1, alpha=a).top_k for a in self.GRID] == [2, 2, 6]
        # each alpha's report, in grid order, is its curriculum1-only run's
        reports = harness.run_ablation_alpha(cfg, self.GRID)
        assert len(reports) == len(self.GRID)
        for alpha, report in zip(self.GRID, reports):
            # the whole experiment, pretraining included, for this alpha only
            alone = run_experiment(replace(
                cfg, curriculum1=replace(cfg.curriculum1, alpha=alpha),
                strategies=("curriculum1",)))
            assert strip_wall_clock(report.cells) == strip_wall_clock(alone.cells)
            assert report.config_hash == alone.config_hash
            assert report.all_ok and alone.all_ok
            medians = report.summary()["curriculum1"]
            for key in ("auc", "accuracy"):
                assert medians[f"median_{key}_val"] == float(np.median(
                    [c["val"][key] for c in alone.cells]))

    def test_workers_give_equal_sweeps(self):
        cfg = config_from_dict(tiny_dict(slides=SLIDES))
        one, two = ([(r.config_hash, strip_wall_clock(r.cells))
                     for r in harness.run_ablation_alpha(cfg, self.GRID, workers=w)]
                    for w in (1, 2))
        assert len(one) == len(self.GRID)
        assert one == two

    def test_data_and_pretraining_once_per_seed(self, monkeypatch):
        calls = collections.Counter()
        for module, name in ((curriculum, "finetune_plain"),
                             (data, "generate_blobs"), (data, "generate_slides")):
            def counting(*args, _name=name, _wrapped=getattr(module, name),
                         **kwargs):
                calls[_name] += 1
                return _wrapped(*args, **kwargs)
            monkeypatch.setattr(module, name, counting)
        d = tiny_dict(slides=SLIDES)
        reports = harness.run_ablation_alpha(config_from_dict(d), self.GRID)
        assert all(r.all_ok for r in reports)
        n = len(d["seeds"])
        assert calls == {"finetune_plain": n, "generate_blobs": 4 * n,
                         "generate_slides": 2 * n}
        calls.clear()
        assert harness.run_ablation_alpha(config_from_dict(d), []) == []
        assert not calls   # an empty grid trains nothing

    def test_stage2_follows_each_stage1(self):
        cfg = config_from_dict(tiny_dict(seeds=[0]))
        stages = [replace(cfg.curriculum1, alpha=a) for a in (0.10, 0.3)]
        cells = harness.run_seed(cfg, 0, stages)
        assert [c["strategy"] for c in cells] == [
            "baseline", "curriculum1", "curriculum2", "curriculum1", "curriculum2"]
        alone = run_experiment(replace(cfg, curriculum1=stages[1])).cells
        assert strip_wall_clock(cells[:1] + cells[3:]) == strip_wall_clock(alone)


class TestEmitPlots:
    def test_row_counts_and_byte_stability(self, tmp_path):
        report = run_experiment(config_from_dict(tiny_dict(seeds=[0])))
        paths = harness.emit_plot_data(report, tmp_path / "a")
        n_curve_rows = sum(len(c["curve"]) for c in report.cells)
        with open(paths["curves"]) as f:
            lines = f.readlines()
        assert lines[0] == harness.CURVES_HEADER
        assert len(lines) == 1 + n_curve_rows
        with open(paths["roc"]) as f:
            roc_lines = f.readlines()
        assert roc_lines[0] == harness.ROC_HEADER
        assert len(roc_lines) > 1
        again = harness.emit_plot_data(report, tmp_path / "b")
        for key in ("curves", "roc"):
            assert Path(paths[key]).read_bytes() == Path(again[key]).read_bytes()

    def test_empty_report_writes_headers_only(self, tmp_path):
        paths = harness.emit_plot_data(RunReport(config_hash=""), tmp_path)
        assert Path(paths["curves"]).read_text() == harness.CURVES_HEADER
        assert Path(paths["roc"]).read_text() == harness.ROC_HEADER

    def test_roc_endpoints(self):
        rows = harness.roc_points([0.9, 0.8, 0.3, 0.1], [1, 1, 0, 0])
        thresholds = [r[0] for r in rows]
        assert thresholds == sorted(thresholds, reverse=True)
        assert rows[-1][1:] == (1.0, 1.0)
        assert rows[0][2] > 0.0

    @staticmethod
    def per_threshold_roc(scores, labels):
        """The reference: one full scan of the scores per distinct score."""
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

    def test_roc_points_match_per_threshold_scan(self):
        for scores, labels in roc_cases():
            rows = harness.roc_points(scores, labels)
            want = self.per_threshold_roc(scores, labels)
            assert rows == want
            assert repr(rows) == repr(want)   # the bytes roc.tsv gets

    @staticmethod
    def assert_roc_tsv_as_formatted_per_row(tmp_path, splits):
        """emit_plot_data's roc.tsv for a report whose ok cells hold `splits`,
        three to a cell, equals rows formatted one by one, with a repr per
        column, over roc_points. The report goes through its JSON file, as
        emit-plots reads it, and a failed cell follows the first ok one."""
        names = ("in_domain", "ood", "slide")
        splits = [(np.asarray(s).tolist(), np.asarray(y).tolist()) for s, y in splits]
        splits += [([], [])] * (-len(splits) % 3)   # an empty split has no rows
        ok = [{"strategy": harness.STRATEGIES[i % 3], "seed": i // 3,
               "status": "ok", "val": SCORED, "metrics": {
                   name: dict(SCORED, scores=s, labels=y)
                   for name, (s, y) in zip(names, splits[i:i + 3])}}
              for i in range(0, len(splits), 3)]
        failed = {"strategy": "curriculum2", "seed": 0, "status": "failed",
                  "error": "diverged"}
        paths = harness.emit_plot_data(
            report_via_json(tmp_path, ok[:1] + [failed] + ok[1:]), tmp_path / "plots")
        want = [harness.ROC_HEADER]
        for cell in ok:
            for name in names:
                m = cell["metrics"][name]
                prefix = f"{cell['strategy']}\t{cell['seed']}\t{name}\t"
                want += [f"{prefix}{t!r}\t{f!r}\t{p!r}\n"
                         for t, f, p in harness.roc_points(m["scores"], m["labels"])]
        assert Path(paths["roc"]).read_bytes() == "".join(want).encode()

    def test_roc_tsv_on_the_scan_cases(self, tmp_path):
        self.assert_roc_tsv_as_formatted_per_row(tmp_path, roc_cases())

    def test_roc_tsv_with_labels_outside_0_1(self, tmp_path):
        rng = np.random.default_rng(11)
        splits = [(np.round(rng.random(n), 1), rng.choice([-1, 0, 1, 2, 7], n))
                  for n in (1, 5, 40, 300)]
        splits += [([0.2, 0.4, 0.4], [2, 3, -1]),     # neither class
                   ([0.1, 0.6, 0.3], [1, 2, 1])]      # positives only
        self.assert_roc_tsv_as_formatted_per_row(tmp_path, splits)

    def test_roc_tsv_across_class_sizes(self, tmp_path):
        # every pair of sizes, each in two cells: one table per size serves
        # both classes of many splits
        rng = np.random.default_rng(12)
        sizes = (1, 3, 7, 12, 2000, 5000)
        splits = []
        for repeat in range(2):
            for j, n_pos in enumerate(sizes):
                n_neg = sizes[(j + repeat + 1) % len(sizes)]
                labels = rng.permutation(np.repeat([1, 0], [n_pos, n_neg]))
                scores = rng.random(n_pos + n_neg)
                if repeat:
                    scores = np.round(scores, 3)   # ties
                splits.append((scores, labels))
        splits.append((rng.random(12), np.repeat([0, 1], 6)))
        self.assert_roc_tsv_as_formatted_per_row(tmp_path, splits)

    def test_roc_tsv_with_repeated_splits(self, tmp_path):
        # a split equal to the same split of the previous ok cell reuses its
        # rows; one that differs in a zero's sign or in a label does not
        rng = np.random.default_rng(13)
        a = [0.0, -0.0] + np.round(rng.random(30), 1).tolist()
        a_signed = [-0.0, 0.0] + a[2:]   # the first zero is the one printed
        b = rng.random(20).tolist()
        ya, yb = rng.integers(0, 2, 32).tolist(), rng.integers(0, 2, 20).tolist()
        yb_flipped = [1 - yb[0]] + yb[1:]
        cells = [[(a, ya), (b, yb), (b, yb)],
                 [(a, ya), (b, yb), (b, yb)],        # after the failed cell
                 [(a_signed, ya), (b, yb), (b, yb_flipped)],
                 [(a_signed, ya), (a, ya), (b, yb_flipped)]]
        self.assert_roc_tsv_as_formatted_per_row(
            tmp_path, [split for cell in cells for split in cell])

    @pytest.mark.parametrize("key,value", [
        ("scores", ["x", 0.5]), ("scores", [[1], 0.5]), ("scores", [[1], [1]]),
        ("scores", [None, 0.5]), ("scores", [float("nan"), 0.5]),
        ("scores", [float("inf"), 0.5]),
        ("labels", [[1], 0]), ("labels", [None, 0]), ("labels", [0.5, 0]),
        ("labels", ["1", 0]), ("scores", [True, 0.5]), ("labels", [True, 0]),
    ], ids=["string_score", "ragged_score", "nested_scores", "null_score",
            "nan_score", "inf_score", "ragged_label",
            "null_label", "float_label", "string_label", "bool_score",
            "bool_label"])
    def test_malformed_split_values_rejected(self, tmp_path, key, value):
        split = dict(SCORED, scores=[0.2, 0.7], labels=[0, 1])
        cells = [{"strategy": s, "seed": 0, "status": "ok", "val": SCORED,
                  "metrics": {"in_domain": split, "ood": split}}
                 for s in ("baseline", "curriculum1")]
        cells[1]["metrics"] = {"in_domain": split, "ood": dict(split, **{key: value})}
        # the file checks only list lengths; it holds scores as float64 bytes,
        # so other scores can be held only by a report in memory
        if key == "scores" and not all(type(v) is float for v in value):
            report = RunReport("", cells)
        else:
            report = report_via_json(tmp_path, cells)
        with pytest.raises(ValidationError,
                           match=r"cell 1 \(curriculum1, seed 0\) split 'ood'"):
            harness.emit_plot_data(report, tmp_path / "plots")
        with pytest.raises(ValidationError):
            harness.roc_points(*(cells[1]["metrics"]["ood"][k]
                                 for k in ("scores", "labels")))


class TestCli:
    def write_config(self, tmp_path, d=None):
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump(d or tiny_dict(seeds=[0])))
        return str(path)

    def test_validate_config_ok(self, tmp_path, capsys):
        path = self.write_config(tmp_path)
        assert cli.main(["validate-config", "--config", path]) == 0
        assert "ok" in capsys.readouterr().out

    def test_validate_config_bad(self, tmp_path, capsys):
        d = tiny_dict()
        d["source"]["dim"] = 7
        path = self.write_config(tmp_path, d)
        assert cli.main(["validate-config", "--config", path]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("section,key,value", [
        ("curriculum1", "a", 0.1),          # a < b
        ("baseline", "batch_size", 81),     # target train set has 80 samples
        ("curriculum2", "lr", -1e-4),
        ("pretrain", "lrr", 1e-3),          # unknown key
        ("pretrain", "epochs", -1),
        ("model", None, None),              # section missing
        ("model", "hidden", 0),
        ("model", "hidden", "abc"),
        ("model", "width", 8),              # unknown key
        ("baseline", "lr", "abc"),
        ("pretrain", "epochs", "3"),
        ("curriculum1", "batch_size", 25.5),
        ("eval", "test_per_class", 1),      # DeLong needs two per class
        ("baseline", "batch_size", 0),
        ("pretrain", "gamma", 0.0),
        ("curriculum2", "alpha", 0.0),
        ("baseline", "milestones", ["a"]),
        ("baseline", "milestones", [-1]),   # lr_at would decay from epoch 0
        ("baseline", "lr", float("nan")),
        ("curriculum1", "lr", float("inf")),
        ("target", "spread", float("inf")),
        ("slides", "n_slides", 3),          # 2 tumor slides, 1 normal
        ("slides", "tumor_slide_fraction", 1.0),
        ("slides", "region_count", 0),      # tumor slides would be normal
        ("source", "draw_seed", 1),         # set per seed by the pipeline
        ("slides", "patch_spec", {"dim": 3}),   # derived from target
        ("source", "n_classes", 3),         # every task is binary
        ("source", "seed", -1),
        ("target", "seed", -1),
        ("shift", "seed", -1),
        ("slides", "seed", -1),
        # sizes whose arrays no machine could allocate
        ("target", "per_class", 10**30),
        ("model", "hidden", 10**30),
        ("eval", "test_per_class", 10**30),
        ("source", "dim", 10**12),          # target's dim is set to match
        ("slides", "height", 10**9),
        ("model", "hidden", math.isqrt(harness.MAX_ARRAY_ELEMENTS) + 1),
    ], ids=["a_below_b", "batch_above_dataset", "negative_lr", "typo_key",
            "negative_epochs", "missing_model", "zero_hidden", "string_hidden",
            "model_typo_key", "string_lr", "string_epochs", "float_batch_size",
            "one_test_per_class", "zero_batch_size", "zero_gamma", "zero_alpha",
            "string_milestone", "negative_milestone", "nan_lr", "inf_lr", "inf_spread",
            "three_slides", "all_tumor_slides", "no_tumor_regions",
            "source_draw_seed", "slides_patch_spec", "three_class_source",
            "negative_source_seed", "negative_target_seed",
            "negative_shift_seed", "negative_slides_seed", "huge_per_class",
            "huge_hidden", "huge_test_per_class", "huge_dim", "huge_slides",
            "hidden_just_above_ceiling"])
    def test_validate_config_rejects_bad_value(self, tmp_path, capsys,
                                               section, key, value):
        d = tiny_dict(slides=dict(SLIDES)) if section == "slides" else tiny_dict()
        if key is None:
            del d[section]
        else:
            d[section][key] = value
        if key == "dim":   # source and target dims must match
            d["target"][key] = value
        path = self.write_config(tmp_path, d)
        assert cli.main(["validate-config", "--config", path]) == 2
        assert section in capsys.readouterr().err

    @pytest.mark.parametrize("path", sorted(
        (Path(__file__).resolve().parents[1] / "configs").glob("*.yaml")),
        ids=lambda p: p.name)
    def test_shipped_config_validates(self, capsys, path):
        assert cli.main(["validate-config", "--config", str(path)]) == 0

    def test_missing_config_file(self, tmp_path, capsys):
        code = cli.main(["validate-config", "--config",
                         str(tmp_path / "nope.yaml")])
        assert code == 2

    @pytest.mark.parametrize("verb,content", [
        ("validate-config", "seeds: [0\n"),
        ("validate-config", None),
        ("emit-plots", "{not json"),
        ("emit-plots", json.dumps({"schema": reportfile.REPORT_SCHEMA})),
        ("emit-plots", None),
        ("run", "output"),
        ("ablate-alpha", "output"),
        ("emit-plots", "output"),
        ("run", "report.json"),
        ("ablate-alpha", "alpha_0.1.json"),
    ], ids=["config_not_yaml", "config_is_directory", "report_not_json",
            "report_without_cells", "report_is_directory",
            "run_output_dir_is_file", "ablate_output_dir_is_file",
            "plots_output_dir_is_file", "run_report_file_is_directory",
            "ablate_sweep_file_is_directory"])
    def test_unreadable_input_file_exits_2(self, tmp_path, capsys, monkeypatch,
                                           verb, content):
        """content None makes the input a directory; "output" gives a valid
        input and makes --output-dir name an existing file; a file name gives
        a valid config and makes that output file an existing directory,
        which must fail before any training."""
        path = tmp_path / "input"
        outdir = tmp_path / "plots"
        named = None  # the path the error message must name
        if content == "output":
            outdir.write_text("")
            named = outdir
            content = (yaml.safe_dump(tiny_dict(seeds=[0])) if verb != "emit-plots"
                       else json.dumps({"schema": reportfile.REPORT_SCHEMA,
                                        "config_hash": "", "code_version": "",
                                        "seeds": []}))
        elif content is not None and content.endswith(".json"):
            named = outdir / content
            named.mkdir(parents=True)
            content = yaml.safe_dump(tiny_dict(seeds=[0]))
        if content is None:
            path.mkdir()
        else:
            path.write_text(content)
        if verb == "emit-plots":
            argv = [verb, "--report", str(path), "--output-dir", str(outdir)]
        else:
            argv = [verb, "--config", str(path)]
            if verb != "validate-config":
                argv += ["--output-dir", str(outdir)]
        monkeypatch.setattr(harness, "run_seed",
                            lambda *a, **k: pytest.fail("training started"))
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert "error" in err
        if named is not None:
            assert str(named) in err

    @pytest.mark.parametrize("key,value", [
        ("scores", "x"), ("scores", [1]), ("labels", [1]),
        ("scores", None), ("labels", None), ("scores", True), ("labels", True),
    ], ids=["string_score", "list_score", "list_label", "null_score",
            "null_label", "bool_score", "bool_label"])
    def test_malformed_split_value_exits_2(self, tmp_path, capsys, key, value):
        split = dict(SCORED, scores=[0.2, 0.7, 0.4], labels=[0, 1, 1])
        bad = dict(split, **{key: split[key][:2] + [value]})
        cells = [{"strategy": "baseline", "seed": 3, "status": "ok", "val": SCORED,
                  "curve": [{"epoch": 0, "t": 0, "thres": 0.9, "k": 1,
                             "k_prime": None, "branch": "total",
                             "mean_loss": 0.5, "lr": 1e-3}],
                  "metrics": {"in_domain": split, "ood": bad}}]
        path = tmp_path / "report.json"
        path.write_text(report_json(cells))
        # a score that is not a number leaves the file's scores a list, which
        # the reader rejects; emit_plot_data rejects a label
        place = ("line 2 cell 0 split 'ood': scores must be base64 text"
                 if key == "scores" else
                 "error: report cell 0 (baseline, seed 3) split 'ood'")
        assert_emit_plots_rejects(path, tmp_path, capsys, place)

    @pytest.mark.parametrize("verb", ["run", "ablate-alpha"])
    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_exits_2(self, tmp_path, capsys, monkeypatch,
                                       verb, workers):
        monkeypatch.setattr(harness, "run_seed",
                            lambda *a, **k: pytest.fail("training started"))
        argv = [verb, "--config", self.write_config(tmp_path),
                "--output-dir", str(tmp_path / "out"), "--workers", workers]
        assert cli.main(argv) == 2
        assert f"workers must be an integer >= 1, got {workers}" in \
            capsys.readouterr().err

    def test_run_then_emit_plots(self, tmp_path, capsys):
        path = self.write_config(tmp_path)
        outdir = str(tmp_path / "out")
        assert cli.main(["run", "--config", path,
                         "--output-dir", outdir]) == 0
        report_path = tmp_path / "out" / "report.json"
        assert report_path.exists()
        capsys.readouterr()
        assert cli.main(["emit-plots", "--report", str(report_path),
                         "--output-dir", str(tmp_path / "plots")]) == 0
        assert (tmp_path / "plots" / "curves.tsv").exists()

    def test_smoke_run_and_emit_plots_without_scipy(self, tmp_path):
        # SciPy is only a test oracle: the CLI runs with it unimportable
        root = Path(__file__).resolve().parents[1]
        code = ("import sys; sys.modules['scipy'] = None; "
                "sys.path.insert(0, sys.argv[1]); from hadcl import cli; "
                "out = sys.argv[3]; "
                "sys.exit(cli.main(['run', '--config', sys.argv[2], "
                "'--output-dir', out]) or cli.main(['emit-plots', '--report', "
                "out + '/report.json', '--output-dir', out + '/plots']))")
        subprocess.run([sys.executable, "-c", code,
                        str(Path(hadcl.__file__).resolve().parent.parent),
                        str(root / "configs" / "smoke.yaml"), str(tmp_path)],
                       check=True, capture_output=True)
        assert (tmp_path / "plots" / "roc.tsv").stat().st_size > len(
            harness.ROC_HEADER)

    def test_diverging_pretraining_fails_its_cells(self, tmp_path, capsys):
        d = tiny_dict(seeds=[0, 1])
        d["pretrain"]["lr"] = 1e300
        outdir = tmp_path / "out"
        assert cli.main(["run", "--config", self.write_config(tmp_path, d),
                         "--output-dir", str(outdir)]) == 1
        report = RunReport.from_json(outdir / "report.json")
        assert [(c["strategy"], c["seed"]) for c in report.cells] == \
            [(s, seed) for seed in (0, 1) for s in harness.STRATEGIES]
        for cell in report.cells:
            assert cell["status"] == "failed"
            assert cell["error"].startswith("pretraining: non-finite")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_diverging_smoke_run_is_quiet(self, tmp_path, capsys):
        root = Path(__file__).resolve().parents[1]
        d = yaml.safe_load((root / "configs" / "smoke.yaml").read_text())
        d["pretrain"]["lr"] = 1.0e12
        argv = ["run", "--config", self.write_config(tmp_path, d),
                "--output-dir", str(tmp_path / "out")]
        assert cli.main(argv) == 1
        assert capsys.readouterr().err == ""
        report = RunReport.from_json(tmp_path / "out" / "report.json")
        assert all(c["error"].startswith("pretraining: non-finite")
                   for c in report.cells)

    def test_seed_override(self, tmp_path, capsys):
        path = self.write_config(tmp_path)
        outdir = str(tmp_path / "out2")
        assert cli.main(["run", "--config", path, "--output-dir", outdir,
                         "--seeds", "5"]) == 0
        report = RunReport.from_json(tmp_path / "out2" / "report.json")
        assert {c["seed"] for c in report.cells} == {5}

    def test_ablate_alpha_verb(self, tmp_path, capsys):
        path = self.write_config(tmp_path)
        outdir = str(tmp_path / "out3")
        assert cli.main(["ablate-alpha", "--config", path,
                         "--output-dir", outdir, "--grid", "0.1", "0.3"]) == 0
        printed = json.loads(capsys.readouterr().out)
        names = ["alpha_0.1.json", "alpha_0.3.json"]
        assert sorted(os.listdir(outdir)) == names
        assert printed["reports"] == [os.path.join(outdir, n) for n in names]
        for name, alpha in zip(names, ("0.1", "0.3")):
            medians = RunReport.from_json(os.path.join(outdir, name)).summary()
            assert printed["table"][alpha] == {
                "val_auc": medians["curriculum1"]["median_auc_val"],
                "val_accuracy": medians["curriculum1"]["median_accuracy_val"]}

    def test_alpha_report_plots_as_a_run(self, tmp_path, capsys):
        # an alpha's report is the report of a curriculum1-only run of that
        # alpha, so emit-plots writes the same bytes from either
        d = tiny_dict(seeds=[0])
        sweep = tmp_path / "sweep"
        assert cli.main(["ablate-alpha", "--config", self.write_config(tmp_path, d),
                         "--output-dir", str(sweep), "--grid", "0.1", "0.3"]) == 0
        d["curriculum1"]["alpha"] = 0.3
        d["strategies"] = ["curriculum1"]
        run_dir = tmp_path / "run"
        assert cli.main(["run", "--config", self.write_config(tmp_path, d),
                         "--output-dir", str(run_dir)]) == 0
        for report in (sweep / "alpha_0.3.json", run_dir / "report.json"):
            assert cli.main(["emit-plots", "--report", str(report),
                             "--output-dir", str(report.parent / "plots")]) == 0
        for name in ("curves.tsv", "roc.tsv"):
            assert (sweep / "plots" / name).read_bytes() == \
                (run_dir / "plots" / name).read_bytes()

    def test_ablate_alpha_repeated_grid_value_exits_2(self, tmp_path, capsys):
        # a grid that fails its check fails before the output directory is made
        path = self.write_config(tmp_path)
        for grid, message in ((["0.1", "0.1"], "duplicate alpha in [0.1, 0.1]"),
                              (["0.0"], "alpha must be in (0, 1]")):
            outdir = tmp_path / "out"
            assert cli.main(["ablate-alpha", "--config", path, "--output-dir",
                             str(outdir), "--grid", *grid]) == 2
            assert message in capsys.readouterr().err
            assert not outdir.exists()


def documented_command_lines() -> list[str]:
    """Every `hadcl ...` line in README's CLI block and in config comments."""
    root = Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```bash", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("hadcl ")]
    for path in sorted((root / "configs").glob("*.yaml")):
        for line in path.read_text().splitlines():
            m = re.match(r"#\s*(hadcl .*)", line)
            if m:
                lines.append(m.group(1))
    return lines


def test_documented_command_lines_exist():
    lines = documented_command_lines()
    verbs = {shlex.split(line)[1] for line in lines}
    assert verbs == {"validate-config", "run", "ablate-alpha", "emit-plots"}


@pytest.mark.parametrize("line", documented_command_lines())
def test_documented_command_line_parses(line):
    try:
        cli.build_parser().parse_args(shlex.split(line)[1:])
    except SystemExit:
        pytest.fail(f"the CLI rejects the documented line {line!r}")
