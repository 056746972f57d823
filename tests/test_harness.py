import copy
import hashlib
import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest
import yaml

import hadcl
from hadcl import cli, data, harness
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
        with pytest.raises(ValidationError):
            config_from_dict(tiny_dict(strategies=["baseline", "curriculum2"]))

    @pytest.mark.parametrize("over,match", [
        ({"strategies": ["baseline", "curriculum1", "baseline"]}, "duplicate"),
        ({"seeds": [0, 1, 0]}, "duplicate"),
        ({"strategies": "baseline"}, "must be a list"),
        ({"seeds": 3}, "must be a list"),
        ({"strategies": [["baseline"]]}, "unknown strategies"),
        ({"seeds": [1.5]}, "non-negative integers"),
        ({"seeds": [-1]}, "non-negative integers"),
        ({"seeds": ["a"]}, "non-negative integers"),
        ({"seeds": [True]}, "non-negative integers"),
        ({"output_dir": 5}, "output_dir must be a string"),
    ], ids=["duplicate_strategies", "duplicate_seeds", "scalar_strategies",
            "scalar_seeds", "nested_strategies", "float_seed", "negative_seed",
            "string_seed", "bool_seed", "int_output_dir"])
    def test_malformed_lists_rejected(self, over, match):
        with pytest.raises(ValidationError, match=match):
            config_from_dict(tiny_dict(**over))

    def test_slide_patches_inherit_clean_target_geometry(self):
        d = tiny_dict(slides=dict(height=4, width=4, n_slides=4,
                                  tumor_slide_fraction=0.5, region_count=1,
                                  radius_lo=1.0, radius_hi=1.5, seed=21))
        cfg = config_from_dict(d)
        assert cfg.slides.patch_spec.seed == cfg.target.seed
        assert cfg.slides.patch_spec.hard_fraction == 0.0
        assert cfg.slides.patch_spec.noise_fraction == 0.0

    def test_config_hash_is_file_sha256(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump(tiny_dict()))
        cfg = harness.load_config(path)
        assert cfg.config_hash == hashlib.sha256(path.read_bytes()).hexdigest()


class TestRunExperiment:
    def test_smoke_all_cells_ok(self):
        d = tiny_dict(slides=SLIDES)
        report = run_experiment(config_from_dict(d))
        assert report.all_ok
        assert len(report.cells) == 6  # 3 strategies x 2 seeds
        for cell in report.cells:
            for split in ("val", "in_domain", "ood", "slide"):
                assert 0.0 <= cell["metrics"][split]["auc"] <= 1.0
            assert cell["wall_clock"] > 0
        summary = report.summary()
        assert set(summary) == {"baseline", "curriculum1", "curriculum2"}
        assert "median_auc_slide" in summary["baseline"]

    def test_slide_cohorts_generated_once_per_seed(self, monkeypatch):
        calls = []
        generate_slides = data.generate_slides

        def counting(spec):
            calls.append(spec.draw_seed)
            return generate_slides(spec)

        monkeypatch.setattr(data, "generate_slides", counting)
        d = tiny_dict(slides=SLIDES)
        report = run_experiment(config_from_dict(d))
        assert report.all_ok
        assert all("slide" in c["metrics"] for c in report.cells)
        assert len(calls) == 2 * len(d["seeds"])

    def test_curve_lengths_match_epochs_and_batches(self):
        report = run_experiment(config_from_dict(tiny_dict(seeds=[0])))
        n_batches = 2 * 40 // 20
        by = {c["strategy"]: c for c in report.cells}
        assert len(by["baseline"]["curve"]) == 2 * n_batches
        assert len(by["curriculum1"]["curve"]) == 2 * n_batches
        assert len(by["curriculum2"]["curve"]) == 1 * n_batches
        assert all(r["k_prime"] is not None for r in by["curriculum2"]["curve"])

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
        for split in ("val", "in_domain", "ood"):
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

    def test_code_version_is_package_version(self):
        assert RunReport(config_hash="").code_version == hadcl.__version__

    def test_report_json_round_trip(self, tmp_path):
        failing = tiny_dict(seeds=[0])
        failing["curriculum1"]["lr"] = 1e200   # curriculum1 and 2 fail
        reports = {"tiny_run": run_experiment(config_from_dict(tiny_dict(seeds=[0]))),
                   "empty": RunReport(config_hash="h"),
                   "failed_cell": run_experiment(config_from_dict(failing))}
        assert not reports["failed_cell"].all_ok
        for name, report in reports.items():
            path = tmp_path / f"{name}.json"
            report.to_json(path)
            doc = {"schema": report.schema, "config_hash": report.config_hash,
                   "code_version": report.code_version,
                   "summary": report.summary(), "cells": report.cells}
            # same values and the same key order at every level
            want = json.dumps(json.loads(json.dumps(doc)))
            assert json.dumps(json.loads(path.read_text())) == want, name
            back = RunReport.from_json(path)
            assert back.cells == json.loads(json.dumps(report.cells))
            assert back.config_hash == report.config_hash
            # reports written in the earlier indented layout still load
            with open(path, "w") as f:
                json.dump(doc, f, indent=1)
            assert RunReport.from_json(path).cells == back.cells

    def test_bad_schema_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        good = {"schema": harness.REPORT_SCHEMA, "config_hash": "",
                "code_version": "", "cells": []}
        bad = [json.dumps(dict(good, schema="other.v9")), "{not json", "[]"]
        bad += [json.dumps({k: v for k, v in good.items() if k != key})
                for key in ("config_hash", "cells", "code_version")]
        split = {"scores": [0.2, 0.7], "labels": [0, 1]}
        cell = {"strategy": "baseline", "seed": 0, "status": "ok",
                "metrics": {"in_domain": split, "ood": split}}
        bad_cells = [
            5,
            [5],
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
        ]
        bad += [json.dumps(dict(good, cells=cells)) for cells in bad_cells]
        for text in bad:
            path.write_text(text)
            with pytest.raises(ValidationError):
                RunReport.from_json(path)
        # the well-formed cells load, a failed cell needing no metrics
        failed = {"strategy": "baseline", "seed": 1, "status": "failed",
                  "error": "diverged"}
        path.write_text(json.dumps(dict(good, cells=[cell, failed])))
        assert len(RunReport.from_json(path).cells) == 2


class TestGoldenReport:
    # sha256 of a seeded run's cells without wall_clock (json.dumps with
    # sorted keys) and of the curves.tsv and roc.tsv emit_plot_data writes
    # for it. Any change to data, training numerics, evaluation, the report
    # cells or the plot format moves them.
    CELLS = "a8c05f43df62d39bb6ae4e6155735df554576340843e6be8b75ad957027be038"
    CURVES = "33ffe55b482684f99fa0d4b36c09c09125779ef3c397ed4c9e6d70abe90780a9"
    ROC = "1408fa049cd97c3da7ffbcc621fb2dd9c7a5aff4b32f126cfc81d17195db12cb"

    def test_cells_and_plot_data_match_digests(self, tmp_path):
        report = run_experiment(config_from_dict(tiny_dict(seeds=[0],
                                                           slides=SLIDES)))
        cells = json.dumps(strip_wall_clock(report.cells), sort_keys=True)
        paths = harness.emit_plot_data(report, tmp_path)
        digests = [hashlib.sha256(cells.encode()).hexdigest()]
        digests += [hashlib.sha256(Path(paths[key]).read_bytes()).hexdigest()
                    for key in ("curves", "roc")]
        assert digests == [self.CELLS, self.CURVES, self.ROC]


class TestAblation:
    def test_sweep_runs_only_curriculum1(self):
        cfg = config_from_dict(tiny_dict(seeds=[0]))
        sweep = harness.run_ablation_alpha(cfg, [0.1, 0.5])
        assert [e["alpha"] for e in sweep["entries"]] == [0.1, 0.5]
        for entry in sweep["entries"]:
            assert entry["all_ok"]
            assert 0.0 <= entry["median_val_auc"] <= 1.0
            assert {c["strategy"] for c in entry["cells"]} == {"curriculum1"}

    def test_bad_grid_rejected(self):
        cfg = config_from_dict(tiny_dict(seeds=[0]))
        with pytest.raises(ValidationError):
            harness.run_ablation_alpha(cfg, [0.0, 0.1])


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
            assert (open(paths[key], "rb").read()
                    == open(again[key], "rb").read())

    def test_empty_report_writes_headers_only(self, tmp_path):
        paths = harness.emit_plot_data(RunReport(config_hash=""), tmp_path)
        assert open(paths["curves"]).read() == harness.CURVES_HEADER
        assert open(paths["roc"]).read() == harness.ROC_HEADER

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
        for scores, labels in cases:
            rows = harness.roc_points(scores, labels)
            want = self.per_threshold_roc(scores, labels)
            assert rows == want
            assert repr(rows) == repr(want)   # the bytes roc.tsv gets


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
    ], ids=["a_below_b", "batch_above_dataset", "negative_lr", "typo_key",
            "negative_epochs", "missing_model", "zero_hidden", "string_hidden",
            "model_typo_key", "string_lr", "string_epochs", "float_batch_size",
            "one_test_per_class", "zero_batch_size", "zero_gamma", "zero_alpha",
            "string_milestone"])
    def test_validate_config_rejects_bad_value(self, tmp_path, capsys,
                                               section, key, value):
        d = tiny_dict()
        if key is None:
            del d[section]
        else:
            d[section][key] = value
        path = self.write_config(tmp_path, d)
        assert cli.main(["validate-config", "--config", path]) == 2
        assert section in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        code = cli.main(["validate-config", "--config",
                         str(tmp_path / "nope.yaml")])
        assert code == 2

    @pytest.mark.parametrize("verb,content", [
        ("validate-config", "seeds: [0\n"),
        ("validate-config", None),
        ("emit-plots", "{not json"),
        ("emit-plots", json.dumps({"schema": harness.REPORT_SCHEMA})),
        ("emit-plots", None),
        ("run", "output"),
        ("ablate-alpha", "output"),
        ("emit-plots", "output"),
        ("run", "report.json"),
        ("ablate-alpha", "alpha_sweep.json"),
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
                       else json.dumps({"schema": harness.REPORT_SCHEMA,
                                        "config_hash": "", "code_version": "",
                                        "cells": []}))
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
        monkeypatch.setattr(harness, "run_experiment",
                            lambda *a, **k: pytest.fail("training started"))
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert "error" in err
        if named is not None:
            assert str(named) in err

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
        sweep = json.load(open(tmp_path / "out3" / "alpha_sweep.json"))
        assert [e["alpha"] for e in sweep["entries"]] == [0.1, 0.3]


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
