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
    ], ids=["duplicate_strategies", "duplicate_seeds", "scalar_strategies",
            "scalar_seeds"])
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
        d = tiny_dict(slides=dict(height=5, width=5, n_slides=6,
                                  tumor_slide_fraction=0.5, region_count=1,
                                  radius_lo=1.0, radius_hi=2.0, seed=21))
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
        d = tiny_dict(slides=dict(height=5, width=5, n_slides=6,
                                  tumor_slide_fraction=0.5, region_count=1,
                                  radius_lo=1.0, radius_hi=2.0, seed=21))
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
        cfg = config_from_dict(tiny_dict(seeds=[0]))
        report = run_experiment(cfg)
        path = tmp_path / "report.json"
        report.to_json(path)
        back = RunReport.from_json(path)
        assert back.cells == json.loads(json.dumps(report.cells))
        assert back.config_hash == report.config_hash

    def test_bad_schema_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": "other.v9", "config_hash": "",
                                    "code_version": "", "cells": []}))
        with pytest.raises(ValidationError):
            RunReport.from_json(path)


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
    ], ids=["a_below_b", "batch_above_dataset", "negative_lr", "typo_key",
            "negative_epochs", "missing_model", "zero_hidden", "string_hidden",
            "model_typo_key", "string_lr", "string_epochs", "float_batch_size",
            "one_test_per_class"])
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
