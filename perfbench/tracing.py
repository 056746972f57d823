"""Span tracing for the benchmark's traced run.

The benchmark wraps the public functions of each hadcl module from its own
code (nothing under src/ is touched): while a `Tracer` is installed, every
call of a traced function records a span (name, parent span, start, end)
and, for a few functions, a count of the work it did. Spans stay in memory
and are written out when the benchmark ends. Per-layer metrics are derived
from them afterwards: call counts, self time (duration minus the time
covered by child spans) and the ratios below.

Self times are reported as shares of the traced unit's wall time, which is
reported too: a function the workload never calls then reads 0 as a share,
not as a time, and the shares stay comparable across machines of different
speed. `layer_self_s` gives the same figures in seconds.
"""

from __future__ import annotations

import functools
import time
from collections import Counter

from hadcl import curriculum, data, harness, metrics, numcore, slidelevel


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _weights(model) -> int:
    return model.w1.size + model.w2.size + model.w3.size


def _forward_work(args, kwargs, result):
    # three matmuls of 2*rows*fan_in*fan_out flops each
    rows = result.shape[0]
    return rows, 2 * rows * _weights(args[0])


def _backward_work(args, kwargs, result):
    model = args[0]
    mask = _arg(args, kwargs, 3, "sample_mask")
    rows = len(_arg(args, kwargs, 1, "inputs")) if mask is None else len(mask)
    # backward re-runs the forward pass (w1, w2, w3) on the masked rows, then
    # takes the gradients of w3, w2, w1 and propagates through w3 and w2
    flops = 2 * rows * (2 * model.w1.size + 3 * model.w2.size + 3 * model.w3.size)
    return rows, flops


def _loss_rows(args, kwargs, result):
    return len(result)


def _stage1_hard(args, kwargs, result):
    return result.branch == curriculum.TOP_K_BRANCH


def _stage2_hard(args, kwargs, result):
    return result.branch == curriculum.TOP_K_PRIME_BRANCH


# (owner, attribute, work hook); the span name is "<module>.<qualname>"
TARGETS = (
    (numcore, "forward", _forward_work),
    (numcore, "backward", _backward_work),
    (numcore, "adam_step", None),
    (numcore, "per_sample_cross_entropy", _loss_rows),
    (numcore, "softmax", None),
    (curriculum, "finetune_plain", None),
    (curriculum, "run_stage", None),
    (curriculum.BatchHardness, "from_losses", None),
    (curriculum, "rank_by_loss", None),
    (curriculum, "decide_update_stage1", _stage1_hard),
    (curriculum, "decide_update_stage2", _stage2_hard),
    (curriculum, "threshold", None),
    (data, "generate_blobs", None),
    (data, "apply_domain_shift", None),
    (data, "generate_slides", None),
    (metrics, "auc", None),
    (metrics, "delong_ci", None),
    (metrics, "delong_paired_test", None),
    (slidelevel, "extract_features", None),
    (slidelevel, "connected_components", None),
    (slidelevel, "train_slide_classifier", None),
    (harness, "run_seed", None),
    (harness, "positive_probs", None),
    (harness.RunReport, "to_json", None),
    (harness.RunReport, "from_json", None),
    (harness, "roc_points", None),
    (harness, "emit_plot_data", None),
)


def span_name(owner, attr: str) -> str:
    if isinstance(owner, type):
        module = owner.__module__.rsplit(".", 1)[-1]
        return f"{module}.{owner.__name__}.{attr}"
    return f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}"


TRACED = tuple(span_name(owner, attr) for owner, attr, _ in TARGETS)

DERIVED = (
    ("curriculum.loop_self_share", "share"),
    ("curriculum.pretrain_share", "share"),
    ("curriculum.hard_branch_share", "share"),
    ("numcore.matmul_gflop", "GFLOP"),
    ("numcore.gflop_per_s", "GFLOP/s"),
    ("numcore.reforward_rows_share", "share"),
)

TRACE_METRICS = (
    ("trace.traced_wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.top_level_share", "share"),
)


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in report order."""
    out = []
    for name in TRACED:
        out += [(f"{name}.calls", "count"), (f"{name}.self_share", "share")]
    return out + list(DERIVED) + list(TRACE_METRICS)


class Tracer:
    """Installs span-recording wrappers for the duration of a `with` block.

    Each span is a list [name, parent index, start ns, end ns, work], where
    work is whatever the function's hook returned (None without a hook).
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, name, fn, hook):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, 0, 0, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if hook is not None:
                rec[4] = hook(args, kwargs, result)
            return result

        return traced

    def __enter__(self) -> "Tracer":
        for owner, attr, hook in TARGETS:
            original = owner.__dict__[attr]
            name = span_name(owner, attr)
            if isinstance(original, classmethod):
                wrapped = classmethod(self._wrap(name, original.__func__, hook))
            else:
                wrapped = self._wrap(name, original, hook)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrapped)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def write_tsv(self, path) -> None:
        with open(path, "w") as f:
            f.write("run_id\tspan\tparent\tname\tstart_ns\tend_ns\n")
            for i, (name, parent, start, end, _) in enumerate(self.spans):
                f.write(f"{self.run_id}\t{i}\t{parent}\t{name}\t{start}\t{end}\n")


def _self_ns(spans: list[list]) -> list[int]:
    """Each span's duration minus the time its child spans cover."""
    child_ns = [0] * len(spans)
    for _, parent, start, end, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    return [end - start - c for (_, _, start, end, _), c in zip(spans, child_ns)]


def layer_metrics(spans: list[list], traced_wall_s: float,
                  untraced_wall_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics (value, unit) from the spans of one traced unit."""
    own_ns = _self_ns(spans)

    calls, self_ns = Counter(), Counter()
    top_ns = pretrain_ns = 0
    pretrained = set()          # run_seed spans whose pretraining was seen
    decisions = hard = 0
    gflop = 0.0
    backward_rows = train_loss_rows = 0
    loop_names = ("curriculum.run_stage", "curriculum.finetune_plain")
    for i, (name, parent, start, end, work) in enumerate(spans):
        calls[name] += 1
        self_ns[name] += own_ns[i]
        parent_name = spans[parent][0] if parent >= 0 else None
        if parent < 0:
            top_ns += end - start
        if name == "curriculum.finetune_plain" and parent_name == "harness.run_seed" \
                and parent not in pretrained:
            # run_seed pretrains on the source set before any fine-tuning
            pretrained.add(parent)
            pretrain_ns += end - start
        elif name in ("numcore.forward", "numcore.backward"):
            gflop += work[1] / 1e9
            if name == "numcore.backward":
                backward_rows += work[0]
        elif name == "numcore.per_sample_cross_entropy" and parent_name in loop_names:
            train_loss_rows += work      # the loop's ranking forward pass
        elif name.startswith("curriculum.decide_update_stage"):
            decisions += 1
            hard += bool(work)

    def share(num, den):
        return num / den if den else 0.0

    wall_ns = traced_wall_s * 1e9
    out = {}
    for name in TRACED:
        out[f"{name}.calls"] = (calls[name], "count")
        out[f"{name}.self_share"] = (share(self_ns[name], wall_ns), "share")
    matmul_s = (self_ns["numcore.forward"] + self_ns["numcore.backward"]) / 1e9
    loop_ns = self_ns["curriculum.run_stage"] + self_ns["curriculum.finetune_plain"]
    out["curriculum.loop_self_share"] = (share(loop_ns, wall_ns), "share")
    out["curriculum.pretrain_share"] = (share(pretrain_ns, wall_ns), "share")
    out["curriculum.hard_branch_share"] = (share(hard, decisions), "share")
    out["numcore.matmul_gflop"] = (gflop, "GFLOP")
    out["numcore.gflop_per_s"] = (share(gflop, matmul_s), "GFLOP/s")
    out["numcore.reforward_rows_share"] = (share(backward_rows, train_loss_rows), "share")
    out["trace.traced_wall_s"] = (traced_wall_s, "s")
    out["trace.untraced_wall_s"] = (untraced_wall_s, "s")
    out["trace.overhead_s"] = (traced_wall_s - untraced_wall_s, "s")
    out["trace.top_level_share"] = (share(top_ns, wall_ns), "share")
    return out


def layer_self_s(spans: list[list]) -> dict[str, float]:
    """Self time in seconds of every traced function that ran."""
    out = Counter()
    for (name, *_), ns in zip(spans, _self_ns(spans)):
        out[name] += ns / 1e9
    return dict(out)
