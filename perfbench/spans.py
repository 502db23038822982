"""Spans around grit's layer boundaries, recorded from outside the package.

Every wrapper is installed on the name where its caller looks the function
up: `from .linalg import sym_eig` binds a separate name in each importing
module, so `grit.trainer.sym_eig`, `grit.reprojection.sym_eig` and
`grit.telemetry.sym_eig` are patched one by one. Methods are patched on their
classes. Wrappers only observe: they pass arguments and results through
untouched, so a traced run writes the same bytes as an untraced one.

Spans stay in memory (name, start, end, parent, run id, plus a small info
value for the boundaries that carry one) and are written out at the end.
"""

from __future__ import annotations

import functools
import json
import os
import time
from pathlib import Path

# (span name, module path, owner attribute or None, attribute, info hook name)
# An owner names a class inside the module; None patches the module global.
BOUNDARIES = [
    ("linalg.sym_eig", "grit.trainer", None, "sym_eig", "dim"),
    ("linalg.sym_eig", "grit.reprojection", None, "sym_eig", "dim"),
    ("linalg.sym_eig", "grit.telemetry", None, "sym_eig", "dim"),
    ("linalg.damped_solve", "grit.kfac", None, "damped_solve", "rung"),
    ("trainer.Trainer.train_step", "grit.trainer", "Trainer", "train_step", "trainer"),
    ("trainer.Trainer._layer_decomps", "grit.trainer", "Trainer", "_layer_decomps", None),
    ("trainer.Trainer._emit_telemetry", "grit.trainer", "Trainer", "_emit_telemetry", None),
    ("trainer.AdamW.step", "grit.trainer", "AdamW", "step", None),
    ("trainer.reprojection_penalty", "grit.trainer", None, "reprojection_penalty", None),
    ("kfac.accumulate", "grit.trainer", None, "accumulate", None),
    ("kfac.refresh_inverses", "grit.trainer", None, "refresh_inverses", None),
    ("kfac.precondition", "grit.trainer", None, "precondition", None),
    ("reprojection.reproject", "grit.trainer", None, "reproject", "applied"),
    ("reprojection.select_rank", "grit.trainer", None, "select_rank", None),
    ("reprojection.select_rank", "grit.reprojection", None, "select_rank", None),
    ("model.Model.forward", "grit.model", "Model", "forward", None),
    ("model.Model.backward", "grit.model", "Model", "backward", None),
    ("model.Model.predict", "grit.model", "Model", "predict", None),
    ("tasks.build_task", "grit.trainer", None, "build_task", "task"),
    ("tasks.TaskInstance.pt_hessian", "grit.tasks", "TaskInstance", "pt_hessian", "hessian"),
    ("tasks.TaskInstance._pt_grad_at", "grit.tasks", "TaskInstance", "_pt_grad_at", None),
    ("telemetry.adapter_subspace_basis", "grit.trainer", None, "adapter_subspace_basis", "span_shape"),
    ("telemetry.exposure_from_basis", "grit.trainer", None, "exposure_from_basis", None),
    ("telemetry.stability_stats", "grit.trainer", None, "stability_stats", None),
    # cmd_audit imports these inside the function body, so it reads them
    # from grit.telemetry at call time.
    ("telemetry.pca_export", "grit.telemetry", None, "pca_export", None),
    ("telemetry.read_telemetry", "grit.telemetry", None, "read_telemetry", None),
    ("telemetry.TelemetryWriter.append", "grit.telemetry", "TelemetryWriter", "append", None),
    ("runio.JsonlWriter.append", "grit.runio", "JsonlWriter", "append", "appended_bytes"),
    ("runio.write_record", "grit.trainer", None, "write_record", None),
    ("runio.write_manifest", "grit.trainer", None, "write_manifest", None),
    ("runio.read_jsonl", "grit.cli", None, "read_jsonl", "file_bytes"),
    ("runio.read_record", "grit.cli", None, "read_record", None),
    ("forgetting.fit_baseline_law", "grit.cli", None, "fit_baseline_law", None),
    ("forgetting.fit_xi_coefficients", "grit.cli", None, "fit_xi_coefficients", None),
    ("cli.cmd_audit", "grit.cli", None, "cmd_audit", None),
    ("cli.cmd_fit_law", "grit.cli", None, "cmd_fit_law", None),
]


def _owner(module_path: str, owner: str | None):
    import importlib

    module = importlib.import_module(module_path)
    return module if owner is None else getattr(module, owner)


class Span:
    __slots__ = ("sid", "name", "start", "end", "parent", "run", "info")

    def __init__(self, sid, name, start, parent, run):
        self.sid = sid
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.run = run
        self.info = None


class Tracer:
    """Collects spans in memory; `install` patches every boundary, `remove` undoes it."""

    def __init__(self):
        self.spans: list[Span] = []
        self.run_id: str = ""
        self.stats_lists: list = []  # per-trainer RankSpaceStats lists, read at the end
        self._stack: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- info hooks: each runs after the call, on its arguments and result --

    def _info_dim(self, args, kwargs, result):
        return int(args[0].shape[0])

    def _info_trainer(self, args, kwargs, result):
        # Keep each trainer's statistics for the final sanitized count.
        stats = args[0].stats
        if not any(stats is seen for seen in self.stats_lists):
            self.stats_lists.append(stats)
        return None

    def _info_rung(self, args, kwargs, result):
        return float(result[1])

    def _info_applied(self, args, kwargs, result):
        return bool(result.applied)

    def _info_task(self, args, kwargs, result):
        # sample_batch is a per-instance closure, so it is wrapped on the
        # returned task; the task is discarded when its run ends.
        result.sample_batch = self.wrap("tasks.sample_batch", result.sample_batch)
        return None

    def _info_hessian(self, args, kwargs, result):
        return int(result.shape[0])

    def _info_span_shape(self, args, kwargs, result):
        # Shape of the Kronecker span matrix the basis is extracted from,
        # computed from the adapter dims: (d_out*d_in) x r*(d_in + d_out).
        adapter = args[0]
        d_out, r = adapter.b.shape
        d_in = adapter.a.shape[1]
        return (d_out * d_in, r * (d_in + d_out))

    def _info_file_bytes(self, args, kwargs, result):
        return os.path.getsize(args[0])

    def _before_appended_bytes(self, args):
        return os.path.getsize(args[0].path)

    # -- wrapping ------------------------------------------------------------

    def wrap(self, name: str, fn, info: str | None = None):
        tracer = self
        info_fn = getattr(self, f"_info_{info}") if info and info != "appended_bytes" else None
        measure_bytes = info == "appended_bytes"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1].sid if stack else None
            span = Span(len(tracer.spans), name, 0.0, parent, tracer.run_id)
            tracer.spans.append(span)
            stack.append(span)
            before = tracer._before_appended_bytes(args) if measure_bytes else 0
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if measure_bytes:
                span.info = os.path.getsize(args[0].path) - before
            elif info_fn is not None:
                span.info = info_fn(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        for name, module_path, owner_name, attr, info in BOUNDARIES:
            owner = _owner(module_path, owner_name)
            original = vars(owner)[attr]
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, info))

    def remove(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(
                    json.dumps(
                        {"id": s.sid, "name": s.name, "start": s.start, "end": s.end,
                         "parent": s.parent, "run": s.run, "info": s.info}
                    )
                    + "\n"
                )


def wrapped_patch_points() -> list[str]:
    """Patch points that still hold a wrapper; empty once every tracer is removed."""
    return [
        f"{module_path}:{owner_name or ''}.{attr}"
        for _, module_path, owner_name, attr, _ in BOUNDARIES
        if hasattr(vars(_owner(module_path, owner_name))[attr], "__wrapped__")
    ]


# Span names reported as <name>.calls and <name>.self_s.
COUNTED = [
    "linalg.sym_eig", "linalg.damped_solve",
    "trainer.Trainer.train_step", "trainer.Trainer._layer_decomps",
    "trainer.Trainer._emit_telemetry", "trainer.AdamW.step", "trainer.reprojection_penalty",
    "kfac.accumulate", "kfac.refresh_inverses", "kfac.precondition",
    "reprojection.reproject", "reprojection.select_rank",
    "model.Model.forward", "model.Model.backward", "model.Model.predict",
    "tasks.build_task", "tasks.TaskInstance.pt_hessian", "tasks.TaskInstance._pt_grad_at",
    "tasks.sample_batch",
    "telemetry.adapter_subspace_basis", "telemetry.exposure_from_basis",
    "telemetry.stability_stats", "telemetry.pca_export", "telemetry.read_telemetry",
    "telemetry.TelemetryWriter.append",
    "runio.JsonlWriter.append", "runio.write_record", "runio.write_manifest",
    "runio.read_jsonl", "runio.read_record",
    "forgetting.fit_baseline_law", "forgetting.fit_xi_coefficients",
    "cli.cmd_audit", "cli.cmd_fit_law",
]
# Callers whose sym_eig calls are counted apart; the rest go to "other".
EIG_PARENTS = [
    "trainer.reprojection_penalty", "trainer.Trainer._layer_decomps",
    "reprojection.reproject", "telemetry.stability_stats", "telemetry.pca_export",
    "trainer.Trainer._emit_telemetry",
]


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name in COUNTED:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for parent in EIG_PARENTS + ["other"]:
        units[f"linalg.sym_eig.in.{parent}.calls"] = "count"
        units[f"linalg.sym_eig.in.{parent}.self_s"] = "s"
    units.update({
        "linalg.sym_eig.max_dim": "rows",
        "linalg.damped_solve.retries": "count",
        "trainer.decomp_cache_hit_ratio": "ratio",
        "kfac.RankSpaceStats.sanitized_count": "count",
        "reprojection.applied_ratio": "ratio",
        "tasks.pt_hessian.grad_evals": "count",
        "tasks.pt_hessian.bytes": "B",
        "telemetry.adapter_subspace_basis.span_bytes": "B",
        "runio.JsonlWriter.append.bytes": "B",
        "runio.read_jsonl.bytes": "B",
    })
    return units


def layer_metrics(tracer: Tracer, runs: set[str]) -> tuple[dict[str, float], dict]:
    """Per-layer values over the spans of the given run ids, plus computed shapes.

    Self time is a span's duration minus the time its child spans cover;
    the code is single-threaded, so children never overlap.
    """
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    has_eig_child = [False] * len(spans)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.end - s.start
            if s.name == "linalg.sym_eig":
                has_eig_child[s.parent] = True
    values = {name: 0.0 for name in per_layer_units()}
    eig_dims: dict[int, int] = {}
    basis_shapes = set()
    decomps = decomp_hits = reprojects = applied = 0
    for s in spans:
        if s.run not in runs:
            continue
        self_s = (s.end - s.start) - child_time[s.sid]
        if s.name in COUNTED:
            values[f"{s.name}.calls"] += 1
            values[f"{s.name}.self_s"] += self_s
        if s.name == "linalg.sym_eig":
            parent = spans[s.parent].name if s.parent is not None else "other"
            parent = parent if parent in EIG_PARENTS else "other"
            values[f"linalg.sym_eig.in.{parent}.calls"] += 1
            values[f"linalg.sym_eig.in.{parent}.self_s"] += self_s
            eig_dims[s.info] = eig_dims.get(s.info, 0) + 1
        elif s.name == "linalg.damped_solve" and s.info > 1.0:
            values["linalg.damped_solve.retries"] += 1
        elif s.name == "trainer.Trainer._layer_decomps":
            decomps += 1
            decomp_hits += not has_eig_child[s.sid]
        elif s.name == "reprojection.reproject":
            reprojects += 1
            applied += bool(s.info)
        elif s.name == "tasks.TaskInstance.pt_hessian":
            values["tasks.pt_hessian.bytes"] = max(values["tasks.pt_hessian.bytes"], 8 * s.info**2)
        elif s.name == "telemetry.adapter_subspace_basis":
            basis_shapes.add(s.info)
            rows, cols = s.info
            values["telemetry.adapter_subspace_basis.span_bytes"] = max(
                values["telemetry.adapter_subspace_basis.span_bytes"], 8 * rows * cols
            )
        elif s.name == "runio.JsonlWriter.append":
            values["runio.JsonlWriter.append.bytes"] += s.info
        elif s.name == "runio.read_jsonl":
            values["runio.read_jsonl.bytes"] += s.info
    values["linalg.sym_eig.max_dim"] = max(eig_dims, default=0)
    values["trainer.decomp_cache_hit_ratio"] = decomp_hits / decomps if decomps else 0.0
    values["reprojection.applied_ratio"] = applied / reprojects if reprojects else 0.0
    values["tasks.pt_hessian.grad_evals"] = values["tasks.TaskInstance._pt_grad_at.calls"]
    values["kfac.RankSpaceStats.sanitized_count"] = sum(
        st.sanitized_count for stats in tracer.stats_lists for st in stats
    )
    computed = {
        "sym_eig_dim_histogram": {str(k): v for k, v in sorted(eig_dims.items())},
        "adapter_span_shapes": sorted(list(shape) for shape in basis_shapes),
        "note": "dimension histogram, Hessian bytes (n*n*8), grad evals and span "
        "shapes/bytes are computed from argument and result shapes; no cache or "
        "memory-bandwidth behaviour was measured",
    }
    return values, computed


class StepTimer:
    """Times Trainer.train_step, the one boundary the untraced run measures.

    `calibration_spent` returns the wall seconds spent calibrating so far;
    a calibration that lands inside a step is taken out of its time. Steps
    that emit telemetry are also kept apart in `telemetry`.
    """

    def __init__(self, calibration_spent):
        # mode -> [(start, end, wall seconds)]
        self.samples: dict[str, list[tuple[float, float, float]]] = {"grit": [], "lora_control": []}
        self.telemetry: dict[str, list[tuple[float, float, float]]] = {"grit": [], "lora_control": []}
        self.calibration_spent = calibration_spent
        self._original = None

    def install(self) -> None:
        from grit import trainer

        original = vars(trainer.Trainer)["train_step"]
        samples = self.samples
        telemetry = self.telemetry
        spent = self.calibration_spent

        @functools.wraps(original)
        def timed(self_, batch, step):
            before = spent()
            start = time.perf_counter()
            result = original(self_, batch, step)
            end = time.perf_counter()
            sample = (start, end, end - start - (spent() - before))
            samples[self_.config.mode].append(sample)
            every = self_.config.telemetry_every
            if every > 0 and step % every == 0:
                telemetry[self_.config.mode].append(sample)
            return result

        self._original = original
        trainer.Trainer.train_step = timed

    def remove(self) -> None:
        from grit import trainer

        if self._original is not None:
            trainer.Trainer.train_step = self._original
            self._original = None
