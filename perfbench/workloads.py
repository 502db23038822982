"""The benchmark's workloads: inputs from the seed, set-up, closed-loop operations, gates.

Each workload is closed-loop with one caller: an operation starts when the
previous one has returned. Operations go through grit's public API only:
`grit.trainer.run_experiment` for training and `grit.cli.main` for
`grit audit` and `grit fit-law`.
"""

from __future__ import annotations

import hashlib
import math
import shutil
import signal
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

import numpy as np

from calibration import CAL_REF_S, kernel_seconds
from grit.cli import main as grit_cli
from grit.config import GritConfig
from grit.forgetting import load_fit
from grit.runio import GeometrySummary, RunRecord, write_record
from grit.tasks import build_task
from grit.trainer import run_experiment, seed_stream

STUDY_TASK = "two_task_forgetting(d={d}, hidden={d}, pretrain_steps=100, ft_noise=0.25, delta_scale=0.2)"

# Artifacts that replay byte-identically for a fixed config and seed; the
# manifest carries a timestamp and is left out.
DETERMINISTIC = (
    "config.cfg", "telemetry.jsonl", "events.jsonl", "stats.jsonl",
    "updates.jsonl", "checkpoint.json", "record.json",
)
AUDIT_CSVS = (
    "spectra.csv", "cumulative_energy.csv", "effective_rank.csv",
    "alignment.csv", "tail_mass.csv", "pca_updates.csv",
)

# No new operation starts after this many seconds, whatever the minimum count,
# so a run always ends well inside the 180 s limit.
HARD_STOP_S = 120.0
# A calibration (~25 ms) is taken every CAL_EVERY_S of wall time, from a
# SIGALRM interval timer, so it also lands inside long operations. The
# host's speed was seen to switch within seconds.
CAL_EVERY_S = 0.5


def study_config(mode: str, seed: int, d: int = 12, steps: int = 500, telemetry_every: int = 100) -> GritConfig:
    """The criterion-8 protocol (acceptance test) and, at d = 48, the scaling-grid cell."""
    return GritConfig(
        task=STUDY_TASK.format(d=d), steps=steps, seed=seed, mode=mode,
        reprojection_freq=40, reprojection_warmup_steps=80, ng_warmup_steps=0,
        kfac_update_freq=5, kfac_min_samples=64, g_gate_min_samples=64,
        min_lora_rank=2, rank_adaptation_threshold=0.85, lora_rank=8,
        use_two_sided=True, kfac_damping=0.1, lambda_r=0.02,
        learning_rate=0.02, telemetry_every=telemetry_every,
    )


def fingerprint(run_dir: Path) -> dict[str, str]:
    return {
        name: hashlib.sha256((run_dir / name).read_bytes()).hexdigest()
        for name in DETERMINISTIC
        if (run_dir / name).exists()
    }


class Bench:
    """Timings, attempt/failure counts and gate results of one benchmark run."""

    def __init__(self, work: Path, seed: int, seconds: float, tracer=None):
        self.work = work
        self.seed = seed
        self.seconds = seconds
        self.tracer = tracer
        # kind -> [(start, end, wall seconds less the calibrations inside)]
        self.times: dict[str, list[tuple[float, float, float]]] = defaultdict(list)
        self.cal: list[tuple[float, float]] = []  # (midpoint, reference-kernel seconds)
        self.cal_spent = 0.0  # wall seconds spent calibrating so far
        self._calibrating = False
        self.attempted = 0
        self.failed = 0
        self.checks: list[dict] = []
        self.facts: dict = {}
        self.first_pass_runs: set[str] = set()
        # Traced runs record the kernel as a span, so the time a calibration
        # takes inside a layer is not counted as that layer's self time.
        self._kernel = kernel_seconds if tracer is None else tracer.wrap("perfbench.calibration", kernel_seconds)

    def label(self, run_id: str) -> None:
        if self.tracer is not None:
            self.tracer.run_id = run_id

    def calibrate(self, *_signal_args) -> None:
        if self._calibrating:
            return
        self._calibrating = True
        start = time.perf_counter()
        kernel = self._kernel()
        end = time.perf_counter()
        self.cal.append(((start + end) / 2, kernel))
        self.cal_spent += end - start
        self._calibrating = False

    def start_calibrating(self) -> None:
        self.calibrate()
        signal.signal(signal.SIGALRM, self.calibrate)
        signal.setitimer(signal.ITIMER_REAL, CAL_EVERY_S, CAL_EVERY_S)

    def stop_calibrating(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.calibrate()

    def timed(self, fn, *args):
        """(result, (start, end, wall seconds less any calibration inside))."""
        start = time.perf_counter()
        spent = self.cal_spent
        result = fn(*args)
        end = time.perf_counter()
        return result, (start, end, end - start - (self.cal_spent - spent))

    def at_reference(self, samples: list[tuple[float, float, float]]) -> list[float]:
        """Wall times scaled to reference speed by the calibrations around them."""
        return at_reference(self.cal, samples)

    def op(self, kind: str, fn, *args):
        """One timed operation; a raise or a nonzero exit code counts as failed."""
        self.attempted += 1
        try:
            result, sample = self.timed(fn, *args)
        except Exception:
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None
        if isinstance(result, int) and result != 0:
            self.failed += 1
            print(f"{kind} exited with {result}", file=sys.stderr)
            return None
        self.times[kind].append(sample)
        return result

    def check(self, name: str, ok: bool, detail: str) -> None:
        self.checks.append({"check": name, "ok": bool(ok), "detail": detail})

    def setup(self, repeats: int, fn) -> list:
        """Run the set-up `repeats` times (traced runs label only the first)."""
        outs = []
        for r in range(repeats):
            self.label(f"setup{r}")
            if r == 0:
                self.first_pass_runs.add("setup0")
            out, sample = self.timed(fn, r)
            outs.append(out)
            self.times["setup"].append(sample)
        return outs

    def loop(self, min_ops: int, pass_len: int, fn) -> int:
        """Closed loop: op j starts when op j-1 returns, until time is up and min_ops ran."""
        start = time.perf_counter()
        j = 0
        while True:
            elapsed = time.perf_counter() - start
            if elapsed >= HARD_STOP_S or (elapsed >= self.seconds and j >= min_ops):
                break
            self.label(f"op{j}")
            if j < pass_len:
                self.first_pass_runs.add(f"op{j}")
            fn(j)
            j += 1
        self.facts["ops_completed"] = j
        return j

    def train(self, config: GritConfig, out_dir: Path, kind: str):
        shutil.rmtree(out_dir, ignore_errors=True)
        return self.op(kind, run_experiment, config, out_dir)

    def audit(self, run_dir: Path, out: Path, repeats: int = 1) -> bool:
        """`grit audit` into `out`, `repeats` times; cheap audits repeat for more samples.

        A burst of cheap audits is shorter than the timer's interval, so it
        gets a calibration of its own on each side.
        """
        self.calibrate()
        rcs = [
            self.op("audit", grit_cli, ["--quiet", "audit", str(run_dir), "--out", str(out)])
            for _ in range(repeats)
        ]
        self.calibrate()
        return all(rc == 0 for rc in rcs)

    def check_audit(self, run_dir: Path, out: Path) -> None:
        missing = [name for name in AUDIT_CSVS if not (out / name).exists()]
        n_vectors = sum(1 for line in (run_dir / "updates.jsonl").read_text().splitlines() if line)
        pca_rows = len((out / "pca_updates.csv").read_text().splitlines()) - 1 if not missing else -1
        expected = n_vectors if n_vectors >= 3 else 0  # grit audit writes a bare header below 3
        self.check(
            f"audit {run_dir.name}",
            not missing and pca_rows == expected,
            f"missing {missing}; pca_updates.csv rows {pca_rows} for {n_vectors} update vectors",
        )

    def check_same(self, name: str, prints: list[dict]) -> None:
        ok = len(prints) >= 2 and all(p == prints[0] for p in prints[1:]) and bool(prints[0])
        self.check(f"deterministic {name}", ok, f"{len(prints)} runs of one seed, {len(prints[0]) if prints else 0} artifacts compared")


def at_reference(cal, samples) -> list[float]:
    """Scale each (start, end, wall) sample by CAL_REF_S over the kernel time.

    Short samples take the kernel interpolated at their midpoint; long ones
    (whole runs) take its harmonic mean over their interval.
    """
    when = np.array([t for t, _ in cal])
    kernel = np.array([k for _, k in cal])
    out = []
    for start, end, wall in samples:
        if end - start < CAL_EVERY_S:
            k = float(np.interp((start + end) / 2, when, kernel))
        else:
            grid = np.linspace(start, end, 64)
            k = 1.0 / float(np.mean(1.0 / np.interp(grid, when, kernel)))
        out.append(wall * CAL_REF_S / k)
    return out


def _median(values):
    return float(np.median(values)) if values else float("nan")


# -- forgetting_study --------------------------------------------------------

STUDY_WINDOW = 2  # seeds per run: --seed n runs study seeds 2n and 2n+1


def forgetting_study(b: Bench) -> str:
    seeds = [STUDY_WINDOW * b.seed + i for i in range(STUDY_WINDOW)]
    control: dict[int, list] = defaultdict(list)

    def set_up(r):
        # The matched plain-LoRA halves: the bypass path, same model, tasks
        # and AdamW code with no geometry stage.
        for s in seeds:
            out = b.work / f"setup{r}" / f"control-s{s}"
            rec = b.train(study_config("lora_control", s), out, "control_run")
            if rec is not None:
                control[s].append((rec, fingerprint(out), out))

    b.setup(3, set_up)
    grit: dict[int, list] = defaultdict(list)

    def op(j):
        s = seeds[j % len(seeds)]
        out = b.work / "ops" / f"grit-s{s}-{j}"
        rec = b.train(study_config("grit", s), out, "run")
        if rec is None:
            return
        grit[s].append((rec, fingerprint(out), out))
        # Only grit dirs are audited: a control dir has fewer events and
        # audits ~25% faster, and a median over a mix of the two would sit
        # on the boundary between them.
        if b.audit(out, out / "audit", repeats=10):
            b.check_audit(out, out / "audit")

    b.loop(len(seeds) + 1, len(seeds), op)

    paired = [s for s in seeds if grit[s] and control[s]]
    g_drift = [grit[s][0][0].delta_pt_loss for s in paired]
    c_drift = [control[s][0][0].delta_pt_loss for s in paired]
    g_exp = [grit[s][0][0].geometry_summary.curvature_exposure for s in paired]
    c_exp = [control[s][0][0].geometry_summary.curvature_exposure for s in paired]
    ratios = [grit[s][0][0].quadratic_forgetting_estimate / grit[s][0][0].delta_pt_loss for s in paired]
    b.facts["study_seeds"] = seeds
    b.facts["drift_ratio"] = _median(g_drift) / _median(c_drift) if paired else float("nan")
    b.facts["per_seed_drift"] = {s: [g, c] for s, g, c in zip(paired, g_drift, c_drift)}
    b.check("study pairs", len(paired) == len(seeds), f"{len(paired)} of {len(seeds)} seeds paired")
    b.check(
        "exposure below control",
        bool(paired) and _median(g_exp) < _median(c_exp),
        f"median curvature exposure {_median(g_exp):.4f} (grit) vs {_median(c_exp):.4f} (control)",
    )
    b.check(
        "quad/exact within 20%",
        bool(ratios) and all(abs(r - 1.0) < 0.2 for r in ratios),
        "ratios " + ", ".join(f"{r:.4f}" for r in ratios),
    )
    for s in seeds:
        if len(grit[s]) > 1:
            b.check_same(f"grit seed {s}", [fp for _, fp, _ in grit[s]])
        b.check_same(f"control seed {s}", [fp for _, fp, _ in control[s]])
    b.check(
        "a grit seed ran twice",
        any(len(grit[s]) > 1 for s in seeds),
        f"runs per seed {[len(grit[s]) for s in seeds]}",
    )
    return "grit"


# -- wide_control ------------------------------------------------------------

WIDE_D = 48
WIDE_STEPS = 400


def wide_control(b: Bench) -> str:
    s = b.seed
    config = study_config("lora_control", s, d=WIDE_D, steps=WIDE_STEPS)

    def set_up(r):
        # Build the task exactly as run_experiment does; the run itself
        # builds its own, so nothing here is reused by the timed part.
        task = build_task(
            config.task, rank=config.lora_rank, alpha=config.lora_alpha,
            eval_size=config.eval_size, model_rng=seed_stream(s, "model"),
            data_rng=seed_stream(s, "task-data"),
        )
        return task.n_params

    b.setup(25, set_up)
    runs = []

    def op(j):
        out = b.work / "ops" / f"control-d{WIDE_D}-s{s}-{j}"
        rec = b.train(config, out, "run")
        if rec is None:
            return
        runs.append((rec, fingerprint(out)))
        if b.audit(out, out / "audit", repeats=10):
            b.check_audit(out, out / "audit")

    b.loop(2, 1, op)
    if runs:
        rec = runs[0][0]
        ratio = rec.quadratic_forgetting_estimate / rec.delta_pt_loss
        b.facts["quad_over_exact"] = ratio
        finite = all(
            math.isfinite(v)
            for v in (rec.pt_loss_before, rec.pt_loss_after, rec.final_task_loss, ratio)
        )
        b.check("record finite", finite, f"dpt {rec.delta_pt_loss:.6g}, task {rec.final_task_loss:.6g}")
        b.check("quad/exact within 20%", abs(ratio - 1.0) < 0.2, f"ratio {ratio:.4f}")
    b.check("wide runs", len(runs) >= 2, f"{len(runs)} runs")
    b.check_same(f"control d={WIDE_D} seed {s}", [fp for _, fp in runs])
    return "lora_control"


# -- analysis ----------------------------------------------------------------

DENSE_RUNS = 2
LAW_N = (10_000, 100_000)
LAW_D = tuple(int(d) for d in np.geomspace(1e3, 1e5, 6))
LAW_NOISE = 1e-5  # absolute, on losses of order c0 ~ 2
# Relative recovery tolerances for the generating constants. Over law seeds
# 0-299 the worst errors were 1.6e-4 (baseline) and 2.0e-3 (gammas).
LAW_TOL_BASE = 1e-3
LAW_TOL_GAMMA = 1e-2


def law_truth(seed: int) -> dict:
    rng = seed_stream(seed, "perfbench-law")
    return {
        "c0": float(rng.uniform(1.5, 2.5)),
        "a_coef": float(rng.uniform(0.5, 2.0)),
        "alpha": float(rng.uniform(0.2, 0.4)),
        "beta": float(rng.uniform(0.3, 0.6)),
        "gammas": [float(g) for g in rng.uniform(0.1, 0.6, size=3)],
    }


def write_law_records(root: Path, seed: int, truth: dict) -> list[Path]:
    """record.json directories whose losses come from the law itself, with seeded noise."""
    rng = seed_stream(seed, "perfbench-law-data")
    g_r, g_a, g_p = truth["gammas"]
    dirs = []
    for n in LAW_N:
        for d in LAW_D:
            base = truth["c0"] + truth["a_coef"] * d ** truth["beta"] / n ** truth["alpha"]
            r_eff = float(rng.integers(1, 9))
            rho = float(rng.uniform(0.0, 1.0))
            pi = float(rng.uniform(0.0, 1.0))
            xi = (1.0 + g_r * r_eff) * (1.0 + g_a * rho) * (1.0 + g_p * pi)
            geo = truth["c0"] + truth["a_coef"] * d ** truth["beta"] / (xi * n) ** truth["alpha"]
            for mode, loss, summary in (
                ("lora_control", base, GeometrySummary(max_rank=8)),
                ("grit", geo, GeometrySummary(r_eff=r_eff, rho_align=rho, pi_proj=pi, max_rank=8)),
            ):
                out = root / f"{mode}-n{n}-d{d}"
                out.mkdir(parents=True, exist_ok=True)
                write_record(
                    RunRecord(
                        d_ft=d, n_params=n, final_task_loss=0.0,
                        pt_loss_before=truth["c0"], pt_loss_after=float(loss + LAW_NOISE * rng.normal()),
                        mode=mode, seed=seed, task="law", geometry_summary=summary,
                    ),
                    out,
                )
                dirs.append(out)
    return dirs


def analysis(b: Bench) -> str:
    seeds = [DENSE_RUNS * b.seed + i for i in range(DENSE_RUNS)]
    truth = law_truth(b.seed)
    dense: dict[int, list] = defaultdict(list)
    law_prints = []

    def set_up(r):
        for s in seeds:
            out = b.work / f"setup{r}" / f"dense-s{s}"
            rec = b.train(study_config("lora_control", s, steps=400, telemetry_every=5), out, "run")
            if rec is not None:
                dense[s].append((fingerprint(out), out))
        law_dirs = write_law_records(b.work / f"setup{r}" / "law", b.seed, truth)
        law_prints.append([fingerprint(p) for p in law_dirs])
        return law_dirs

    law_dirs = b.setup(3, set_up)[0]
    fits = []
    audit_prints = defaultdict(list)

    def op(j):
        s = seeds[j % len(seeds)]
        if dense[s]:
            run_dir = dense[s][0][1]
            out = b.work / "ops" / f"audit-s{s}-{j}"
            if b.audit(run_dir, out):
                b.check_audit(run_dir, out)
                audit_prints[s].append(
                    {n: hashlib.sha256((out / n).read_bytes()).hexdigest() for n in AUDIT_CSVS}
                )
        fit_path = b.work / "ops" / f"fit-{j}.json"
        fit_path.parent.mkdir(parents=True, exist_ok=True)
        if b.op("fit_law", grit_cli, ["--quiet", "fit-law", *map(str, law_dirs), "--out", str(fit_path)]) == 0:
            fits.append(load_fit(fit_path))

    b.loop(len(seeds) + 1, len(seeds), op)

    for s in seeds:
        b.check_same(f"dense run seed {s}", [fp for fp, _ in dense[s]])
    b.check_same(f"audit output seed {seeds[0]}", audit_prints[seeds[0]])
    b.check("law records", all(p == law_prints[0] for p in law_prints), f"{len(law_prints)} set-ups compared")
    b.check("fits", bool(fits), f"{len(fits)} fit documents")
    if fits:
        fit = fits[0]
        base_err = max(abs(getattr(fit, k) - truth[k]) / truth[k] for k in ("c0", "a_coef", "alpha", "beta"))
        gamma_err = max(abs(f - t) / t for f, t in zip(fit.gammas, truth["gammas"]))
        b.facts["law_truth"] = truth
        b.facts["law_fit_errors"] = {"baseline": base_err, "gamma": gamma_err}
        b.check("fit-law baseline constants", base_err < LAW_TOL_BASE, f"max rel error {base_err:.3g} (tol {LAW_TOL_BASE})")
        b.check("fit-law gammas", gamma_err < LAW_TOL_GAMMA, f"max rel error {gamma_err:.3g} (tol {LAW_TOL_GAMMA})")
    return "lora_control"


WORKLOADS = {
    "forgetting_study": forgetting_study,
    "wide_control": wide_control,
    "analysis": analysis,
}
