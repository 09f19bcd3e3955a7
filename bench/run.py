"""dinsat benchmark: the `train` -> `correct` CLI pipeline on fixed-seed scenes.

Run from the repository root:

    python3 bench/run.py --workload linear-unsup-512 --seed 1 --seconds 50 --trace 0

``--trace 0`` runs the CLI commands as plain subprocesses and reports the
end-to-end metrics. ``--trace 1`` runs them under ``bench/traced_cli.py``,
which records spans around every layer call, and reports per-layer metrics.
Every run checks the outputs against the synthetic truth. The last line of
stdout is one JSON object with the keys correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from tracer import read_spans, summarize
from workloads import WORKLOADS, Inputs, Workload, write_inputs

BENCH_DIR = Path(__file__).resolve().parent
# Set-up runs at least SETUP_MIN_REPEATS times and until SETUP_MIN_S have
# passed, so the small scene's ~0.1 s set-up still gets a steady median.
SETUP_MIN_REPEATS = 3
SETUP_MIN_S = 2.0
SETUP_MAX_REPEATS = 25
MIN_TRACED_PIPELINES = 2  # the exact-count check compares two traced runs
COMMAND_TIMEOUT_S = 150.0
PMSE_LIMIT = 20.0  # criterion 6's held-out bound, in percent
# One BLAS thread per process: ensemble members already use both cores.
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
CLI = "import sys; from dinsat.cli import main; sys.exit(main(prog_name='dinsat'))"


@dataclass
class Command:
    wall_s: float
    rss_mb: float
    code: int
    spawned: float  # perf_counter just before the process was started


@dataclass
class Pipeline:
    train: Command
    correct: Command | None = None
    errors: list[str] = field(default_factory=list)
    refl_pmse: float = float("nan")
    trace_dir: Path | None = None

    @property
    def wall_s(self) -> float:
        return self.train.wall_s + (self.correct.wall_s if self.correct else 0.0)


def run_command(argv: list[str], env: dict, log: Path) -> Command:
    """Run argv to completion; wall time and peak RSS of it and its workers.

    wait4's ru_maxrss is the largest of the process and every descendant it
    waited for, so ensemble workers are included.
    """
    with open(log, "wb") as out:
        spawned = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT, env=env,
                                start_new_session=True)
        timer = threading.Timer(COMMAND_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - spawned
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Command(wall, usage.ru_maxrss / 1024.0, proc.returncode, spawned)


class Bench:
    def __init__(self, root: Path, w: Workload, seed: int, run_dir: Path):
        self.w, self.seed, self.run_dir = w, seed, run_dir
        self.env = dict(os.environ)
        src = str(root / "src")
        if self.env.get("PYTHONPATH"):
            src += os.pathsep + self.env["PYTHONPATH"]
        self.env["PYTHONPATH"] = src
        for key in BLAS_ENV:
            self.env[key] = "1"
        self.attempted = 0
        self.failed = 0
        self.history: list[dict] = []  # one record per pipeline, for result.json
        self._n = 0

    # -- inputs --------------------------------------------------------------

    def setup(self, min_repeats: int, min_s: float = 0.0) -> tuple[Inputs, list[float]]:
        """Write the inputs into fresh directories, at least `min_repeats` times
        and for at least `min_s` seconds; keep the last copy."""
        times, previous, inputs = [], None, None
        while len(times) < min_repeats or (sum(times) < min_s and len(times) < SETUP_MAX_REPEATS):
            t0 = time.perf_counter()
            inputs = write_inputs(self.w, self.seed, self.run_dir / f"inputs{len(times)}")
            times.append(time.perf_counter() - t0)
            if previous is not None:
                shutil.rmtree(previous)
            previous = inputs.cube.parent
        return inputs, times

    # -- one train -> correct pipeline ---------------------------------------

    def pipeline(self, inputs: Inputs, traced: bool) -> Pipeline:
        p = self._pipeline(inputs, traced)
        self.history.append({
            "traced": traced, "errors": p.errors, "refl_pmse": p.refl_pmse,
            "train_s": p.train.wall_s, "train_rss_mb": p.train.rss_mb,
            "correct_s": p.correct.wall_s if p.correct else None,
            "correct_rss_mb": p.correct.rss_mb if p.correct else None,
        })
        return p

    def _pipeline(self, inputs: Inputs, traced: bool) -> Pipeline:
        self._n += 1
        work = self.run_dir / f"pipeline{self._n:02d}"
        trained, corrected = work / "train", work / "correct"
        work.mkdir()
        trace_dir = work / "trace" if traced else None

        def launch(command: str) -> list[str]:
            if trace_dir is None:
                return [sys.executable, "-c", CLI, command]
            (trace_dir / command).mkdir(parents=True)
            return [sys.executable, str(BENCH_DIR / "traced_cli.py"), str(trace_dir / command), command]

        train_args = ["--cube", str(inputs.cube), "--config", str(inputs.config),
                      "--mode", self.w.mode, "--out", str(trained)]
        if inputs.roi is not None:
            train_args += ["--roi", str(inputs.roi)]
        if self.w.ensemble > 1:
            train_args += ["--ensemble", str(self.w.ensemble), "--threads", str(self.w.threads)]
        result = Pipeline(run_command(launch("train") + train_args, self.env, work / "train.log"),
                          trace_dir=trace_dir)
        self.attempted += 1
        result.errors += self.check_train(result.train, trained)
        if result.errors:
            self.attempted += 1  # the correct step cannot run, so it fails too
            self.failed += 2
            return result

        correct_args = ["--cube", str(inputs.cube), "--model", str(trained / "model_000.json"),
                        "--norm", str(trained / "norm.json"), "--out", str(corrected)]
        result.correct = run_command(launch("correct") + correct_args, self.env, work / "correct.log")
        self.attempted += 1
        errors = self.check_correct(result.correct, corrected, inputs)
        if not errors:
            result.refl_pmse = refl_pmse(corrected, inputs, self.w)
            if not result.refl_pmse < PMSE_LIMIT:
                errors.append(f"refl_pmse {result.refl_pmse:.4g} is not under {PMSE_LIMIT} "
                              "(or a reflectance is not finite)")
        if errors:
            self.failed += 1
            result.errors += errors
        for image in corrected.glob("*.img"):
            image.unlink()
        return result

    # -- output checks -------------------------------------------------------

    def check_train(self, cmd: Command, out: Path) -> list[str]:
        from dinsat import artifacts
        from dinsat.errors import DinsatError

        if cmd.code != 0:
            return [f"train exited {cmd.code}"]
        errors = []
        for i in range(self.w.ensemble):
            try:
                model, _, _ = artifacts.read_model(out / f"model_{i:03d}.json")
            except (OSError, DinsatError) as e:
                errors.append(f"model_{i:03d}.json does not read back: {e}")
                continue
            if model.kind != self.w.model_kind or model.n_bands != self.w.bands:
                errors.append(f"model_{i:03d}.json is a {model.kind} model of {model.n_bands} bands")
        return errors

    def check_correct(self, cmd: Command, out: Path, inputs: Inputs) -> list[str]:
        from dinsat.envi import read_envi_header
        from dinsat.errors import DinsatError

        if cmd.code != 0:
            return [f"correct exited {cmd.code}"]
        errors = []
        shape = (self.w.rows, self.w.cols, self.w.bands)
        for name, itemsize in (("corrected", 4), ("quality_mask", 2)):
            try:
                h = read_envi_header(out / f"{name}.hdr")
            except DinsatError as e:
                errors.append(f"{name}.hdr: {e}")
                continue
            if (h.lines, h.samples, h.bands) != shape:
                errors.append(f"{name}.hdr is {h.lines}x{h.samples}x{h.bands}")
            if h.wavelengths_nm is None or not np.array_equal(h.wavelengths_nm, inputs.wavelengths_nm):
                errors.append(f"{name}.hdr does not carry the input wavelengths")
            img = out / f"{name}.img"
            if not img.is_file() or img.stat().st_size != np.prod(shape) * itemsize:
                errors.append(f"{name}.img is missing or not {shape} x {itemsize} bytes")
        return errors


def refl_pmse(corrected: Path, inputs: Inputs, w: Workload) -> float:
    """100 * mean((rho_hat - rho)^2) over every pixel and band; NaN if any rho_hat is not finite."""
    rho_hat = np.memmap(corrected / "corrected.img", dtype="<f4", mode="r",
                        shape=(w.bands, w.rows, w.cols))
    truth = np.load(inputs.truth, mmap_mode="r")
    total = 0.0
    for b in range(0, w.bands, 16):
        got = np.asarray(rho_hat[b:b + 16], dtype=np.float64)
        if not np.all(np.isfinite(got)):
            return float("nan")
        total += float(np.sum((got - truth[b:b + 16]) ** 2))
    return 100.0 * total / (w.bands * w.rows * w.cols)


# -- metrics -------------------------------------------------------------------

def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def end_to_end(runs: list[Pipeline], setup_s: list[float], w: Workload) -> dict:
    px = w.rows * w.cols
    med = statistics.median
    return {
        "setup_s": metric(med(setup_s), "s"),
        "train_s": metric(med(r.train.wall_s for r in runs), "s"),
        "correct_px_per_s": metric(med(px / r.correct.wall_s for r in runs), "px/s"),
        "pipeline_s": metric(med(r.wall_s for r in runs), "s"),
        "train_rss_mb": metric(med(r.train.rss_mb for r in runs), "MB"),
        "correct_rss_mb": metric(med(r.correct.rss_mb for r in runs), "MB"),
    }


# Counts that two traced runs of one seed must reproduce exactly.
EXACT_COUNTS = (
    "autodiff.tape_nodes_total", "autodiff.backward_calls", "ode.solve_calls",
    "ode.reverse_calls", "mlp.forward_calls", "transmission.t1_calls",
    "transmission.inverse_calls", "correction.batch_calls", "training.epochs",
    "optim.adam_calls",
)


def layer_figures(p: Pipeline) -> tuple[dict, list[float], dict]:
    """Per-layer figures of one traced pipeline, its epoch intervals, and span summary."""
    spans = read_spans(sorted(p.trace_dir.glob("*/spans-*.jsonl")))
    s = summarize(spans)

    def calls(name):
        return s[name].calls if name in s else 0

    def total(name):
        return s[name].total_s if name in s else 0.0

    def own(name):
        return s[name].self_s if name in s else 0.0

    def attr_sum(name, key):
        return sum(x.attrs.get(key, 0) for x in spans if x.name == name)

    f = {}
    for layer in ("envi.read", "envi.write"):
        f[f"{layer}_s"] = total(layer)
        f[f"{layer}_mb_s"] = attr_sum(layer, "bytes") / 1e6 / total(layer) if total(layer) else 0.0
    f["normalize.s"] = total("normalize.samples") + total("normalize.estimate")
    f["normalize.px"] = attr_sum("normalize.estimate", "px")
    f["correction.batch_calls"] = calls("correction.batch")
    f["correction.batch_s"] = total("correction.batch")
    f["correction.batch_self_s"] = own("correction.batch")
    px = attr_sum("correction.batch", "px")
    f["correction.px_per_s"] = px / total("correction.batch") if total("correction.batch") else 0.0
    for layer, key in (("transmission.t1", "t1"), ("transmission.inverse", "inverse")):
        f[f"transmission.{key}_calls"] = calls(layer)
        f[f"transmission.{key}_s"] = total(layer)
    # No time here is 0 by construction on a workload (there is no reverse
    # solve and no MLP in the linear one). mlp.forward runs only inside the
    # solves, so its time is ode.s - ode.self_s; the reverse solves' time is
    # ode.s - ode.solve_s.
    f["ode.solve_calls"] = calls("ode.solve")
    f["ode.solve_s"] = total("ode.solve")
    f["ode.solve_self_s"] = own("ode.solve")
    f["ode.reverse_calls"] = calls("ode.reverse")
    f["ode.s"] = total("ode.solve") + total("ode.reverse")
    f["ode.self_s"] = own("ode.solve") + own("ode.reverse")
    f["mlp.forward_calls"] = calls("mlp.forward")
    f["autodiff.backward_calls"] = calls("autodiff.backward")
    f["autodiff.backward_s"] = total("autodiff.backward")
    f["autodiff.tape_nodes_total"] = attr_sum("autodiff.backward", "nodes")
    f["autodiff.tape_nodes"] = (f["autodiff.tape_nodes_total"] / f["autodiff.backward_calls"]
                                if f["autodiff.backward_calls"] else 0.0)
    f["training.epochs"] = attr_sum("training.train", "epochs")
    f["training.loss_s"] = total("training.loss")
    f["optim.adam_calls"] = calls("optim.adam")
    f["optim.adam_s"] = total("optim.adam")
    f["artifacts.read_s"] = total("artifacts.read")
    f["artifacts.write_s"] = total("artifacts.write")

    # Epoch time: the interval between successive adam_step returns in one train call.
    intervals = []
    for t in (x for x in spans if x.name == "training.train"):
        ends = sorted(x.end for x in spans if x.name == "optim.adam" and x.parent == t.id)
        intervals += [1e3 * (b - a) for a, b in zip(ends, ends[1:])]

    # Startup is process start to the first layer call; what neither startup nor
    # a top-level span of the command's own process covers is unaccounted time.
    startups = []
    for cmd_name, cmd in (("train", p.train), ("correct", p.correct)):
        main = read_spans((p.trace_dir / cmd_name).glob("spans-*-main.jsonl"))
        first = min(x.start for x in main)
        startups.append(first - cmd.spawned)
        top = sum(x.duration for x in main if x.parent is None)
        f[f"cli.{cmd_name}_other_frac"] = (cmd.wall_s - (first - cmd.spawned) - top) / cmd.wall_s
    f["cli.startup_s"] = statistics.median(startups)
    f["trace.pipeline_s"] = p.wall_s
    return f, intervals, s


def per_layer(traced: list[Pipeline], untraced: list[Pipeline]) -> tuple[dict, list[str], dict]:
    """Per-layer metrics: medians of timings over traced pipelines, exact counts checked."""
    figures, intervals, summary = [], [], None
    for p in traced:
        f, iv, s = layer_figures(p)
        figures.append(f)
        intervals += iv
        summary = summary or s
    errors = [
        f"{name} differs between traced runs of one seed: {[f[name] for f in figures]}"
        for name in EXACT_COUNTS if len({f[name] for f in figures}) != 1
    ]
    med = {k: statistics.median(f[k] for f in figures) for k in figures[0]}
    med.pop("autodiff.tape_nodes_total")
    if intervals:
        # p75 is the highest percentile that leaves at least 10 epochs beyond it
        # on a single 40-epoch run.
        med["training.epoch_ms_p50"], med["training.epoch_ms_p75"] = np.percentile(intervals, [50, 75])
    med["training.epoch_samples"] = len(intervals)
    plain = statistics.median(p.wall_s for p in untraced)
    med["trace.overhead_frac"] = med["trace.pipeline_s"] / plain - 1.0
    med["check.refl_pmse"] = statistics.median(p.refl_pmse for p in traced)
    return {k: metric(v, LAYER_UNITS[k]) for k, v in sorted(med.items())}, errors, summary


LAYER_UNITS = {
    "envi.read_s": "s", "envi.read_mb_s": "MB/s", "envi.write_s": "s", "envi.write_mb_s": "MB/s",
    "normalize.s": "s", "normalize.px": "px",
    "correction.batch_calls": "count", "correction.batch_s": "s",
    "correction.batch_self_s": "s", "correction.px_per_s": "px/s",
    "transmission.t1_calls": "count", "transmission.t1_s": "s",
    "transmission.inverse_calls": "count", "transmission.inverse_s": "s",
    "ode.solve_calls": "count", "ode.solve_s": "s", "ode.solve_self_s": "s",
    "ode.reverse_calls": "count", "ode.s": "s", "ode.self_s": "s",
    "mlp.forward_calls": "count",
    "autodiff.tape_nodes": "count", "autodiff.backward_calls": "count", "autodiff.backward_s": "s",
    "training.epochs": "count", "training.epoch_ms_p50": "ms", "training.epoch_ms_p75": "ms",
    "training.epoch_samples": "count", "training.loss_s": "s",
    "optim.adam_calls": "count", "optim.adam_s": "s",
    "artifacts.read_s": "s", "artifacts.write_s": "s",
    "cli.startup_s": "s", "cli.train_other_frac": "ratio", "cli.correct_other_frac": "ratio",
    "trace.pipeline_s": "s", "trace.overhead_frac": "ratio", "check.refl_pmse": "%",
}


def provenance(root: Path) -> dict:
    import scipy

    try:
        # The ceiling stops git from reporting a repository that merely contains root.
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)},
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    keys = ("DINSAT_THREADS",) + BLAS_ENV
    return {
        "git_sha": sha, "nproc": os.cpu_count(), "cpu": cpu,
        "python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__,
        "child_env": {k: os.environ.get(k) if k == "DINSAT_THREADS" else "1" for k in keys},
    }


def print_table(title: str, metrics: dict) -> None:
    print(title)
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:>14.6g} {m['unit']}")


def measure(bench: Bench, seconds: float, trace: bool) -> tuple[dict, list[str]]:
    """Set up, then run pipelines for about `seconds`; returns metrics and failed checks."""
    started = time.perf_counter()
    inputs, setup_s = bench.setup(1) if trace else bench.setup(SETUP_MIN_REPEATS, SETUP_MIN_S)
    t0 = time.perf_counter()

    def pipelines(traced: bool, at_least: int) -> list[Pipeline]:
        runs: list[Pipeline] = []
        while True:
            p = bench.pipeline(inputs, traced)
            runs.append(p)
            if p.errors:
                break
            # Start another pipeline only if it should end within the budget.
            if len(runs) >= at_least and time.perf_counter() - t0 + p.wall_s > seconds:
                break
        return runs

    try:
        if not trace:
            runs = pipelines(False, 1)
            errors = [e for p in runs for e in p.errors]
            metrics = end_to_end(runs, setup_s, bench.w) if not errors else {}
            print_table(f"{bench.w.name} seed {bench.seed}: {len(runs)} pipelines, "
                        f"{time.perf_counter() - started:.1f} s", metrics)
            # Reported, not bounded: refl_pmse varies too much from seed to seed
            # for a regression bound, and failed_frac is carried by `failed`.
            print(f"  {'refl_pmse':32s} {statistics.median(p.refl_pmse for p in runs):>14.6g} %")
            print(f"  {'failed_frac':32s} {bench.failed / bench.attempted:>14.6g} "
                  f"({bench.failed}/{bench.attempted} operations)")
            return metrics, errors
        plain = [bench.pipeline(inputs, traced=False)]  # the reference for tracing overhead
        traced = pipelines(True, MIN_TRACED_PIPELINES) if not plain[-1].errors else []
        errors = [e for p in plain + traced for e in p.errors]
        if errors:
            return {}, errors
        metrics, count_errors, summary = per_layer(traced, plain)
        bench.attempted += 1  # the exact-count check
        print(f"{'span':24s} {'calls':>9s} {'total_s':>10s} {'self_s':>10s}  (first traced pipeline)")
        for name, s in sorted(summary.items()):
            print(f"{name:24s} {s.calls:>9d} {s.total_s:>10.4f} {s.self_s:>10.4f}")
        print_table(f"{bench.w.name} seed {bench.seed}: {len(traced)} traced pipelines", metrics)
        if count_errors:
            bench.failed += 1
        return metrics, count_errors
    finally:
        shutil.rmtree(inputs.cube.parent, ignore_errors=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="measuring budget per run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "dinsat" / "cli.py").is_file():
        print(f"error: {root} holds no dinsat sources (src/dinsat); run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))

    w = WORKLOADS[args.workload]
    run_dir = root / ".bench_runs" / f"{w.name}-seed{args.seed}-trace{args.trace}-{time.time_ns()}"
    run_dir.mkdir(parents=True)
    bench = Bench(root, w, args.seed, run_dir)
    info = provenance(root)
    print("provenance: " + json.dumps(info, sort_keys=True))
    metrics, errors = measure(bench, args.seconds, bool(args.trace))
    for e in errors:
        print(f"check failed: {e}")
    result = {
        "correct": not errors and bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }
    (run_dir / "result.json").write_text(json.dumps(
        {"workload": w.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
         "provenance": info, "pipelines": bench.history, **result}, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
