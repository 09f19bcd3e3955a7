"""Run one dinsat CLI command in-process, with a span around each layer call.

    python3 bench/traced_cli.py TRACE_DIR train|correct ...

Installs the wrappers listed in TARGETS, runs ``dinsat.cli.main`` with the
remaining arguments, and writes this process's spans to
``TRACE_DIR/spans-<pid>-main.jsonl`` when the command ends. Ensemble workers
write their own span files to the same directory.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

from tracer import Target, Tracer


def _read_bytes(args, kwargs, cube):
    from dinsat import envi

    data_path = kwargs.get("data_path") or (args[1] if len(args) > 1 else None)
    path = data_path or envi.guess_data_path(args[0] if args else kwargs["header_path"])
    return {"bytes": os.path.getsize(path)}


def _written_bytes(args, kwargs, data_path):
    return {"bytes": os.path.getsize(data_path)}


def _batch_px(args, kwargs, result):
    l4 = args[2] if len(args) > 2 else kwargs["l4"]
    return {"px": int(l4.shape[0]) if l4.ndim == 2 else 1}


def _norm_px(args, kwargs, result):
    return {"px": len(args[0] if args else kwargs["pixels"])}


def _tape_nodes(args, kwargs, result):
    out = args[0] if args else kwargs["out"]
    return {"nodes": len(out.tape.nodes)}


def _epochs(args, kwargs, run):
    return {"epochs": run.epochs}


# Each entry is the attribute the caller looks the function up by.
TARGETS = [
    Target("dinsat.envi", "read_envi", "envi.read", _read_bytes),
    Target("dinsat.envi", "write_envi_array", "envi.write", _written_bytes),
    Target("dinsat.cli", "_all_cube_samples", "normalize.samples"),
    Target("dinsat.cli", "estimate_normalization", "normalize.estimate", _norm_px),
    Target("dinsat.cli", "ensemble", "training.ensemble"),
    Target("dinsat.training", "train", "training.train", _epochs, flush_in_worker=True),
    Target("dinsat.training", "_loss_terms", "training.loss"),
    Target("dinsat.training", "adam_step", "optim.adam"),
    Target("dinsat.autodiff", "backward", "autodiff.backward", _tape_nodes),
    Target("dinsat.cli", "correct_batch", "correction.batch", _batch_px),
    Target("dinsat.cli", "transmittance_values", "transmission.t1"),
    Target("dinsat.training", "transmittance_values", "transmission.t1"),
    Target("dinsat.correction", "transmittance_values", "transmission.t1"),
    Target("dinsat.correction", "invert_values", "transmission.inverse"),
    Target("dinsat.transmission", "ode_solve", "ode.solve"),
    Target("dinsat.transmission", "ode_solve_reverse", "ode.reverse"),
    Target("dinsat.transmission", "mlp_forward", "mlp.forward"),
    Target("dinsat.artifacts", "read_kv_config", "artifacts.read"),
    Target("dinsat.artifacts", "read_roi", "artifacts.read"),
    Target("dinsat.artifacts", "read_spectrum_csv", "artifacts.read"),
    Target("dinsat.artifacts", "read_model", "artifacts.read"),
    Target("dinsat.artifacts", "read_normalization", "artifacts.read"),
    Target("dinsat.artifacts", "write_normalization", "artifacts.write"),
    Target("dinsat.artifacts", "write_model", "artifacts.write"),
    Target("dinsat.artifacts", "write_run_record", "artifacts.write"),
]


def main(argv: list[str]) -> int:
    trace_dir = Path(argv[0])  # <run dir>/pipelineNN/trace/<command>
    # Spans of one pipeline (both commands and the workers) share a run id.
    run_id = f"{trace_dir.parents[2].name}/{trace_dir.parents[1].name}"
    tracer = Tracer(run_id=run_id, flush_dir=trace_dir)
    tracer.install(TARGETS)
    if tracer.missing:
        print("not traced, target missing: " + ", ".join(tracer.missing), file=sys.stderr)
    from dinsat.cli import main as cli_main

    try:
        cli_main(argv[1:], prog_name="dinsat")
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else (0 if e.code is None else 1)
    finally:
        tracer.flush(trace_dir / f"spans-{os.getpid()}-main.jsonl")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
