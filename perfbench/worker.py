"""Child process of the benchmark: either one set-up build, or the timed client loop.

    python3 perfbench/worker.py setup --workload W --seed S --dir D --result R [--trace]
    python3 perfbench/worker.py run --workload W --seed S --dir D --seconds N --result R [--trace]

``setup`` imports battfault, warms it up and builds the workload's inputs into
``D/inputs``; it times all of that from its own start, so that each set-up
build is a cold one. ``run`` is the closed-loop client: it issues one command
at a time against ``D/inputs`` until ``--seconds`` of commands have been timed
and the workload's minimum count is reached. With ``--trace`` the set-up build,
or one extra command after one untraced command, runs with spans recorded.
Both write one JSON result to ``--result``; the command output of the program
goes to stdout.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

from battfault import cli, model  # noqa: E402
from battfault.numcore import SeededRng  # noqa: E402

import tracing  # noqa: E402

# desk preset as run today: FleetConfig() (40 vehicles x 4 snippets x 128 steps),
# split 0.8, batch 16, ModelConfig.desk_default(); only the epoch count is set
EPOCHS = {"pretrain": 2, "evaluate": 1}
# a command may start only while the worker is younger than this, so that a
# slow machine still ends the whole run within run.RUN_LIMIT_S
START_DEADLINE_S = 110.0


def _digest_tree(path):
    out = {}
    for dirpath, _, files in os.walk(path):
        for name in files:
            full = os.path.join(dirpath, name)
            with open(full, "rb") as fh:
                out[os.path.relpath(full, path)] = hashlib.sha256(fh.read()).hexdigest()
    return dict(sorted(out.items()))


def _call_cli(argv, errors):
    code = cli.main(argv)
    if code != 0:
        errors.append(f"battfault {argv[0]} exited with code {code}")


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------


def _build_inputs(workload, seed, inputs):
    """Fleet CSVs and config from the seed; evaluate also gets a checkpoint."""
    data = os.path.join(inputs, "data")
    os.makedirs(data)
    config = os.path.join(inputs, "config.json")
    with open(config, "w", encoding="utf-8") as fh:
        json.dump({"seed": seed, "pretrain": {"epochs": EPOCHS.get(workload, 1)}}, fh)
    errors = []
    _call_cli(["synth", "--config", config, "--out", data], errors)
    if workload == "evaluate" and not errors:
        _call_cli(["pretrain", "--config", config, "--data", data,
                   "--out", os.path.join(inputs, "setup_checkpoint")], errors)
    return errors


def setup(args):
    inputs = os.path.join(args.dir, "inputs")
    tracer = tracing.Tracer() if args.trace else None
    with tracer.installed(only=tracing.SETUP_SPANS) if tracer else contextlib.nullcontext():
        _warm_up()
        errors = _build_inputs(args.workload, args.seed, inputs)
        elapsed = time.perf_counter() - T_START
    result = {"s": elapsed, "errors": errors, "digest": _digest_tree(inputs)}
    if tracer is not None:
        result["layer_metrics"] = tracer.metrics()
        result["spans"] = tracer.span_records()
    return result


# ---------------------------------------------------------------------------
# Timed commands, one per workload
# ---------------------------------------------------------------------------


class PretrainOp:
    """``battfault pretrain`` on the seed's fleet for EPOCHS["pretrain"] epochs."""

    min_ops = 2

    def __init__(self, inputs):
        self.config = os.path.join(inputs, "config.json")
        self.data = os.path.join(inputs, "data")

    def __call__(self, out, errors):
        _call_cli(["pretrain", "--config", self.config, "--data", self.data, "--out", out],
                  errors)

    def check(self, out, errors, info):
        with open(os.path.join(out, "loss_history.csv"), encoding="utf-8") as fh:
            val_loss = float(fh.read().splitlines()[-1].split(",")[2])
        with open(os.path.join(out, "checkpoint.json"), encoding="utf-8") as fh:
            train_snippets = json.load(fh)["provenance"]["train_snippets"]
        info["msm_val_loss"] = val_loss
        if not math.isfinite(val_loss):
            errors.append(f"final msm_val_loss is not finite: {val_loss}")
        return train_snippets * EPOCHS["pretrain"]


class EvaluateOp:
    """``battfault detect`` then ``battfault tsne`` on the set-up checkpoint."""

    # commands of one run differ by up to 25% on a noisy host; three give a
    # median that one slow command cannot move
    min_ops = 3

    def __init__(self, inputs):
        self.config = os.path.join(inputs, "config.json")
        self.data = os.path.join(inputs, "data")
        self.checkpoint = os.path.join(inputs, "setup_checkpoint", "checkpoint.json")

    def __call__(self, out, errors):
        common = ["--config", self.config, "--data", self.data, "--checkpoint", self.checkpoint]
        _call_cli(["detect", *common, "--out", os.path.join(out, "detect")], errors)
        if not errors:
            _call_cli(["tsne", *common, "--out", os.path.join(out, "tsne")], errors)

    def check(self, out, errors, info):
        with open(os.path.join(out, "detect", "report.json"), encoding="utf-8") as fh:
            report = json.load(fh)
        for key in ("snippet_auroc", "vehicle_auroc"):
            info[key] = report[key]
            if not 0.0 <= report[key] <= 1.0:
                errors.append(f"{key} {report[key]} outside [0, 1]")
        with open(os.path.join(self.data, "meta.csv"), encoding="utf-8") as fh:
            n_snippets = len(fh.read().splitlines()) - 1
        return 2 * n_snippets  # every snippet is encoded once by detect and once by tsne


OPS = {"pretrain": PretrainOp, "evaluate": EvaluateOp}


def _warm_up():
    cfg = model.ModelConfig.desk_default()
    params = model.init_params(cfg, SeededRng(0, ("perfbench", "warmup")))
    model.encode_batch(np.zeros((2, 16, cfg.D)), params, cfg)


def _environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "python": platform.python_version(),
            "blas": f'{blas.get("name")} {blas.get("version")}',
            "battfault": os.path.dirname(model.__file__)}


def run(args):
    _warm_up()
    op = OPS[args.workload](os.path.join(args.dir, "inputs"))
    ops = []
    reference = []

    def issue(tracer=None):
        out = os.path.join(args.dir, f"op{len(ops)}")
        errors = []
        record = {"traced": tracer is not None, "errors": errors, "info": {}}
        with tracer.installed() if tracer else contextlib.nullcontext():
            start = time.perf_counter()
            try:
                op(out, errors)
            except Exception as exc:  # a raising command is a failed operation
                errors.append(f"{type(exc).__name__}: {exc}")
            record["wall_s"] = time.perf_counter() - start
        if not errors:
            record["items"] = op.check(out, errors, record["info"])
        if not errors:
            reference.append(_digest_tree(out))
            if reference[-1] != reference[0]:
                errors.append("outputs differ from the first command of this seed")
        if tracer is not None:
            record["layer_metrics"] = tracer.metrics()
            record["spans"] = tracer.span_records()
        ops.append(record)
        return not errors

    if args.trace:
        # one untraced command, then one traced command even if the first failed
        # a check, so that the per-layer metrics always come from a traced command
        issue()
        issue(tracing.Tracer())
    else:
        timed = 0.0
        while issue():
            timed += ops[-1]["wall_s"]
            late = time.perf_counter() - T_START + ops[-1]["wall_s"] > START_DEADLINE_S
            if len(ops) >= op.min_ops and (timed >= args.seconds or late):
                break
    return {"ops": ops, "environment": _environment(),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def main():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--workload", required=True, choices=sorted(OPS))
    common.add_argument("--seed", type=int, required=True)
    common.add_argument("--dir", required=True)
    common.add_argument("--result", required=True)
    common.add_argument("--trace", action="store_true")
    ap = argparse.ArgumentParser()
    roles = ap.add_subparsers(dest="role", required=True)
    roles.add_parser("setup", parents=[common])
    roles.add_parser("run", parents=[common]).add_argument("--seconds", type=float, required=True)
    args = ap.parse_args()
    if not os.path.dirname(os.path.abspath(cli.__file__)).startswith(SRC + os.sep):
        sys.exit(f"battfault imported from {cli.__file__}, not from {SRC}")
    result = (setup if args.role == "setup" else run)(args)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
