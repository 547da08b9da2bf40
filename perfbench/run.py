#!/usr/bin/env python3
"""battfault benchmark: one seeded workload per run, metrics as one JSON line.

    python3 perfbench/run.py --workload {pretrain,evaluate} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a battfault checkout; the package is imported from its
``src/`` directory, so there is nothing to build. Each run starts child
processes one after the other (see worker.py): a few set-up processes, each
of which imports battfault and builds the seed's inputs afresh, and then
the closed-loop client, which runs the timed commands one at a time. Set-up
runs in processes of its own so that each build is a cold one and its memory
peak stays out of the client's ``peak_rss_mb``. The last line of stdout is
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of one traced command with ``--trace 1``.
Results and spans are kept under perfbench/.results/. See perfbench/README.md.
"""

import argparse
import glob
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))

WORKLOADS = ("pretrain", "evaluate")
# setup_s is the median of this many cold set-ups: the 0.4 s ones of pretrain
# need more of them to be steady than the 3.5 s ones of evaluate
SETUP_REPS = {"pretrain": 7, "evaluate": 3}
# claims of a gain are re-checked on this seed, which no tuning run used
HELD_OUT_SEED = 1357
# the whole run, every child included, ends within this many seconds
RUN_LIMIT_S = 175.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _declared(kind):
    """(name, unit) of each metric of one kind in BENCHMARK.json, in its order."""
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        return [(m["name"], m["unit"]) for m in json.load(fh)[kind]]


def _child(role, args, work, root, env, deadline, trace, *extra):
    """Run one worker process to completion; its output goes to a log file."""
    result = os.path.join(work, f"{role}.json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), role,
           "--workload", args.workload, "--seed", str(args.seed), "--dir", work,
           "--result", result, *extra]
    if trace:
        cmd.append("--trace")
    log_path = os.path.join(work, f"{role}.log")
    with open(log_path, "w", encoding="utf-8") as log:
        proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=log, stderr=subprocess.STDOUT)
        try:
            code = proc.wait(timeout=max(deadline - time.monotonic(), 1.0))
        except subprocess.TimeoutExpired:
            code = "timeout"
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if code != 0 or not os.path.exists(result):
        with open(log_path, encoding="utf-8") as log:
            tail = log.read()[-2000:]
        raise RuntimeError(f"{role} process ended with {code}:\n{tail}")
    with open(result, encoding="utf-8") as fh:
        return json.load(fh)


def _environment(root, env, worker_env):
    src_lines = 0
    for path in glob.glob(os.path.join(root, "src", "**", "*.py"), recursive=True):
        with open(path, encoding="utf-8") as fh:
            src_lines += sum(1 for _ in fh)
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "thread_env": {k: env.get(k) for k in THREAD_VARS},
        **worker_env,
        "src_lines": src_lines,
        "held_out_seed": HELD_OUT_SEED,
        "machine_settings": "this benchmark pins no CPUs and changes no machine setting; "
                            "it only sets unset BLAS thread variables for its own children",
    }


def _end_to_end(setups, work):
    untraced = [op for op in work["ops"] if not op["traced"]]
    wall = statistics.median(op["wall_s"] for op in untraced)
    found = {
        "wall_s": wall,
        "setup_s": statistics.median(r["s"] for r in setups),
        "peak_rss_mb": work["peak_rss_mb"],
        # a failed command has no item count; the run then reports correct=false
        "items_per_s": untraced[0].get("items", 0) / wall,
    }
    return {name: (found[name], unit) for name, unit in _declared("end_to_end")}


def _per_layer(setups, work):
    untraced, traced = work["ops"]  # --trace 1 issues exactly these two commands
    found = dict(traced["layer_metrics"])
    found.update(setups[-1]["layer_metrics"])
    found["trace_overhead_s"] = traced["wall_s"] - untraced["wall_s"]
    # a layer the workload never reaches has no span: 0 calls and 0 s
    return {name: (found.get(name, 0), unit) for name, unit in _declared("per_layer")}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + RUN_LIMIT_S

    root = os.path.dirname(HERE)
    if not os.path.isfile(os.path.join(root, "src", "battfault", "__init__.py")):
        sys.exit("perfbench: no src/battfault package next to perfbench/; "
                 "run from the root of a battfault checkout")

    env = dict(os.environ)
    for var in THREAD_VARS:
        env.setdefault(var, str(len(os.sched_getaffinity(0))))
    env.pop("PYTHONPATH", None)

    work = os.path.join(HERE, ".work", f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
    results = os.path.join(HERE, ".results")
    os.makedirs(work)
    os.makedirs(results, exist_ok=True)
    setups = []
    try:
        reps = SETUP_REPS[args.workload]
        for rep in range(reps):
            shutil.rmtree(os.path.join(work, "inputs"), ignore_errors=True)
            # only the last build is traced; the client runs on its inputs
            setups.append(_child("setup", args, work, root, env, deadline,
                                 args.trace and rep == reps - 1))
        worker = _child("run", args, work, root, env, deadline, args.trace,
                        "--seconds", str(args.seconds))
    except RuntimeError as exc:
        sys.exit(f"perfbench: {exc}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for rep in setups[1:]:
        if rep["digest"] != setups[0]["digest"]:
            rep["errors"].append("set-up outputs differ from the first set-up of this seed")

    errors = [e for r in setups for e in r["errors"]]
    errors += [e for op in worker["ops"] for e in op["errors"]]
    attempted = len(setups) + len(worker["ops"])
    failed = sum(1 for r in setups if r["errors"])
    failed += sum(1 for op in worker["ops"] if op["errors"])
    metrics = (_per_layer if args.trace else _end_to_end)(setups, worker)
    environment = _environment(root, env, worker["environment"])

    stem = os.path.join(results, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    traced = [op for op in worker["ops"] if op["traced"]]
    if traced:
        with open(stem + ".spans.json", "w", encoding="utf-8") as fh:
            json.dump({"setup": setups[-1]["spans"], "command": traced[0].pop("spans")}, fh)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "environment": environment, "metrics": metrics,
              "setup_s": [r["s"] for r in setups],
              "ops": [{k: v for k, v in op.items() if k != "layer_metrics"}
                      for op in worker["ops"]]}
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace} "
          f"held_out_seed={HELD_OUT_SEED}")
    print("environment " + json.dumps(environment, sort_keys=True))
    for op in worker["ops"]:
        tag = "traced" if op["traced"] else "untraced"
        print(f"command {tag} wall_s={op['wall_s']:.4f} info={json.dumps(op['info'])} "
              f"errors={op['errors']}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value} {unit}")
    for e in errors:
        print(f"failed check: {e}")
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
