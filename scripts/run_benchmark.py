#!/usr/bin/env python3
"""Full desk-scale experiment: synth -> pretrain -> detect -> tsne.

Runs the whole pipeline through the CLI into a single output directory, then
prints the headline numbers from the evaluation report. Everything is seeded,
so re-running with the same arguments reproduces every output file byte for
byte.

Usage:
    python3 scripts/run_benchmark.py --out runs/benchmark [--seed 7] [--epochs 20]
"""

import argparse
import os
import sys

from battfault import dataio
from battfault.cli import main as cli


def run(argv):
    code = cli(argv)
    if code != 0:
        print(f"step failed with exit code {code}: {' '.join(argv)}", file=sys.stderr)
        sys.exit(code)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True, help="output directory")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--epochs", type=int, default=20)
    args = ap.parse_args()

    os.makedirs(args.out, exist_ok=True)
    config_path = os.path.join(args.out, "config.json")
    dataio.write_text(config_path, dataio.json_text({"seed": args.seed,
                                                     "pretrain": {"epochs": args.epochs}}))

    data = os.path.join(args.out, "data")
    run_dir = os.path.join(args.out, "pretrain")
    detect_dir = os.path.join(args.out, "detect")
    tsne_dir = os.path.join(args.out, "tsne")
    checkpoint = os.path.join(run_dir, "checkpoint.json")

    run(["synth", "--config", config_path, "--out", data])
    run(["pretrain", "--config", config_path, "--data", data, "--out", run_dir])
    run(["detect", "--config", config_path, "--data", data,
         "--checkpoint", checkpoint, "--out", detect_dir])
    run(["tsne", "--config", config_path, "--data", data, "--raw", "--out", tsne_dir])
    run(["tsne", "--config", config_path, "--data", data,
         "--checkpoint", checkpoint, "--out", tsne_dir])

    report = dataio.read_document(os.path.join(detect_dir, "report.json"), "report", dict)
    print()
    print("=== benchmark summary ===")
    print(f"vehicle AUROC       {report['vehicle_auroc']:.4f}")
    print(f"snippet AUROC       {report['snippet_auroc']:.4f}")
    threshold = report["min_cost_threshold"]
    print(f"min expected cost   {report['min_expected_cost']:.2f} CNY "
          + ("(flag no vehicle)" if threshold is None else f"(threshold {threshold})"))
    print(f"artifacts under     {args.out}")


if __name__ == "__main__":
    main()
