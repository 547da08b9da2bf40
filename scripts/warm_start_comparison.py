#!/usr/bin/env python3
"""Warm-start vs cold-start comparison on disjoint synthetic corpora.

Pretrains an encoder on corpus A, then pretrains on corpus B twice — once
from random initialization and once initialized from the corpus-A checkpoint
— with identical seeds, and prints both loss histories side by side.

Usage:
    python3 scripts/warm_start_comparison.py [--epochs 8] [--transfer-epochs 5]
"""

import argparse

from battfault import dataio, model, pretrain
from battfault.numcore import SeededRng


N_VEHICLES = 16  # per corpus


def prepare(fleet_seed, split_seed):
    fleet = dataio.synth_fleet(dataio.FleetConfig(n_vehicles=N_VEHICLES), fleet_seed, 128)
    return dataio.vehicle_split(fleet, 0.8, split_seed)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--epochs", type=int, default=8, help="corpus-A pretraining epochs")
    ap.add_argument("--transfer-epochs", type=int, default=5,
                    help="corpus-B epochs for each arm")
    args = ap.parse_args()

    cfg = model.ModelConfig.desk_default()
    train_a, val_a, _ = prepare(7, 8)
    train_b, val_b, _ = prepare(77, 88)

    print(f"pretraining on corpus A for {args.epochs} epochs ...")
    params_a = model.init_params(cfg, SeededRng(1, ("init",)))
    pretrain.run_pretrain(train_a, val_a, params_a,
                          pretrain.PretrainConfig(epochs=args.epochs), seed=1)

    pcfg_b = pretrain.PretrainConfig(epochs=args.transfer_epochs)
    cold = model.init_params(cfg, SeededRng(2, ("init",)))
    warm, report = pretrain.transfer_init(params_a, cfg, SeededRng(2, ("init",)))
    print(f"transfer: {len(report.copied)} arrays copied, {len(report.fresh)} fresh")

    _, hist_cold = pretrain.run_pretrain(train_b, val_b, cold, pcfg_b, seed=3)
    _, hist_warm = pretrain.run_pretrain(train_b, val_b, warm, pcfg_b, seed=3)

    print()
    print("epoch  cold train  warm train  cold val  warm val")
    for (e, ct, cv), (_, wt, wv) in zip(hist_cold, hist_warm):
        print(f"{e:5d}  {ct:10.4f}  {wt:10.4f}  {cv:8.4f}  {wv:8.4f}")


if __name__ == "__main__":
    main()
