"""Batch CLI wiring the pipeline: synth, pretrain, detect, tsne, cost.

Every command is a pure function of (config file, flags, input files, seed);
re-running with identical inputs produces byte-identical output files.

Exit codes: 0 success, 2 usage/config error, 3 I/O error, 4 numerical
failure, 5 data inadequacy (e.g. a split missing a label class); EXIT_CODES
maps each failure to its code.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import numpy as np

from . import dataio, downstream, evalkit, model, pretrain
from .numcore import NonFiniteError, SeededRng

# A failed command exits with the code of the first row its exception matches.
# ConfigError (a usage error) and ParseError (a malformed input file) are
# ValueErrors; SingleClassError is one too, so its row comes first.
EXIT_CODES = (
    (OSError, 3),
    (NonFiniteError, 4),
    (evalkit.SingleClassError, 5),
    (ValueError, 2),
)


class ConfigError(ValueError):
    """A usage error: a missing or invalid flag, or inputs that do not fit together."""


@dataclasses.dataclass(frozen=True)
class EvalConfig:
    split_ratio: float = 0.8
    aggregator: str = "mean"
    fault_rate: float = evalkit.CostParams.p
    fault_cost_cny: float = evalkit.CostParams.c_f
    inspection_cost_cny: float = evalkit.CostParams.c_r
    tsne_perplexity: float = 12.0
    tsne_iterations: int = 500

    def __post_init__(self):
        if self.aggregator not in evalkit.AGGREGATORS:
            raise ValueError(f"aggregator must be one of {sorted(evalkit.AGGREGATORS)}, "
                             f"got {self.aggregator!r}")
        if not 0.0 < self.split_ratio < 1.0:
            raise ValueError(f"split_ratio must be in (0,1), got {self.split_ratio}")
        if self.tsne_perplexity <= 0 or self.tsne_iterations < 1:
            raise ValueError("tsne_perplexity and tsne_iterations must be positive")
        self.cost_params()  # checks fault_rate and the two costs

    def cost_params(self) -> evalkit.CostParams:
        return evalkit.CostParams(self.fault_rate, self.fault_cost_cny, self.inspection_cost_cny)


@dataclasses.dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    seq_len: int = 128
    generator: dataio.FleetConfig = dataclasses.field(default_factory=dataio.FleetConfig)
    model: model.ModelConfig = dataclasses.field(default_factory=model.ModelConfig.desk_default)
    pretrain: pretrain.PretrainConfig = dataclasses.field(default_factory=pretrain.PretrainConfig)
    gbdt: downstream.GbdtConfig = dataclasses.field(default_factory=downstream.GbdtConfig)
    eval: EvalConfig = dataclasses.field(default_factory=EvalConfig)

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError(f"'seed' must be >= 0, got {self.seed}")
        if self.seq_len < 2:
            raise ValueError(f"'seq_len' must be >= 2, got {self.seq_len}")
        if self.model.M_max < self.seq_len + 1:
            raise ValueError(f"model.M_max={self.model.M_max} must be >= seq_len+1={self.seq_len + 1}")
        fleet = self.generator
        values = fleet.n_vehicles * fleet.snippets_per_vehicle * self.seq_len * len(dataio.CHANNEL_NAMES)
        memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        if dataio.SYNTH_BYTES_PER_VALUE * values > memory:
            raise ValueError(f"'generator': synthesising {values} channel values takes more than "
                             f"the {memory} bytes of physical memory")


def load_config(path=None, seed_override=None) -> RunConfig:
    """Read a JSON config file with full defaulting; unknown keys are rejected."""
    cfg = RunConfig() if path is None else dataio.read_document(
        path, "config", lambda doc: dataio.read_value(doc, RunConfig, "config"))
    try:
        return cfg if seed_override is None else dataclasses.replace(cfg, seed=int(seed_override))
    except ValueError as exc:
        raise ConfigError(f"--seed: {exc}") from None


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _load_dataset(cfg: RunConfig, data_dir):
    return dataio.load_csv(os.path.join(data_dir, "snippets.csv"), os.path.join(data_dir, "meta.csv"),
                           cfg.seq_len)


def _load_encoder(path, ds: dataio.FleetDataset) -> model.ModelParams:
    """The checkpoint at path; its D and K must match the dataset's, its M_max hold a snippet."""
    params, _ = pretrain.load_checkpoint(path)
    (_, M, D), K = ds.channels.shape, ds.meta.shape[1]
    if (params.cfg.D, params.cfg.K) != (D, K) or params.cfg.M_max < M + 1:
        raise ConfigError(f"checkpoint {path} dims (D={params.cfg.D}, K={params.cfg.K}, M_max="
                          f"{params.cfg.M_max}) incompatible with data (D={D}, K={K}, M+1={M + 1})")
    return params


def cmd_synth(args) -> int:
    cfg = load_config(args.config, args.seed)
    ds = dataio.synth_fleet(cfg.generator, cfg.seed, cfg.seq_len)
    os.makedirs(args.out, exist_ok=True)
    dataio.write_csv(ds, os.path.join(args.out, "snippets.csv"), os.path.join(args.out, "meta.csv"))
    vehicles = ds.vehicle_labels()
    print(f"wrote {len(ds)} snippets from {len(vehicles)} vehicles "
          f"({sum(vehicles.values())} faulty) to {args.out}")
    return 0


def cmd_pretrain(args) -> int:
    cfg = load_config(args.config, args.seed)
    train_n, val_n, _ = dataio.vehicle_split(_load_dataset(cfg, args.data),
                                             cfg.eval.split_ratio, cfg.seed)

    rng = SeededRng(cfg.seed, ("init",))
    if args.init_from:
        source, _ = pretrain.load_checkpoint(args.init_from)
        params, transfer = pretrain.transfer_init(source, cfg.model, rng)
        print(f"warm start from {args.init_from}: copied {len(transfer.copied)} arrays, "
              f"{len(transfer.fresh)} fresh")
        for name in transfer.copied:
            print(f"  copied {name}")
    else:
        params = model.init_params(cfg.model, rng)

    provenance, history = pretrain.run_pretrain(train_n, val_n, params, cfg.pretrain,
                                                seed=cfg.seed, log=print)

    os.makedirs(args.out, exist_ok=True)
    pretrain.save_checkpoint(params, os.path.join(args.out, "checkpoint.json"), provenance)
    dataio.write_text(os.path.join(args.out, "loss_history.csv"),
                      dataio.csv_text(("epoch", "train_loss", "val_loss"), *zip(*history)))
    print(f"final train loss {history[-1][1]:.6f}, val loss {history[-1][2]:.6f}")
    return 0


def cmd_detect(args) -> int:
    if not args.checkpoint:
        raise ConfigError("detect requires --checkpoint")
    cfg = load_config(args.config, args.seed)
    train_n, val_n, _ = dataio.vehicle_split(_load_dataset(cfg, args.data),
                                             cfg.eval.split_ratio, cfg.seed)
    params = _load_encoder(args.checkpoint, val_n)
    gbdt, snip_scores = downstream.detect_scores(params, train_n, val_n, cfg.gbdt)
    report = evalkit.emit_report(
        snip_scores, val_n.labels, val_n.vehicle_ids, cfg.eval.aggregator, cfg.eval.cost_params(),
        {"config_echo": {"seq_len": cfg.seq_len, "gbdt": dataclasses.asdict(cfg.gbdt),
                         "aggregator": cfg.eval.aggregator, "split_ratio": cfg.eval.split_ratio},
         "seeds": {"seed": cfg.seed}},
        args.out)
    downstream.save_gbdt(gbdt, os.path.join(args.out, "classifier.json"))
    threshold = report["min_cost_threshold"]
    print(f"vehicle AUROC {report['vehicle_auroc']:.4f}, snippet AUROC "
          f"{report['snippet_auroc']:.4f}, min expected cost {report['min_expected_cost']:.2f} "
          f"CNY " + ("(flag no vehicle)" if threshold is None else f"at threshold {threshold}"))
    return 0


def cmd_tsne(args) -> int:
    if not args.raw and not args.checkpoint:
        raise ConfigError("tsne requires --checkpoint unless --raw")
    if args.subsample is not None and args.subsample < 1:
        raise ConfigError(f"--subsample must be >= 1, got {args.subsample}")
    if args.subsample is not None and args.subsample > evalkit.TSNE_MAX_POINTS:
        raise ConfigError(f"--subsample must be <= {evalkit.TSNE_MAX_POINTS}, the exact t-SNE "
                          f"bound, got {args.subsample}")
    cfg = load_config(args.config, args.seed)
    ds = _load_dataset(cfg, args.data)
    # the whole fleet, z-scored like the encoder's pretraining data: by the training side
    ds_n = dataio.apply_norm(ds, dataio.vehicle_split(ds, cfg.eval.split_ratio, cfg.seed)[2])

    n = len(ds_n)
    if n > evalkit.TSNE_MAX_POINTS and not args.subsample:
        raise ConfigError(f"{n} snippets exceeds t-SNE bound {evalkit.TSNE_MAX_POINTS}; "
                          f"pass --subsample N")
    subsampled = bool(args.subsample) and n > args.subsample
    if subsampled:
        keep = SeededRng(cfg.seed, ("tsne_subsample",)).choice(n, size=args.subsample)
        ds_n = ds_n.take(np.sort(keep))
        n = args.subsample
    # checked before any encoding, in the terms of the config key
    perplexity = cfg.eval.tsne_perplexity
    if n < 3 * perplexity:
        source = f" in {args.config}" if args.config else ""
        count = f"--subsample keeps {n} points" if subsampled else f"the data has {n} snippets"
        raise ConfigError(f"eval.tsne_perplexity{source} is {perplexity}, which needs at least "
                          f"3*perplexity = {3 * perplexity:g} points, but {count}")

    if args.raw:
        X = ds_n.channels.reshape(len(ds_n), -1)
        mode = "raw"
    else:
        params = _load_encoder(args.checkpoint, ds_n)
        X = downstream.extract_features(params, ds_n)[:, :params.cfg.H]
        mode = "embedding"

    coords, kl = evalkit.tsne(X, cfg.eval.tsne_perplexity, cfg.eval.tsne_iterations, cfg.seed)
    # mixing is scored over the vehicles that keep 2 or more points; a subsample may keep 1
    vehicles = np.asarray(ds_n.vehicle_ids)
    _, group, counts = np.unique(vehicles, return_inverse=True, return_counts=True)
    scored, n_scored = counts[group] >= 2, int((counts >= 2).sum())
    score = (f"{evalkit.mixing_score(X[scored], vehicles[scored]):.4f} over {n_scored} vehicles"
             if n_scored >= 2 else
             f"n/a ({n_scored} of {len(counts)} vehicles keep 2 or more points; mixing needs 2)")
    os.makedirs(args.out, exist_ok=True)
    evalkit.write_tsne_outputs(coords, ds_n.vehicle_ids, ds_n.labels, args.out, f"tsne_{mode}")
    print(f"mode={mode} points={n} mixing_score={score} final_kl={kl[-1]:.4f}")
    return 0


def cmd_cost(args) -> int:
    params = evalkit.CostParams(args.p, args.c_f, args.c_r)
    print(repr(evalkit.expected_cost(params, args.q_tp, args.q_fp)))
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="battfault",
        description="Masked-signal pretraining and fault detection for battery charge snippets.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, data=False, checkpoint=False):
        p.add_argument("--config", default=None, help="JSON config file (defaults apply)")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", required=True, help="output directory")
        if data:
            p.add_argument("--data", required=True,
                           help="directory containing snippets.csv and meta.csv")
        if checkpoint:
            p.add_argument("--checkpoint", help="encoder checkpoint JSON")

    p = sub.add_parser("synth", help="generate a synthetic fleet as CSV files")
    common(p)
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("pretrain", help="masked-signal pretraining on a dataset")
    common(p, data=True)
    p.add_argument("--init-from", default=None, help="warm-start checkpoint")
    p.set_defaults(fn=cmd_pretrain)

    p = sub.add_parser("detect", help="frozen-encoder features + boosted-tree detection")
    common(p, data=True, checkpoint=True)
    p.set_defaults(fn=cmd_detect)

    p = sub.add_parser("tsne", help="2D projection of raw features or encoder embeddings")
    common(p, data=True, checkpoint=True)
    p.add_argument("--raw", action="store_true", help="project flattened normalized channels")
    p.add_argument("--subsample", type=int, default=None, help="random subsample size")
    p.set_defaults(fn=cmd_tsne)

    p = sub.add_parser("cost", help="expected direct cost at an operating point")
    p.add_argument("--q-tp", type=float, required=True, dest="q_tp")
    p.add_argument("--q-fp", type=float, required=True, dest="q_fp")
    p.add_argument("--p", type=float, default=evalkit.CostParams.p, help="fault rate")
    p.add_argument("--c-f", type=float, default=evalkit.CostParams.c_f, dest="c_f",
                   help="direct cost of a missed fault (CNY)")
    p.add_argument("--c-r", type=float, default=evalkit.CostParams.c_r, dest="c_r",
                   help="inspection cost (CNY)")
    p.set_defaults(fn=cmd_cost)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except tuple(cls for cls, _ in EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in EXIT_CODES if isinstance(exc, cls))

if __name__ == "__main__":
    sys.exit(main())
