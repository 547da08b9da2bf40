"""End-to-end CLI tests on a deliberately tiny configuration."""

import base64
import json
import platform
import resource
import struct
import tracemalloc

import pytest

from battfault import dataio, downstream, evalkit, pretrain
from battfault.cli import load_config, main
from battfault.dataio import ParseError
from conftest import SMALL_PRETRAIN_CONFIG, TINY_CONFIG

@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """synth + pretrain once; downstream commands reuse the artifacts."""
    root = tmp_path_factory.mktemp("cli")
    config = root / "config.json"
    config.write_text(json.dumps(TINY_CONFIG))
    data = root / "data"
    run = root / "run"
    assert main(["synth", "--config", str(config), "--out", str(data)]) == 0
    assert main(["pretrain", "--config", str(config), "--data", str(data),
                 "--out", str(run)]) == 0
    return {"root": root, "config": config, "data": data, "run": run}


class TestSynth:
    def test_outputs_parse_back(self, workspace):
        ds = dataio.load_csv(workspace["data"] / "snippets.csv",
                             workspace["data"] / "meta.csv", 16)
        assert len(ds.vehicle_labels()) == 8
        faulty = sum(ds.vehicle_labels().values())
        assert faulty == round(0.25 * 8)

    def test_summary_reports_fault_count(self, workspace, capsys):
        out = workspace["root"] / "synth_again"
        assert main(["synth", "--config", str(workspace["config"]),
                     "--out", str(out)]) == 0
        assert "(2 faulty)" in capsys.readouterr().out

    def test_unknown_config_key_exits_2(self, workspace, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"generator": {"n_wheels": 4}}))
        assert main(["synth", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
        assert "n_wheels" in capsys.readouterr().err

    def test_invalid_json_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        assert main(["synth", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2

    def test_json_nested_past_the_decoder_exits_2_naming_the_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("[" * 200000)
        assert main(["synth", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
        assert str(bad) in capsys.readouterr().err

    @pytest.mark.parametrize("doc, key", [
        ({"seed": None}, "'seed'"),
        ({"seed": [1]}, "'seed'"),
        ({"seq_len": "long"}, "'seq_len'"),
        ({"seq_len": 1}, "'seq_len'"),
        ({"eval": {"aggregator": "median"}}, "aggregator"),
        ({"eval": {"split_ratio": 1.0}}, "split_ratio"),
        ({"eval": {"tsne_iterations": 0}}, "tsne_iterations"),
        ({"eval": {"tsne_perplexity": "x"}}, "'eval'"),
        ({"eval": {"fault_rate": 2.0}}, "fault rate"),
        # not truncated to 1
        ({"seed": 1.7}, "'seed'"),
        ({"seed": True}, "'seed'"),
        ({"seed": -1}, "'seed'"),
        ({"seq_len": 16.5}, "'seq_len'"),
        ({"seq_len": False}, "'seq_len'"),
        # not an unpack error that names neither the key nor the section
        ({"generator": {"mileage_range": [1]}}, "'generator': mileage_range"),
        ({"generator": {"mileage_range": [2.0, 1.0]}}, "'generator': mileage_range"),
        ({"generator": {"cycle_range": [0.0, float("inf")]}}, "'generator': cycle_range"),
        ({"generator": {"cycle_range": [1, "x"]}}, "'generator': cycle_range"),
        ({"generator": {"cycle_range": [True, 2]}}, "'generator': cycle_range"),
        # every field reads by its annotation: no traceback, nothing accepted
        # that a later stage truncates or fails on without naming the key
        ({"model": {"L": 1.5}}, "'model': L"),
        ({"model": {"H": 16.5}}, "'model': H"),
        ({"pretrain": {"epochs": 1.5}}, "'pretrain': epochs"),
        ({"pretrain": {"batch_size": 2.5}}, "'pretrain': batch_size"),
        ({"generator": {"n_vehicles": 8.5}}, "'generator': n_vehicles"),
        ({"gbdt": {"max_depth": 2.5}}, "'gbdt': max_depth"),
        ({"model": {"L": True}}, "'model': L"),
        ({"generator": {"dips_per_snippet": 1.5}}, "'generator': dips_per_snippet"),
        ({"eval": {"tsne_iterations": 10.5}}, "'eval': tsne_iterations"),
        ({"generator": {"noise_std": float("nan")}}, "'generator': noise_std"),
        ({"generator": {"noise_std": float("inf")}}, "'generator': noise_std"),
        ({"pretrain": {"learning_rate": float("nan")}}, "'pretrain': learning_rate"),
        ({"pretrain": {"learning_rate": float("inf")}}, "'pretrain': learning_rate"),
        ({"gbdt": {"reg_lambda": float("nan")}}, "'gbdt': reg_lambda"),
        ({"gbdt": {"reg_lambda": float("inf")}}, "'gbdt': reg_lambda"),
        # the top-level seed and seq_len are the only ones
        ({"generator": {"seq_len": 64}}, "unknown key 'seq_len' in config section 'generator'"),
        ({"pretrain": {"seed": 5}}, "unknown key 'seed' in config section 'pretrain'"),
        # H % A is checked after A >= 1, not as a division by zero
        ({"model": {"A": 0}}, "'model'"),
        # parameters past physical memory: rejected before any command builds them
        ({"model": {"L": 1e16}}, "'model'"),
        # a key that is gone (tsne's one size bound is the exact t-SNE's):
        # unknown, and still named
        ({"eval": {"tsne_max_points": 3000}}, "tsne_max_points"),
        # parameters that fit, but not with what a training step holds besides
        ({"model": {"H": 1, "A": 1, "FF": 1, "L": 40000000}}, "'model'"),
        # a fleet past physical memory: rejected before synth allocates it
        ({"generator": {"n_vehicles": 1000000000000}}, "'generator'"),
        # values the generator or the optimizer cannot run with, rejected
        # rather than clamped, run silently or failed on without the key
        ({"generator": {"dip_len": -3}}, "'generator': dip_len"),
        ({"generator": {"dips_per_snippet": -2}}, "'generator': dips_per_snippet"),
        ({"generator": {"tau_voltage": -5}}, "'generator': tau_voltage"),
        ({"generator": {"tau_current": 0}}, "'generator': tau_current"),
        ({"generator": {"temp_tau": 0}}, "'generator': temp_tau"),
        # the thermal lag's factor 1 - 1/0.3 grows temperatures to 1e45
        ({"generator": {"temp_tau": 0.3}}, "'generator': temp_tau"),
        ({"pretrain": {"beta1": -0.5}}, "'pretrain': beta1"),
        ({"pretrain": {"beta2": 1.5}}, "'pretrain': beta2"),
        ({"pretrain": {"adam_eps": -1e-8}}, "'pretrain': adam_eps"),
        # not a non-finite loss (exit 4) after the first bias correction
        ({"pretrain": {"beta1": 1.0}}, "'pretrain': beta1"),
        ({"pretrain": {"beta2": 1.0}}, "'pretrain': beta2"),
    ])
    def test_bad_config_value_exits_2_naming_the_key(self, tmp_path, capsys, doc, key):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["synth", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert key in err and str(bad) in err

    def test_integral_float_seed_accepted(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 7.0, "seq_len": 16.0}))
        loaded = load_config(cfg)
        assert (loaded.seed, loaded.seq_len) == (7, 16)
        assert type(loaded.seed) is int and type(loaded.seq_len) is int

    def test_model_too_large_to_train_is_rejected_before_any_allocation(self, tmp_path):
        # 6.4e8 parameters in 6.4e8 arrays: the weights alone fit in physical
        # memory, a training step does not; the check counts in closed form
        _rejected_before_any_allocation(tmp_path, {"model": {"H": 1, "A": 1, "FF": 1, "L": 40000000}})

    def test_fleet_too_large_to_synthesise_is_rejected_before_any_allocation(self, tmp_path):
        # the vehicle permutation alone would take 8 TB
        _rejected_before_any_allocation(tmp_path, {"generator": {"n_vehicles": 1000000000000}})


def _rejected_before_any_allocation(tmp_path, doc):
    big = tmp_path / "big.json"
    big.write_text(json.dumps(doc))
    tracemalloc.start()
    try:
        with pytest.raises(ParseError, match="physical memory") as info:
            load_config(big)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(big) in str(info.value)
    assert peak < 1 << 20, f"{peak} bytes allocated"


class TestPretrain:
    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the allocator is set on glibc only")
    def test_repeated_command_reuses_the_pages_it_freed(self, tmp_path):
        # glibc's defaults hand a step's freed activations back to the kernel
        # and fault them in again: about 12.8K minor faults per repeat
        config = tmp_path / "config.json"
        config.write_text(json.dumps(SMALL_PRETRAIN_CONFIG))
        assert main(["synth", "--config", str(config), "--out", str(tmp_path / "data")]) == 0
        faults = []
        for out in ("a", "b"):
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            assert main(["pretrain", "--config", str(config), "--data", str(tmp_path / "data"),
                         "--out", str(tmp_path / out)]) == 0
            faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
        assert faults[1] < 1000, f"minor faults per command: {faults}"

    def test_artifacts_exist(self, workspace):
        run = workspace["run"]
        assert (run / "checkpoint.json").exists()
        # the normalization statistics are refit from the data by every command
        assert not (run / "norm_stats.json").exists()
        history = (run / "loss_history.csv").read_text().splitlines()
        assert history[0] == "epoch,train_loss,val_loss"
        assert len(history) == 1 + TINY_CONFIG["pretrain"]["epochs"]

    def test_missing_data_exits_3(self, workspace, tmp_path):
        assert main(["pretrain", "--config", str(workspace["config"]),
                     "--data", str(tmp_path / "nowhere"),
                     "--out", str(tmp_path / "o")]) == 3

    def test_warm_start_prints_transfer_report(self, workspace, tmp_path, capsys):
        out = tmp_path / "warm"
        code = main(["pretrain", "--config", str(workspace["config"]),
                     "--data", str(workspace["data"]), "--out", str(out),
                     "--init-from", str(workspace["run"] / "checkpoint.json")])
        assert code == 0
        text = capsys.readouterr().out
        assert "warm start" in text
        assert "copied embed.W_e" in text


def _packed(*values):
    """A checkpoint tensor's data: base64 of the values' little-endian float64 bytes."""
    return base64.b64encode(struct.pack(f"<{len(values)}d", *values)).decode("ascii")


# each one breaks a copy of a valid checkpoint document in one way
CHECKPOINT_DEFECTS = {
    "config_not_object": lambda doc: doc.update(config=[]),
    "tensors_not_object": lambda doc: doc.update(tensors="none"),
    "invalid_model_config": lambda doc: doc["config"].update(A=5),
    "non_numeric_data": lambda doc: doc["tensors"]["head.b"].update(data=["a", "b", "c"]),
    # data is base64 text of whole float64 values, finite ones only
    "number_list_data": lambda doc: doc["tensors"]["head.b"].update(data=[0.5, 1.0, 2.0]),
    "invalid_base64": lambda doc: doc["tensors"]["head.b"].update(data="!!!!" + _packed(0.0, 0.0)),
    "partial_value_bytes": lambda doc: doc["tensors"]["head.b"].update(
        data=base64.b64encode(bytes(20)).decode("ascii")),
    "value_count_mismatch": lambda doc: doc["tensors"]["head.b"].update(data=_packed(0.0, 0.0)),
    "nan_bytes": lambda doc: doc["tensors"]["head.b"].update(data=_packed(0.0, float("nan"), 0.0)),
    "inf_bytes": lambda doc: doc["tensors"]["head.b"].update(data=_packed(float("inf"), 0.0, 0.0)),
    "format_version_1": lambda doc: doc.update(format_version=1),
    "format_version_2": lambda doc: doc.update(format_version=2),
    "missing_tensor": lambda doc: doc["tensors"].pop("head.b"),
    "extra_tensor": lambda doc: doc["tensors"].update(extra={"shape": [1], "data": _packed(0.0)}),
    "wrong_shape": lambda doc: doc["tensors"]["head.b"].update(shape=[1, 3]),
    # the document's shape must be the tensor's own: no -1 wildcard, no other count
    "shape_minus_one": lambda doc: doc["tensors"]["head.b"].update(shape=[-1]),
    "shape_count_mismatch": lambda doc: doc["tensors"]["head.b"].update(shape=[4]),
    "missing_data": lambda doc: doc["tensors"]["head.b"].pop("data"),
    "layers_true": lambda doc: doc["config"].update(L=True),
    "huge_layer_count": lambda doc: doc["config"].update(L=10 ** 16),
    "hidden_not_integral": lambda doc: doc["config"].update(H=16.5),
}


class TestDetect:
    def test_report_written(self, workspace, tmp_path):
        out = tmp_path / "detect"
        code = main(["detect", "--config", str(workspace["config"]),
                     "--data", str(workspace["data"]),
                     "--checkpoint", str(workspace["run"] / "checkpoint.json"),
                     "--out", str(out)])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        for key in ("vehicle_auroc", "snippet_auroc", "min_expected_cost",
                    "min_cost_threshold", "n_pos_vehicles"):
            assert key in report
        roc = (out / "roc.csv").read_text().splitlines()
        assert roc[0] == "threshold,q_tp,q_fp,expected_cost_cny"
        assert (out / "roc.svg").exists()
        assert (out / "classifier.json").exists()
        # the cost column's minimum (ties toward lower q_fp) is the reported one
        rows = [[float(cell) for cell in line.split(",")] for line in roc[1:]]
        threshold, _, _, cost = min(rows, key=lambda row: (row[3], row[2]))
        assert threshold == report["min_cost_threshold"]
        assert cost == report["min_expected_cost"]

    @pytest.mark.parametrize("defect", sorted(CHECKPOINT_DEFECTS))
    def test_malformed_checkpoint_exits_2_naming_it(self, workspace, tmp_path, capsys, defect):
        doc = json.loads((workspace["run"] / "checkpoint.json").read_text())
        CHECKPOINT_DEFECTS[defect](doc)
        bad = tmp_path / "bad_checkpoint.json"
        bad.write_text(json.dumps(doc))
        assert main(["detect", "--config", str(workspace["config"]),
                     "--data", str(workspace["data"]), "--checkpoint", str(bad),
                     "--out", str(tmp_path / "o")]) == 2
        assert str(bad) in capsys.readouterr().err

    def test_requires_checkpoint_flag(self, workspace, tmp_path):
        assert main(["detect", "--config", str(workspace["config"]),
                     "--data", str(workspace["data"]),
                     "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("command, pretrained_with, used_with, expected", [
        pytest.param(command, {"model": dict(TINY_CONFIG["model"], K=1)}, {}, "K=1", id=command)
        for command in ("detect", "tsne")] + [
        pytest.param(command, {}, {"seq_len": 32, "model": dict(TINY_CONFIG["model"], M_max=33)},
                     "M_max=17", id=f"{command}-M_max") for command in ("detect", "tsne")])
    def test_dimension_mismatch_exits_2(self, workspace, tmp_path, capsys, command,
                                        pretrained_with, used_with, expected):
        cfg2, cfg3 = tmp_path / "cfg2.json", tmp_path / "cfg3.json"
        cfg2.write_text(json.dumps(dict(TINY_CONFIG, **pretrained_with)))
        cfg3.write_text(json.dumps(dict(TINY_CONFIG, **used_with)))
        run2 = tmp_path / "run2"
        assert main(["pretrain", "--config", str(cfg2), "--data", str(workspace["data"]), "--out", str(run2)]) == 0
        assert main([command, "--config", str(cfg3), "--data", str(workspace["data"]),
                     "--checkpoint", str(run2 / "checkpoint.json"), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert expected in err and str(run2 / "checkpoint.json") in err

    def test_invalid_gbdt_config_exits_2(self, workspace, tmp_path, capsys):
        bad = dict(TINY_CONFIG)
        bad["gbdt"] = dict(TINY_CONFIG["gbdt"], reg_lambda=-0.5, min_child_weight=0.0)
        cfg4 = tmp_path / "cfg4.json"
        cfg4.write_text(json.dumps(bad))
        assert main(["detect", "--config", str(cfg4), "--data", str(workspace["data"]),
                     "--checkpoint", str(workspace["run"] / "checkpoint.json"),
                     "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "invalid config section 'gbdt'" in err and "reg_lambda" in err

    def test_single_class_data_exits_5(self, workspace, tmp_path):
        one_class = dict(TINY_CONFIG)
        one_class["generator"] = dict(TINY_CONFIG["generator"], fault_fraction=0.011)
        cfg3 = tmp_path / "cfg3.json"
        cfg3.write_text(json.dumps(one_class))
        data3 = tmp_path / "data3"
        assert main(["synth", "--config", str(cfg3), "--out", str(data3)]) == 0
        assert main(["detect", "--config", str(cfg3), "--data", str(data3),
                     "--checkpoint", str(workspace["run"] / "checkpoint.json"),
                     "--out", str(tmp_path / "o")]) == 5


class TestTsne:
    def test_raw_and_embedding_modes(self, workspace, tmp_path, capsys):
        out = tmp_path / "tsne"
        assert main(["tsne", "--config", str(workspace["config"]),
                     "--data", str(workspace["data"]), "--raw",
                     "--out", str(out)]) == 0
        assert main(["tsne", "--config", str(workspace["config"]),
                     "--data", str(workspace["data"]),
                     "--checkpoint", str(workspace["run"] / "checkpoint.json"),
                     "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "mode=raw" in text and "mode=embedding" in text
        for stem in ("tsne_raw", "tsne_embedding"):
            lines = (out / f"{stem}.csv").read_text().splitlines()
            assert lines[0] == "x,y,vehicle_id,label"
            assert len(lines) == 1 + 16  # 8 vehicles x 2 snippets
            assert (out / f"{stem}.svg").exists()

    def test_embedding_mode_normalises_by_the_training_split(self, workspace, tmp_path):
        # the encoder was pretrained on data z-scored by vehicle_split's
        # training side, so the whole fleet is z-scored by those statistics too
        cfg = load_config(workspace["config"])
        ds = dataio.load_csv(workspace["data"] / "snippets.csv", workspace["data"] / "meta.csv",
                             cfg.seq_len)
        stats = dataio.vehicle_split(ds, cfg.eval.split_ratio, cfg.seed)[2]
        params, _ = pretrain.load_checkpoint(workspace["run"] / "checkpoint.json")
        X = downstream.extract_features(params, dataio.apply_norm(ds, stats))[:, :params.cfg.H]
        coords, _ = evalkit.tsne(X, cfg.eval.tsne_perplexity, cfg.eval.tsne_iterations, cfg.seed)
        out = tmp_path / "tsne"
        assert main(["tsne", "--config", str(workspace["config"]), "--data", str(workspace["data"]),
                     "--checkpoint", str(workspace["run"] / "checkpoint.json"),
                     "--out", str(out)]) == 0
        lines = (out / "tsne_embedding.csv").read_text().splitlines()[1:]
        assert [[float(v) for v in line.split(",")[:2]] for line in lines] == coords.tolist()

    def test_subsample_that_leaves_a_vehicle_one_point_scores_the_others(self, workspace, tmp_path,
                                                                          capsys):
        # 12 of the 16 snippets leave 4 of the 8 vehicles a single point: mixing is scored
        # over the other 4, and the outputs are written
        out = tmp_path / "o"
        assert main(["tsne", "--config", str(workspace["config"]), "--data", str(workspace["data"]),
                     "--raw", "--subsample", "12", "--out", str(out)]) == 0
        assert "points=12 mixing_score=1.0000 over 4 vehicles" in capsys.readouterr().out
        assert (out / "tsne_raw.csv").is_file() and (out / "tsne_raw.svg").is_file()
        # 4 points at perplexity 1 leave only 1 of their 3 vehicles with 2: no score
        config = tmp_path / "perplexity1.json"
        config.write_text(json.dumps(dict(TINY_CONFIG, eval=dict(TINY_CONFIG["eval"], tsne_perplexity=1.0))))
        assert main(["tsne", "--config", str(config), "--data", str(workspace["data"]), "--raw",
                     "--subsample", "4", "--out", str(tmp_path / "o4")]) == 0
        assert ("points=4 mixing_score=n/a (1 of 3 vehicles keep 2 or more points; mixing needs 2)"
                in capsys.readouterr().out)
        assert (tmp_path / "o4" / "tsne_raw.csv").is_file()

    def test_embedding_mode_requires_checkpoint(self, workspace, tmp_path):
        assert main(["tsne", "--config", str(workspace["config"]),
                     "--data", str(workspace["data"]),
                     "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("size", ["0", "-5"])
    def test_subsample_below_one_exits_2_naming_the_flag(self, workspace, tmp_path, capsys, size):
        assert main(["tsne", "--config", str(workspace["config"]),
                     "--data", str(workspace["data"]), "--raw", "--subsample", size,
                     "--out", str(tmp_path / "o")]) == 2
        assert f"--subsample must be >= 1, got {size}" in capsys.readouterr().err

    def test_subsample_past_the_tsne_bound_exits_2_naming_the_flag(self, workspace, tmp_path,
                                                                    capsys):
        assert main(["tsne", "--config", str(workspace["config"]),
                     "--data", str(workspace["data"]), "--raw", "--subsample", "2100",
                     "--out", str(tmp_path / "o")]) == 2
        assert "--subsample must be <= 2000" in capsys.readouterr().err

    def test_fleet_past_the_tsne_bound_exits_2_asking_for_subsample(self, tmp_path, capsys):
        config = tmp_path / "big.json"
        config.write_text(json.dumps({"seq_len": 4, "generator": {"n_vehicles": 101,
                                                                   "snippets_per_vehicle": 20}}))
        data, out = tmp_path / "data", tmp_path / "o"
        assert main(["synth", "--config", str(config), "--out", str(data)]) == 0
        assert main(["tsne", "--config", str(config), "--data", str(data), "--raw",
                     "--out", str(out)]) == 2
        assert "2020 snippets exceeds t-SNE bound 2000; pass --subsample N" in capsys.readouterr().err
        assert not out.exists()

    def test_subsample_too_small_for_the_perplexity_exits_2_naming_key_and_flag(
            self, workspace, tmp_path, capsys):
        # the workspace config's perplexity 4.0 needs 12 points
        assert main(["tsne", "--config", str(workspace["config"]),
                     "--data", str(workspace["data"]), "--raw", "--subsample", "5",
                     "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "eval.tsne_perplexity" in err and str(workspace["config"]) in err
        assert "--subsample keeps 5 points" in err

    def test_perplexity_too_large_for_the_data_exits_2_before_any_encoding(
            self, workspace, tmp_path, capsys):
        config = tmp_path / "perplexity.json"
        config.write_text(json.dumps(dict(TINY_CONFIG, eval={"tsne_perplexity": 100})))
        # a checkpoint that does not exist would exit 3 if it were read first
        assert main(["tsne", "--config", str(config), "--data", str(workspace["data"]),
                     "--checkpoint", str(tmp_path / "missing.json"),
                     "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "eval.tsne_perplexity" in err and str(config) in err
        assert "the data has 16 snippets" in err

    def test_vehicle_id_no_csv_output_can_hold_exits_2_naming_the_line(self, tmp_path, capsys):
        # the quoted cell reads as the id ev,0000, which would split a tsne_raw.csv row in five
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"seed": 3, "seq_len": 16, "generator": {"n_vehicles": 12},
                                      "eval": {"tsne_perplexity": 5, "tsne_iterations": 50}}))
        data, out = tmp_path / "data", tmp_path / "o"
        assert main(["synth", "--config", str(config), "--out", str(data)]) == 0
        snippets = data / "snippets.csv"
        lines = snippets.read_text().splitlines()
        first = next(i for i, line in enumerate(lines) if line.split(",")[1] == "ev0000")
        lines = [line.replace(",ev0000,", ',"ev,0000",') for line in lines]
        snippets.write_text("\n".join(lines) + "\n")
        assert main(["tsne", "--config", str(config), "--data", str(data), "--raw",
                     "--out", str(out)]) == 2
        assert f"snippets.csv:{first + 1}: id 'ev,0000' holds a comma" in capsys.readouterr().err
        assert not out.exists()


class TestCost:
    def test_prints_cost(self, capsys):
        assert main(["cost", "--q-tp", "0.0", "--q-fp", "0.0"]) == 0
        assert float(capsys.readouterr().out.strip()) == pytest.approx(1900.0)

    def test_overrides(self, capsys):
        assert main(["cost", "--q-tp", "1.0", "--q-fp", "0.0", "--p", "0.5",
                     "--c-f", "100", "--c-r", "10"]) == 0
        # 0.5*0*100 + (0.5*1 + 0.5*0)*10
        assert float(capsys.readouterr().out.strip()) == pytest.approx(5.0)

    def test_bad_rate_exits_2(self):
        assert main(["cost", "--q-tp", "1.5", "--q-fp", "0.0"]) == 2
