import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from battfault.dataio import (
    FleetConfig,
    ParseError,
    apply_norm,
    fit_norm,
    load_csv,
    merge_fleets,
    synth_fleet,
    vehicle_split,
    write_csv,
)


@pytest.fixture(scope="module")
def small_fleet():
    return synth_fleet(FleetConfig(n_vehicles=8, snippets_per_vehicle=3), 11, 32)


class TestSynth:
    def test_deterministic(self, small_fleet):
        again = synth_fleet(FleetConfig(n_vehicles=8, snippets_per_vehicle=3), 11, 32)
        for a, b in zip(small_fleet.snippets, again.snippets):
            assert a.snippet_id == b.snippet_id
            np.testing.assert_array_equal(a.channels, b.channels)
            np.testing.assert_array_equal(a.meta, b.meta)

    def test_sizes_and_shapes(self, small_fleet):
        assert len(small_fleet) == 24
        assert len(small_fleet.vehicle_ids()) == 8
        for s in small_fleet.snippets:
            assert s.channels.shape == (32, 3)
            assert np.isfinite(s.channels).all()

    def test_fault_count_is_rounded_fraction(self):
        for n, frac in ((40, 0.15), (10, 0.25), (7, 0.3)):
            ds = synth_fleet(FleetConfig(n_vehicles=n, fault_fraction=frac,
                                         snippets_per_vehicle=1), 5, 16)
            faulty = sum(ds.vehicle_label(v) for v in ds.vehicle_ids())
            assert faulty == round(frac * n)

    def test_label_constant_per_vehicle(self, small_fleet):
        for v in small_fleet.vehicle_ids():
            labels = {s.label for s in small_fleet.snippets if s.vehicle_id == v}
            assert len(labels) == 1

    def test_offsets_shift_channels(self):
        base = FleetConfig(n_vehicles=2, snippets_per_vehicle=1)
        a = synth_fleet(base, 3, 16)
        b = synth_fleet(dataclasses.replace(base, voltage_offset=0.5), 3, 16)
        for sa, sb in zip(a.snippets, b.snippets):
            np.testing.assert_allclose(sb.channels[:, 0] - sa.channels[:, 0], 0.5, atol=1e-9)
            np.testing.assert_array_equal(sa.channels[:, 1:], sb.channels[:, 1:])

    def test_merge_disjoint(self, small_fleet):
        other = synth_fleet(FleetConfig(n_vehicles=3, snippets_per_vehicle=2),
                            99, 32, id_prefix="xx")
        merged = merge_fleets(small_fleet, other)
        assert len(merged) == len(small_fleet) + len(other)
        assert len(merged.vehicle_ids()) == 11

    def test_merge_rejects_id_collisions(self, small_fleet):
        with pytest.raises(ValueError):
            merge_fleets(small_fleet, small_fleet)


class TestCsvRoundTrip:
    def test_lossless_at_native_length(self, small_fleet, tmp_path):
        data, meta = tmp_path / "snippets.csv", tmp_path / "meta.csv"
        write_csv(small_fleet, data, meta)
        back = load_csv(data, meta, 32)
        assert back.channel_names == small_fleet.channel_names
        assert back.meta_names == small_fleet.meta_names
        for a, b in zip(small_fleet.snippets, back.snippets):
            assert (a.snippet_id, a.vehicle_id, a.label) == (b.snippet_id, b.vehicle_id, b.label)
            np.testing.assert_array_equal(a.channels, b.channels)
            np.testing.assert_array_equal(a.meta, b.meta)

    def test_write_is_byte_deterministic(self, small_fleet, tmp_path):
        pair1 = tmp_path / "a.csv", tmp_path / "am.csv"
        pair2 = tmp_path / "b.csv", tmp_path / "bm.csv"
        write_csv(small_fleet, *pair1)
        write_csv(small_fleet, *pair2)
        assert pair1[0].read_bytes() == pair2[0].read_bytes()
        assert pair1[1].read_bytes() == pair2[1].read_bytes()

    def test_resample_changes_length_only(self, small_fleet, tmp_path):
        data, meta = tmp_path / "snippets.csv", tmp_path / "meta.csv"
        write_csv(small_fleet, data, meta)
        back = load_csv(data, meta, 20)
        for s in back.snippets:
            assert s.channels.shape == (20, 3)

    def test_bad_float_reports_line(self, small_fleet, tmp_path):
        data, meta = tmp_path / "snippets.csv", tmp_path / "meta.csv"
        write_csv(small_fleet, data, meta)
        lines = data.read_text().splitlines()
        cols = lines[1].split(",")
        cols[-1] = "oops"
        lines[1] = ",".join(cols)
        data.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match=r":2:"):
            load_csv(data, meta, 32)

    def test_missing_meta_vehicle_rejected(self, small_fleet, tmp_path):
        data, meta = tmp_path / "snippets.csv", tmp_path / "meta.csv"
        write_csv(small_fleet, data, meta)
        lines = meta.read_text().splitlines()
        meta.write_text("\n".join(lines[:2]) + "\n")  # keep only one vehicle row
        with pytest.raises(ParseError):
            load_csv(data, meta, 32)

    def test_conflicting_vehicle_labels_rejected(self, small_fleet, tmp_path):
        data, meta = tmp_path / "snippets.csv", tmp_path / "meta.csv"
        write_csv(small_fleet, data, meta)
        lines = meta.read_text().splitlines()
        sid, label, rest = lines[2].split(",", 2)  # second snippet of the first vehicle
        lines[2] = ",".join([sid, "1" if label == "0" else "0", rest])
        meta.write_text("\n".join(lines) + "\n")
        # its rows start after the header and the first snippet's 32 rows
        with pytest.raises(ParseError, match=rf"snippets\.csv:34: snippet '{sid}' has label"):
            load_csv(data, meta, 32)

    def test_non_contiguous_snippet_rows_rejected(self, small_fleet, tmp_path):
        data, meta = tmp_path / "snippets.csv", tmp_path / "meta.csv"
        write_csv(small_fleet, data, meta)
        header, *rows = data.read_text().splitlines()
        # the first snippet's last row moves behind the second snippet's rows
        rows = rows[:31] + rows[32:64] + [rows[31]] + rows[64:]
        data.write_text("\n".join([header, *rows]) + "\n")
        sid = small_fleet.snippets[0].snippet_id
        with pytest.raises(ParseError, match=rf"snippets\.csv:65: rows of snippet '{sid}' are not contiguous"):
            load_csv(data, meta, 32)

    def test_snippet_rows_naming_another_vehicle_rejected(self, small_fleet, tmp_path):
        data, meta = tmp_path / "snippets.csv", tmp_path / "meta.csv"
        write_csv(small_fleet, data, meta)
        lines = data.read_text().splitlines()
        first, other = small_fleet.snippets[0], small_fleet.snippets[-1]
        assert first.vehicle_id != other.vehicle_id
        cols = lines[4].split(",")  # the first snippet's fourth row
        cols[1] = other.vehicle_id
        lines[4] = ",".join(cols)
        data.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match=rf"snippets\.csv:5: snippet '{first.snippet_id}' row "
                                             rf"has vehicle '{other.vehicle_id}'"):
            load_csv(data, meta, 32)

    def test_steps_out_of_order_rejected(self, small_fleet, tmp_path):
        data, meta = tmp_path / "snippets.csv", tmp_path / "meta.csv"
        write_csv(small_fleet, data, meta)
        header, *rows = data.read_text().splitlines()
        sid = small_fleet.snippets[0].snippet_id
        # the first snippet's rows reversed: steps 31..0
        data.write_text("\n".join([header, *rows[:32][::-1], *rows[32:]]) + "\n")
        with pytest.raises(ParseError, match=rf"snippets\.csv:3: snippet '{sid}' step 30 "
                                             r"does not follow its previous step 31"):
            load_csv(data, meta, 32)
        cols = rows[2].split(",")
        cols[2] = "2.5"
        rows[2] = ",".join(cols)
        data.write_text("\n".join([header, *rows]) + "\n")
        with pytest.raises(ParseError, match=r"snippets\.csv:4: step '2\.5' is not an integer"):
            load_csv(data, meta, 32)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
    def test_non_finite_cell_reports_line_and_column(self, small_fleet, tmp_path, cell):
        data, meta = tmp_path / "snippets.csv", tmp_path / "meta.csv"
        write_csv(small_fleet, data, meta)
        lines = data.read_text().splitlines()
        cols = lines[6].split(",")
        cols[4] = cell  # the current channel
        lines[6] = ",".join(cols)
        data.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match=rf"snippets\.csv:7: non-finite value '{cell}' "
                                             r"in column 'current'"):
            load_csv(data, meta, 32)
        lines = meta.read_text().splitlines()
        cols = lines[3].split(",")
        cols[2] = cell
        lines[3] = ",".join(cols)
        meta.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match=r"meta\.csv:4: non-finite value .* in column 'mileage_km'"):
            load_csv(data, meta, 32)


class TestNormalization:
    def test_train_stats_are_zero_mean_unit_std(self, small_fleet):
        stats = fit_norm(small_fleet)
        normed = apply_norm(small_fleet, stats)
        pooled = np.concatenate([s.channels for s in normed.snippets], axis=0)
        np.testing.assert_allclose(pooled.mean(axis=0), 0, atol=1e-9)
        np.testing.assert_allclose(pooled.std(axis=0), 1, atol=1e-9)
        metas = np.stack([s.meta for s in normed.snippets])
        np.testing.assert_allclose(metas.mean(axis=0), 0, atol=1e-9)

    def test_apply_norm_uses_given_stats(self, small_fleet):
        stats = fit_norm(small_fleet)
        other = synth_fleet(FleetConfig(n_vehicles=2, snippets_per_vehicle=1),
                            77, 32, id_prefix="zz")
        normed = apply_norm(other, stats)
        expected = (other.snippets[0].channels - stats.mean) / stats.std
        np.testing.assert_allclose(normed.snippets[0].channels, expected, atol=1e-12)


class TestVehicleSplit:
    def test_no_vehicle_straddles(self, small_fleet):
        train, val, spec = vehicle_split(small_fleet, 0.75, 4)
        assert spec.train_vehicle_ids.isdisjoint(spec.val_vehicle_ids)
        assert spec.train_vehicle_ids | spec.val_vehicle_ids == set(small_fleet.vehicle_ids())
        for s in train.snippets:
            assert s.vehicle_id in spec.train_vehicle_ids
        for s in val.snippets:
            assert s.vehicle_id in spec.val_vehicle_ids

    def test_total_matches_rounded_ratio(self, small_fleet):
        train, _, _ = vehicle_split(small_fleet, 0.75, 4)
        assert len({s.vehicle_id for s in train.snippets}) == round(0.75 * 8)

    def test_label_stratified_when_possible(self):
        ds = synth_fleet(FleetConfig(n_vehicles=20, fault_fraction=0.2,
                                     snippets_per_vehicle=1), 9, 16)
        _, val, spec = vehicle_split(ds, 0.8, 2)
        val_labels = {val.vehicle_label(v) for v in spec.val_vehicle_ids}
        assert val_labels == {0, 1}

    @given(st.integers(0, 1000))
    @settings(max_examples=20, deadline=None)
    def test_split_deterministic_per_seed(self, seed):
        ds = synth_fleet(FleetConfig(n_vehicles=10, snippets_per_vehicle=1), 1, 16)
        _, _, a = vehicle_split(ds, 0.7, seed)
        _, _, b = vehicle_split(ds, 0.7, seed)
        assert a.train_vehicle_ids == b.train_vehicle_ids

    def test_bad_ratio_rejected(self, small_fleet):
        with pytest.raises(ValueError):
            vehicle_split(small_fleet, 1.0, 0)
