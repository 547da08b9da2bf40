import dataclasses
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from battfault import dataio
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
from battfault.numcore import SeededRng


@pytest.fixture(scope="module")
def small_fleet():
    return synth_fleet(FleetConfig(n_vehicles=8, snippets_per_vehicle=3), 11, 32)


class TestSynth:
    def test_deterministic(self, small_fleet):
        again = synth_fleet(FleetConfig(n_vehicles=8, snippets_per_vehicle=3), 11, 32)
        assert again.snippet_ids == small_fleet.snippet_ids
        np.testing.assert_array_equal(again.channels, small_fleet.channels)
        np.testing.assert_array_equal(again.meta, small_fleet.meta)

    def test_sizes_and_shapes(self, small_fleet):
        assert len(small_fleet) == 24
        assert len(small_fleet.vehicle_labels()) == 8
        assert small_fleet.channels.shape == (24, 32, 3)
        assert np.isfinite(small_fleet.channels).all()

    def test_fault_count_is_rounded_fraction(self):
        for n, frac in ((40, 0.15), (10, 0.25), (7, 0.3)):
            ds = synth_fleet(FleetConfig(n_vehicles=n, fault_fraction=frac,
                                         snippets_per_vehicle=1), 5, 16)
            faulty = sum(ds.vehicle_labels().values())
            assert faulty == round(frac * n)

    def test_label_constant_per_vehicle(self, small_fleet):
        for v in small_fleet.vehicle_labels():
            labels = {label for vid, label in zip(small_fleet.vehicle_ids, small_fleet.labels)
                      if vid == v}
            assert len(labels) == 1

    def test_offsets_shift_channels(self):
        base = FleetConfig(n_vehicles=2, snippets_per_vehicle=1)
        a = synth_fleet(base, 3, 16)
        b = synth_fleet(dataclasses.replace(base, voltage_offset=0.5), 3, 16)
        np.testing.assert_allclose(b.channels[:, :, 0] - a.channels[:, :, 0], 0.5, atol=1e-9)
        np.testing.assert_array_equal(a.channels[:, :, 1:], b.channels[:, :, 1:])

    def test_merge_disjoint(self, small_fleet):
        other = synth_fleet(FleetConfig(n_vehicles=3, snippets_per_vehicle=2),
                            99, 32, id_prefix="xx")
        merged = merge_fleets(small_fleet, other)
        assert len(merged) == len(small_fleet) + len(other)
        assert len(merged.vehicle_labels()) == 11

    def test_merge_rejects_id_collisions(self, small_fleet):
        with pytest.raises(ValueError):
            merge_fleets(small_fleet, small_fleet)


class TestFleetDataset:
    @pytest.mark.parametrize("edit, message", [
        (lambda ds: dict(channels=ds.channels[:-1]), r"channels \(23, 32, 3\)"),
        (lambda ds: dict(channels=ds.channels[:, :, :2]), r"channels \(24, 32, 2\)"),
        (lambda ds: dict(channels=ds.channels[0]), r"channels \(32, 3\)"),
        (lambda ds: dict(meta=ds.meta[:, :1]), r"meta \(24, 1\)"),
        (lambda ds: dict(meta=ds.meta[:-1]), r"meta \(23, 2\)"),
        (lambda ds: dict(labels=ds.labels[:-1]), r"labels \(23,\)"),
        (lambda ds: dict(vehicle_ids=ds.vehicle_ids[:-1]), "23 vehicle ids"),
        (lambda ds: dict(channel_names=ds.channel_names[:2]), "24 snippets of 2 channels"),
        (lambda ds: dict(snippet_ids=ds.snippet_ids[:-1] + ds.snippet_ids[:1]), "duplicate snippet_id"),
        (lambda ds: dict(meta=np.where(np.arange(len(ds))[:, None] == 5, np.inf, ds.meta)),
         "snippet ev0001_s002: non-finite"),
    ])
    def test_rejects_mismatched_rows(self, small_fleet, edit, message):
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(small_fleet, **edit(small_fleet))

    def test_take_keeps_the_given_row_order(self, small_fleet):
        rows = np.array([5, 0, 23, 7])
        sub = small_fleet.take(rows)
        assert sub.snippet_ids == tuple(small_fleet.snippet_ids[i] for i in rows)
        assert sub.vehicle_ids == tuple(small_fleet.vehicle_ids[i] for i in rows)
        np.testing.assert_array_equal(sub.channels, small_fleet.channels[rows])
        np.testing.assert_array_equal(sub.meta, small_fleet.meta[rows])
        np.testing.assert_array_equal(sub.labels, small_fleet.labels[rows])

    def test_vehicle_labels_in_order_of_first_row(self, small_fleet):
        sub = small_fleet.take(np.array([9, 0, 10, 1]))
        labels = small_fleet.vehicle_labels()
        assert sub.vehicle_labels() == {v: labels[v] for v in ("ev0003", "ev0000")}
        assert list(sub.vehicle_labels()) == ["ev0003", "ev0000"]


class TestCsvRoundTrip:
    def test_lossless_at_native_length(self, small_fleet, tmp_path):
        data, meta = tmp_path / "snippets.csv", tmp_path / "meta.csv"
        write_csv(small_fleet, data, meta)
        back = load_csv(data, meta, 32)
        assert back.channel_names == small_fleet.channel_names
        assert (back.snippet_ids, back.vehicle_ids) == (small_fleet.snippet_ids, small_fleet.vehicle_ids)
        np.testing.assert_array_equal(back.labels, small_fleet.labels)
        np.testing.assert_array_equal(back.channels, small_fleet.channels)
        np.testing.assert_array_equal(back.meta, small_fleet.meta)

    def test_written_files_load_and_write_back_to_the_same_bytes(self, small_fleet, tmp_path):
        data, meta = tmp_path / "snippets.csv", tmp_path / "meta.csv"
        write_csv(small_fleet, data, meta)
        again = tmp_path / "again.csv", tmp_path / "again_meta.csv"
        write_csv(load_csv(data, meta, 32), *again)
        assert again[0].read_bytes() == data.read_bytes()
        assert again[1].read_bytes() == meta.read_bytes()

    def test_blank_line_inside_a_snippet_is_skipped(self, small_fleet, tmp_path):
        data, meta = tmp_path / "snippets.csv", tmp_path / "meta.csv"
        write_csv(small_fleet, data, meta)
        lines = data.read_text().splitlines()
        lines.insert(3, "")  # between the first snippet's second and third rows
        data.write_text("\n".join(lines) + "\n")
        back = load_csv(data, meta, 32)
        assert back.snippet_ids == small_fleet.snippet_ids
        np.testing.assert_array_equal(back.channels, small_fleet.channels)
        # a row after the blank line names the line it is on
        cols = lines[4].split(",")  # the first snippet's third row, now on line 5
        cols[2] = "2.5"
        data.write_text("\n".join([*lines[:4], ",".join(cols), *lines[5:]]) + "\n")
        with pytest.raises(ParseError, match=r"snippets\.csv:5: step '2\.5' is not an integer"):
            load_csv(data, meta, 32)
        # and so does a snippet after it: the second, now from line 35
        data.write_text("\n".join(lines) + "\n")
        meta_lines = meta.read_text().splitlines()
        sid, label, rest = meta_lines[2].split(",", 2)
        meta_lines[2] = ",".join([sid, "1" if label == "0" else "0", rest])
        meta.write_text("\n".join(meta_lines) + "\n")
        with pytest.raises(ParseError, match=rf"snippets\.csv:35: snippet '{sid}' has label"):
            load_csv(data, meta, 32)

    @pytest.mark.parametrize("char", [",", '"', "\r", "\n"])
    @pytest.mark.parametrize("column", [0, 1])
    def test_id_that_no_csv_output_can_hold_rejected(self, small_fleet, tmp_path, column, char):
        data, meta = tmp_path / "snippets.csv", tmp_path / "meta.csv"
        write_csv(small_fleet, data, meta)
        old = small_fleet.snippet_ids[1] if column == 0 else small_fleet.vehicle_ids[0]
        new = '"' + old[:2] + char.replace('"', '""') + old[2:] + '"'
        data.write_text(data.read_text().replace(f"{old},", f"{new},"))
        # the second snippet starts on line 34; the first vehicle's rows on line 2
        line = 34 if column == 0 else 2
        with pytest.raises(ParseError, match=rf"snippets\.csv:{line}: id .* holds a comma, a double "
                                             r"quote, CR or LF"):
            load_csv(data, meta, 32)
        if column == 0:
            meta.write_text(meta.read_text().replace(f"{old},", f"{new},"))
            with pytest.raises(ParseError, match=r"meta\.csv:3: id .* holds a comma"):
                load_csv(data, meta, 32)

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
        assert back.channels.shape == (24, 20, 3)

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

    def test_repeated_meta_row_rejected(self, small_fleet, tmp_path):
        data, meta = tmp_path / "snippets.csv", tmp_path / "meta.csv"
        write_csv(small_fleet, data, meta)
        lines = meta.read_text().splitlines()
        sid, label, _ = lines[1].split(",", 2)
        # the same snippet again at the end with another mileage, and then with another label
        for repeat in (f"{sid},{label},1.0,1.0", f"{sid},{1 - int(label)},1.0,1.0"):
            meta.write_text("\n".join([*lines, repeat]) + "\n")
            with pytest.raises(ParseError, match=rf"meta\.csv:26: snippet '{sid}' is already "
                                                 r"listed on line 2"):
                load_csv(data, meta, 32)

    def test_meta_row_without_snippet_rows_rejected(self, small_fleet, tmp_path):
        data, meta = tmp_path / "snippets.csv", tmp_path / "meta.csv"
        write_csv(small_fleet, data, meta)
        lines = meta.read_text().splitlines()
        meta.write_text("\n".join([*lines, "ghost_s000,0,1.0,2.0"]) + "\n")
        with pytest.raises(ParseError, match=r"meta\.csv:26: snippet 'ghost_s000' has no rows in "
                                             r".*snippets\.csv"):
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
        sid = small_fleet.snippet_ids[0]
        with pytest.raises(ParseError, match=rf"snippets\.csv:65: rows of snippet '{sid}' are not contiguous"):
            load_csv(data, meta, 32)

    def test_snippet_rows_naming_another_vehicle_rejected(self, small_fleet, tmp_path):
        data, meta = tmp_path / "snippets.csv", tmp_path / "meta.csv"
        write_csv(small_fleet, data, meta)
        lines = data.read_text().splitlines()
        first, other = small_fleet.vehicle_ids[0], small_fleet.vehicle_ids[-1]
        assert first != other
        cols = lines[4].split(",")  # the first snippet's fourth row
        cols[1] = other
        lines[4] = ",".join(cols)
        data.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match=rf"snippets\.csv:5: snippet '{small_fleet.snippet_ids[0]}' row "
                                             rf"has vehicle '{other}'"):
            load_csv(data, meta, 32)

    def test_steps_out_of_order_rejected(self, small_fleet, tmp_path):
        data, meta = tmp_path / "snippets.csv", tmp_path / "meta.csv"
        write_csv(small_fleet, data, meta)
        header, *rows = data.read_text().splitlines()
        sid = small_fleet.snippet_ids[0]
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

    def test_steps_set_the_time_axis(self, tmp_path):
        # 128 rows: steps 0-63, then every third step up to 253, with a
        # voltage that ramps linearly in step by 1.01 V end to end. Spaced by
        # row index instead of by step, it loads up to 0.251 V off
        data, meta = tmp_path / "snippets.csv", tmp_path / "meta.csv"
        steps = np.concatenate([np.arange(64), 64 + 3 * np.arange(64)])
        voltage = 3.2 + 1.01 * steps / 253
        data.write_text("snippet_id,vehicle_id,step,voltage,current,temperature\n" + "".join(
            f"s0,ev0,{step},{float(v)!r},1.5,25.0\n" for step, v in zip(steps, voltage)))
        meta.write_text("snippet_id,label,mileage_km,cycle_count\ns0,0,1000.0,10.0\n")
        back = load_csv(data, meta, 64)
        np.testing.assert_allclose(back.channels[0, :, 0], 3.2 + 1.01 * np.linspace(0, 253, 64) / 253,
                                   rtol=0, atol=1e-12)

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


def _fleet_bits(ds):
    return (ds.snippet_ids, ds.vehicle_ids, ds.channel_names,
            *((a.dtype, a.shape, a.tobytes()) for a in (ds.channels, ds.meta, ds.labels)))


def _row_reader(data, meta, target_len):
    """load_csv with the array path left out: the row reader on the same files."""
    return dataio._build_fleet(dataio._read_snippet_rows, data, meta, dataio._read_meta(meta), target_len)


def _array_path(data, meta, target_len):
    """load_csv's array path alone: its fleet, or None where it leaves the file to the row reader."""
    try:
        return dataio._build_fleet(dataio._read_snippet_blocks, data, meta, dataio._read_meta(meta),
                                   target_len)
    except dataio._Irregular:
        return None


def _edit_cell(data, line, column, cell):
    """Set the cell at 0-based ``column`` of 1-based ``line`` of a CSV file."""
    lines = data.read_text().splitlines()
    cols = lines[line - 1].split(",")
    cols[column] = cell
    lines[line - 1] = ",".join(cols)
    data.write_text("\n".join(lines) + "\n")


def _flip_label(meta_line):
    sid, label, rest = meta_line.split(",", 2)
    return ",".join([sid, "1" if label == "0" else "0", rest])


def _crlf(lines):
    return [line + "\r" for line in lines]


def _blank_lines(lines):
    # one between two rows of a snippet, two together near the first block's end, and
    # more than a block of them at the end of the file
    return [*lines[:5], "", *lines[5:dataio.CSV_BLOCK_LINES], "", "",
            *lines[dataio.CSV_BLOCK_LINES:], *[""] * (dataio.CSV_BLOCK_LINES + 1)]


def _gapped_steps(lines):
    # every other snippet runs on steps 0, 3, 6, ...; the resampling follows them
    out = [lines[0]]
    for i, line in enumerate(lines[1:]):
        sid, vid, step, rest = line.split(",", 3)
        if (i // 30) % 2:
            step = str(3 * int(step))
        out.append(",".join([sid, vid, step, rest]))
    return out


def _fourth_channel(lines):
    return [lines[0] + ",soc", *(f"{line},{0.25 * i!r}" for i, line in enumerate(lines[1:]))]


# cells that int, float, csv.reader and np.loadtxt may take differently
ODD_CELLS = ["2.0", "1e3", "1_0", "+5", "-0", " 5", "5 ", "\t5", "5\xa0", "\uff15", "\u0661", "0x10",
             "05", "", "nan", "inf", "-Infinity", "1e400", "1.", ".5", "1d5", "#1", "1,2",
             "99999999999999999999", "1\x00", '"ev0000"', '"x"', " ev0000", "ev0000 ", "ev\x000",
             "ev0001", "ev0000_s000", "ev0000_s001"]
ODD_FLEET = synth_fleet(FleetConfig(n_vehicles=2, snippets_per_vehicle=2), 5, 10)


class TestArrayPath:
    """load_csv's array path against its row reader: the same fleet, bit for bit."""

    @pytest.mark.parametrize("n_vehicles", [1, 8, 40])
    @pytest.mark.parametrize("edit", [None, _crlf, _blank_lines, _gapped_steps, _fourth_channel])
    @pytest.mark.parametrize("target_len", [30, 17])
    def test_gives_the_row_readers_fleet(self, tmp_path, n_vehicles, edit, target_len):
        # 30 steps a snippet: snippets straddle every block boundary
        fleet = synth_fleet(FleetConfig(n_vehicles=n_vehicles), 3, 30)
        data, meta = tmp_path / "snippets.csv", tmp_path / "meta.csv"
        write_csv(fleet, data, meta)
        if edit is not None:
            data.write_text("\n".join(edit(data.read_text().splitlines())) + "\n", newline="")
        # 1 vehicle fits in one block; 8 and 40 take several
        assert (n_vehicles * 4 * 30 > dataio.CSV_BLOCK_LINES) == (n_vehicles > 1)
        fast = _array_path(data, meta, target_len)
        assert fast is not None
        assert _fleet_bits(fast) == _fleet_bits(_row_reader(data, meta, target_len))
        if edit is None and target_len == 30:
            assert _fleet_bits(fast) == _fleet_bits(fleet)

    def test_written_fleet_loads_without_the_row_reader(self, tmp_path, monkeypatch):
        # a silent fall-back to the row reader would keep every output and lose the speed
        fleet = synth_fleet(FleetConfig(), 7, 128)
        data, meta = tmp_path / "snippets.csv", tmp_path / "meta.csv"
        write_csv(fleet, data, meta)

        def refuse(*args):
            raise AssertionError("the row reader ran on a file that load_csv writes")

        monkeypatch.setattr(dataio, "_read_snippet_rows", refuse)
        assert _fleet_bits(load_csv(data, meta, 128)) == _fleet_bits(fleet)

    @pytest.mark.parametrize("cell", ["2.0", "1e3"])
    def test_step_numpy_reads_as_a_float_is_not_an_integer(self, small_fleet, tmp_path, cell):
        data, meta = tmp_path / "snippets.csv", tmp_path / "meta.csv"
        write_csv(small_fleet, data, meta)
        _edit_cell(data, 40, 2, cell)
        with pytest.raises(ParseError, match=rf"snippets\.csv:40: step '{cell}' is not an integer"):
            load_csv(data, meta, 32)

    @pytest.mark.parametrize("column, cell, plain", [(2, "1_000", "1000"), (4, "1_0", "10")])
    def test_cells_that_only_python_reads_load_as_before(self, small_fleet, tmp_path, column, cell, plain):
        data, meta = tmp_path / "snippets.csv", tmp_path / "meta.csv"
        write_csv(small_fleet, data, meta)
        _edit_cell(data, 33, column, plain)  # the first snippet's last row
        expected = _fleet_bits(load_csv(data, meta, 32))
        _edit_cell(data, 33, column, cell)
        assert _array_path(data, meta, 32) is None
        assert _fleet_bits(load_csv(data, meta, 32)) == expected

    # the second snippet's eighth row, or all its rows (lines 34-65)
    @pytest.mark.parametrize("lines", [[41], range(34, 66)])
    @pytest.mark.parametrize("column, cell", [(0, '"{}"'), (1, '"{}"'), (0, " {}"), (1, "{}\t")])
    def test_ids_csv_reader_unquotes_or_strips_load_as_before(self, small_fleet, tmp_path, lines,
                                                              column, cell):
        data, meta = tmp_path / "snippets.csv", tmp_path / "meta.csv"
        write_csv(small_fleet, data, meta)
        old = data.read_text().splitlines()[lines[0] - 1].split(",")[column]
        for line in lines:
            _edit_cell(data, line, column, cell.format(old))
        assert _array_path(data, meta, 32) is None
        assert _fleet_bits(load_csv(data, meta, 32)) == _fleet_bits(small_fleet)

    @pytest.mark.parametrize("edit, message", [
        # a line of spaces: csv.reader reads one cell
        (lambda lines, meta: ([*lines[:9], "   ", *lines[9:]], meta),
         r"snippets\.csv:10: expected 6 columns, got 1"),
        # the first snippet cut to one row
        (lambda lines, meta: ([lines[0], lines[1], *lines[33:]], meta),
         r"snippets\.csv:2: .* has fewer than 2 rows"),
        # the third snippet's rows under the first one's id: as many snippets as metadata rows
        (lambda lines, meta: ([*lines[:65], *(line.replace("_s002,", "_s000,") for line in lines[65:97]),
                               *lines[97:]], meta),
         r"snippets\.csv:66: rows of snippet 'ev0000_s000' are not contiguous"),
        (lambda lines, meta: ([*lines[:9], lines[10], lines[9], *lines[11:]], meta),
         r"snippets\.csv:11: .* step 8 does not follow its previous step 9"),
        # every rule again on ev0001_s001, the fifth snippet, after a blank line: its rows
        # are lines[129:161] and start on line 131
        (lambda lines, meta: ([*lines[:129], "", *lines[129:160], *lines[161:193], lines[160],
                               *lines[193:]], meta),
         r"snippets\.csv:194: rows of snippet 'ev0001_s001' are not contiguous \(its first block "
         r"starts at line 131\)$"),
        (lambda lines, meta: ([*lines[:129], "", *lines[129:133], lines[133].replace(",ev0001,", ",ev0007,"),
                               *lines[134:]], meta),
         r"snippets\.csv:135: snippet 'ev0001_s001' row has vehicle 'ev0007' but its first row "
         r"\(line 131\) has vehicle 'ev0001'$"),
        (lambda lines, meta: ([*lines[:129], "", lines[129], *lines[161:]], meta),
         r"snippets\.csv:131: snippet 'ev0001_s001' has fewer than 2 rows$"),
        (lambda lines, meta: ([*lines[:129], "", *lines[129:139], lines[139].replace(",10,", ",9,"),
                               *lines[140:]], meta),
         r"snippets\.csv:141: snippet 'ev0001_s001' step 9 does not follow its previous step 9$"),
        (lambda lines, meta: ([*lines[:129], "", *lines[129:]],
                              [*meta[:5], _flip_label(meta[5]), *meta[6:]]),
         r"snippets\.csv:131: snippet 'ev0001_s001' has label \d in the metadata file but vehicle "
         r"'ev0001' has label \d from snippet 'ev0001_s000'$"),
        (lambda lines, meta: ([*lines[:129], "", *lines[129:]], [*meta[:5], *meta[6:]]),
         r"snippets\.csv:131: snippet 'ev0001_s001' missing from metadata file$"),
        (lambda lines, meta: ([*lines[:129], "", *lines[161:]], meta),
         r"meta\.csv:6: snippet 'ev0001_s001' has no rows in .*snippets\.csv$"),
    ])
    def test_file_that_breaks_a_rule_fails_as_in_the_row_reader(self, small_fleet, tmp_path, edit, message):
        data, meta = tmp_path / "snippets.csv", tmp_path / "meta.csv"
        write_csv(small_fleet, data, meta)
        lines, meta_lines = edit(data.read_text().splitlines(), meta.read_text().splitlines())
        data.write_text("\n".join(lines) + "\n")
        meta.write_text("\n".join(meta_lines) + "\n")

        def error(read):
            try:
                read(data, meta, 32)
            except ParseError as exc:
                return str(exc)

        expected = error(_row_reader)
        assert expected is not None and re.search(message, expected), expected
        assert error(load_csv) == expected
        # the array path names a broken rule itself; a line numpy cannot read it leaves to the
        # row reader
        assert error(_array_path) == (None if "columns" in message else expected)
        if "columns" in message:
            assert _array_path(data, meta, 32) is None

    @pytest.mark.parametrize("header", [None, "", "snippet_id,vehicle,step,voltage",
                                        "snippet_id,vehicle_id,step", " snippet_id , vehicle_id,stp,v"])
    def test_bad_unquoted_header_fails_in_the_array_path_as_in_the_row_reader(
            self, small_fleet, tmp_path, monkeypatch, header):
        # None: an empty file; "": a blank first line
        data, meta = tmp_path / "snippets.csv", tmp_path / "meta.csv"
        write_csv(small_fleet, data, meta)
        lines = data.read_text().splitlines()
        data.write_text("" if header is None else "\n".join([header, *lines[1:]]) + "\n")
        with pytest.raises(ParseError) as in_row_reader:
            _row_reader(data, meta, 32)

        def refuse(*args):
            raise AssertionError("the row reader ran on a file with an unquoted header")

        monkeypatch.setattr(dataio, "_read_snippet_rows", refuse)
        with pytest.raises(ParseError, match=r"snippets\.csv:1: expected header "
                                             r"snippet_id,vehicle_id,step,<channels\.\.\.>$") as loaded:
            load_csv(data, meta, 32)
        assert str(loaded.value) == str(in_row_reader.value)

    def test_quoted_header_goes_to_the_row_reader(self, small_fleet, tmp_path):
        data, meta = tmp_path / "snippets.csv", tmp_path / "meta.csv"
        write_csv(small_fleet, data, meta)
        lines = data.read_text().splitlines()
        data.write_text("\n".join(['"snippet_id",vehicle_id,step,voltage,"current",temperature',
                                   *lines[1:]]) + "\n")
        assert _array_path(data, meta, 32) is None
        assert _fleet_bits(load_csv(data, meta, 32)) == _fleet_bits(small_fleet)
        data.write_text("\n".join(['"snippet_id",vehicle,step,voltage', *lines[1:]]) + "\n")
        with pytest.raises(ParseError, match=r"snippets\.csv:1: expected header snippet_id,vehicle_id"):
            load_csv(data, meta, 32)

    def test_bad_metadata_header_names_the_expected_one(self, small_fleet, tmp_path):
        data, meta = tmp_path / "snippets.csv", tmp_path / "meta.csv"
        write_csv(small_fleet, data, meta)
        lines = meta.read_text().splitlines()
        meta.write_text("\n".join(["snippet_id,label,mileage,cycle_count", *lines[1:]]) + "\n")
        with pytest.raises(ParseError, match=r"meta\.csv:1: expected header "
                                             r"snippet_id,label,mileage_km,cycle_count$"):
            load_csv(data, meta, 32)

    def test_extra_cell_names_its_line(self, small_fleet, tmp_path):
        data, meta = tmp_path / "snippets.csv", tmp_path / "meta.csv"
        write_csv(small_fleet, data, meta)
        lines = data.read_text().splitlines()
        lines[99] += ",1.0"
        data.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match=r"snippets\.csv:100: expected 6 columns, got 7"):
            load_csv(data, meta, 32)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 40), st.integers(0, 6), st.sampled_from(ODD_CELLS)),
                    min_size=1, max_size=4),
           st.sampled_from(["\n", "\r\n"]))
    def test_edited_file_loads_or_fails_as_the_row_reader_does(self, tmp_path_factory, edits, end):
        # a small fleet, some cells replaced by cells numpy and Python may read differently
        data = tmp_path_factory.mktemp("odd") / "snippets.csv"
        meta = data.with_name("meta.csv")
        write_csv(ODD_FLEET, data, meta)
        lines = data.read_text().splitlines()
        for line, column, cell in edits:
            cols = lines[line].split(",")
            if column < len(cols):
                cols[column] = cell
            else:
                cols.append(cell)
            lines[line] = ",".join(cols)
        data.write_text(end.join(lines) + end, newline="")

        def outcome(read):
            try:
                return _fleet_bits(read(data, meta, 5))
            except ParseError as exc:
                return str(exc)

        assert outcome(load_csv) == outcome(_row_reader)


def _traced_peak(fn, *args):
    """The tracemalloc peak of ``fn(*args)``, after one untraced call that fills the caches a
    first call allocates."""
    fn(*args)
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemory:
    """The CSV reader holds a block, not the file; the writer, a chunk, not the text."""

    def test_load_and_write_hold_about_a_block_of_the_desk_fleet(self, tmp_path):
        fleet = synth_fleet(FleetConfig(n_vehicles=40), 7, 128)
        data, meta = tmp_path / "snippets.csv", tmp_path / "meta.csv"
        write_csv(fleet, data, meta)
        # at the parent, 2.18 MB against 1.18 MB: the array path held every row's numbers
        assert _traced_peak(load_csv, data, meta, 128) <= _traced_peak(_row_reader, data, meta, 128)
        # 6.80 MB at the parent, for a 1.58 MB file whose channels take 0.49 MB
        assert _traced_peak(write_csv, fleet, data, meta) <= 6.80e6 / 2

    def test_csv_text_makes_chunks_of_at_most_a_block_of_lines(self):
        n = 2 * dataio.CSV_BLOCK_LINES + 1
        chunks = list(dataio.csv_text(("i", "x"), list(range(n)), np.arange(n) / 4))
        assert [chunk.count("\n") for chunk in chunks] == [1, dataio.CSV_BLOCK_LINES,
                                                           dataio.CSV_BLOCK_LINES, 1]
        assert "".join(chunks) == "i,x\n" + "".join(f"{i},{i / 4!r}\n" for i in range(n))


class TestNormalization:
    def test_train_stats_are_zero_mean_unit_std(self, small_fleet):
        stats = fit_norm(small_fleet)
        normed = apply_norm(small_fleet, stats)
        np.testing.assert_allclose(normed.channels.mean(axis=(0, 1)), 0, atol=1e-9)
        np.testing.assert_allclose(normed.channels.std(axis=(0, 1)), 1, atol=1e-9)
        np.testing.assert_allclose(normed.meta.mean(axis=0), 0, atol=1e-9)

    def test_apply_norm_uses_given_stats(self, small_fleet):
        stats = fit_norm(small_fleet)
        other = synth_fleet(FleetConfig(n_vehicles=2, snippets_per_vehicle=1),
                            77, 32, id_prefix="zz")
        normed = apply_norm(other, stats)
        expected = (other.channels[0] - stats.mean) / stats.std
        np.testing.assert_allclose(normed.channels[0], expected, atol=1e-12)


def _allocation_before(sizes, ratio):
    """label -> training vehicles as vehicle_split counted them before its one clamp (the oracle)."""
    groups = sorted(sizes.items())
    total_train = int(round(ratio * sum(sizes.values())))
    alloc = {}
    for label, size in groups:
        n_tr = int(round(ratio * size))
        if size >= 2:
            n_tr = min(max(n_tr, 1), size - 1)
        alloc[label] = n_tr
    diff = total_train - sum(alloc.values())
    if diff != 0:
        label_big = max(groups, key=lambda kv: kv[1])[0]
        size = sizes[label_big]
        lo = 1 if size >= 2 else 0
        hi = size - 1 if size >= 2 else size
        alloc[label_big] = min(max(alloc[label_big] + diff, lo), hi)
    return alloc


def _train_vehicles_before(ds, ratio, seed):
    """The training vehicles that vehicle_split chose before its one clamp (the oracle)."""
    rng = SeededRng(seed, ("vehicle_split",))
    by_label = {}
    for v, label in ds.vehicle_labels().items():
        by_label.setdefault(label, []).append(v)
    alloc = _allocation_before({label: len(group) for label, group in by_label.items()}, ratio)
    train_ids = set()
    for label, group in sorted(by_label.items()):
        order = rng.spawn(label).permutation(len(group))
        train_ids.update([group[i] for i in order][:alloc[label]])
    return train_ids


# k/61 never puts ratio * size on a tie of round(); k/8 (exact in binary) and k/20 put it on or
# next to one, for the groups and for the total
SPLIT_RATIOS = sorted({k / 61 for k in range(1, 61)} | {k / 20 for k in range(1, 20)}
                      | {k / 8 for k in range(1, 8)})


class TestVehicleSplit:
    def test_allocation_is_the_one_before_its_one_clamp(self):
        for n_neg in range(30):
            for n_pos in range(30):
                sizes = {label: n for label, n in ((0, n_neg), (1, n_pos)) if n}
                if n_neg + n_pos < 2:
                    continue
                for ratio in SPLIT_RATIOS:
                    assert dataio._train_counts(sizes, ratio) == _allocation_before(sizes, ratio), \
                        (n_neg, n_pos, ratio)

    @pytest.mark.parametrize("seed", [7, 1357])
    @pytest.mark.parametrize("ratio", [0.5, 0.75, 0.8])
    def test_training_vehicles_are_the_ones_before_its_one_clamp(self, seed, ratio):
        ds = synth_fleet(FleetConfig(), seed, 8)
        train, _, _ = vehicle_split(ds, ratio, seed)
        assert set(train.vehicle_ids) == _train_vehicles_before(ds, ratio, seed)

    def test_no_vehicle_straddles(self, small_fleet):
        train, val, _ = vehicle_split(small_fleet, 0.75, 4)
        assert set(train.vehicle_ids).isdisjoint(val.vehicle_ids)
        assert set(train.vehicle_ids) | set(val.vehicle_ids) == set(small_fleet.vehicle_ids)
        assert len(train) + len(val) == len(small_fleet)

    def test_total_matches_rounded_ratio(self, small_fleet):
        train, _, _ = vehicle_split(small_fleet, 0.75, 4)
        assert len(set(train.vehicle_ids)) == round(0.75 * 8)

    def test_label_stratified_when_possible(self):
        ds = synth_fleet(FleetConfig(n_vehicles=20, fault_fraction=0.2,
                                     snippets_per_vehicle=1), 9, 16)
        _, val, _ = vehicle_split(ds, 0.8, 2)
        val_labels = set(val.vehicle_labels().values())
        assert val_labels == {0, 1}

    @given(st.integers(0, 1000))
    @settings(max_examples=20, deadline=None)
    def test_split_deterministic_per_seed(self, seed):
        ds = synth_fleet(FleetConfig(n_vehicles=10, snippets_per_vehicle=1), 1, 16)
        a, _, _ = vehicle_split(ds, 0.7, seed)
        b, _, _ = vehicle_split(ds, 0.7, seed)
        assert a.vehicle_ids == b.vehicle_ids

    def test_bad_ratio_rejected(self, small_fleet):
        with pytest.raises(ValueError):
            vehicle_split(small_fleet, 1.0, 0)

    def test_statistics_come_from_the_training_side_alone(self, small_fleet):
        def bits(ds, stats):
            return [a.tobytes() for a in (ds.channels, ds.meta, *dataclasses.astuple(stats))]

        train, val, stats = vehicle_split(small_fleet, 0.75, 4)
        vids = np.array(small_fleet.vehicle_ids)
        raw_train = small_fleet.take(np.flatnonzero(np.isin(vids, train.vehicle_ids)))
        assert bits(train, stats) == bits(apply_norm(raw_train, fit_norm(raw_train)), fit_norm(raw_train))

        channels = small_fleet.channels.copy()
        channels[vids == val.vehicle_ids[0]] += 100.0  # shift one validation vehicle
        train2, val2, stats2 = vehicle_split(dataclasses.replace(small_fleet, channels=channels), 0.75, 4)
        assert not np.array_equal(val2.channels, val.channels)
        assert train2.snippet_ids == train.snippet_ids and bits(train2, stats2) == bits(train, stats)
