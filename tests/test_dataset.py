import hashlib
import re

import numpy as np
import pytest

from qcorrkit.dataset import (
    CSV_HEADER,
    SCENARIOS,
    build_dataset,
    read_dataset_csv,
    write_dataset_csv,
)
from qcorrkit.states import StateFamily


class TestBuildDataset:
    def test_bell_sweep_endpoints(self):
        data = build_dataset(StateFamily("bell"), "no_wmr", 0.0, points=101)
        assert len(data) == 101 and SCENARIOS[data.scenario]["var"] == "p"
        # p = 0 row: the pristine Bell vector [jsd, C, F, QS, chi], target 1/2
        np.testing.assert_allclose(
            data.features[0],
            [0.557923045284144, 1.0, 1.0, 6.0, 2.0],
            atol=1e-9,
        )
        assert data.targets[0] == pytest.approx(0.5, abs=1e-12)
        # p = 1 row: every feature at its classical value, discord gone
        np.testing.assert_allclose(
            data.features[-1], [0.0, 0.0, 2 / 3, 2.0, 1.0], atol=1e-9
        )
        assert data.targets[-1] == pytest.approx(0.0, abs=1e-12)

    def test_protected_sweep_is_finite_and_monotone_in_q(self):
        data = build_dataset(StateFamily("werner", 0.8), "wmr2", 1.0, points=60)
        assert SCENARIOS[data.scenario]["var"] == "q"
        assert np.isfinite(data.features).all() and np.isfinite(data.targets).all()
        assert (np.diff(data.sweep_values) > 0).all()
        assert data.sweep_values[0] == 0.0 and data.sweep_values[-1] == pytest.approx(0.99)

    def test_minimum_rows_enforced(self):
        with pytest.raises(ValueError):
            build_dataset(StateFamily("bell"), "no_wmr", 0.0, points=20)

    def test_unknown_scenario(self):
        with pytest.raises(ValueError):
            build_dataset(StateFamily("bell"), "wmr1", 0.0, points=60)


class TestCsvRoundTrip:
    def test_write_read(self, tmp_path):
        for scenario in SCENARIOS:
            # the writer labels each row with the scenario's own axis, which the reader requires
            data = build_dataset(StateFamily("mems", 0.8), scenario, 1.0, points=55)
            path = tmp_path / f"{scenario}.csv"
            write_dataset_csv(path, data)
            header, first = path.read_text().splitlines()[:2]
            assert first.split(",")[2] == SCENARIOS[scenario]["var"]
            # the measure names come from the CorrelationVector fields; the
            # header stays the documented one
            assert header == "scenario,eta,sweep_var,sweep_value,jsd,concurrence,fidelity,qs,chi,tdd"
            back = read_dataset_csv(path)
            np.testing.assert_array_equal(back.features, data.features)
            np.testing.assert_array_equal(back.targets, data.targets)
            np.testing.assert_array_equal(back.sweep_values, data.sweep_values)
            assert (back.scenario, back.eta) == (scenario, 1.0)

    def test_parse_error_names_row_and_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            ",".join(CSV_HEADER)
            + "\nno_wmr,0.0,p,0.0,0.1,0.2,0.3,0.4,0.5,oops\n"
        )
        with pytest.raises(ValueError, match=r"row 2.*'tdd'.*oops"):
            read_dataset_csv(path)

    # besides nan and inf, cells that float() takes but no writer produces:
    # a digit separator, Arabic-Indic digits and blanks around the number
    @pytest.mark.parametrize("cell", ["nan", "inf", "1_0", "\u0660.\u0665", " 0.5 ", "0.5\t"])
    @pytest.mark.parametrize("col", ["qs", "tdd", "sweep_value", "eta"])
    def test_non_finite_cell_names_row_and_column(self, tmp_path, col, cell):
        row = "no_wmr,0.0,p,0.0,0.1,0.2,0.3,0.4,0.5,0.6".split(",")
        row[CSV_HEADER.index(col)] = cell
        path = tmp_path / "bad.csv"
        path.write_text(",".join(CSV_HEADER) + "\n" + ",".join(row) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match=rf"row 2, column '{col}'.*" + re.escape(repr(cell))):
            read_dataset_csv(path)

    @pytest.mark.parametrize(
        "row, message",
        [("no_wmr,-5e-324,p,0.0", "column 'eta': eta=-5e-324 outside [0, 1]"),
         ("no_wmr,0.0,p,1.0000000000000002", "column 'sweep_value': p=1.0000000000000002 outside [0, 1]"),
         ("wmr2,1.0,q,1.0", "column 'sweep_value': q=1.0 outside [0, 1)"),
         ("no_wmr,1.0,p,1.0", None), ("wmr2,0.0,q,0.9999999999999999", None)],
        ids=["eta", "p", "q", "p_one", "q_below_one"],
    )
    def test_eta_and_sweep_value_lie_in_their_domains(self, tmp_path, row, message):
        path = tmp_path / "data.csv"
        path.write_text(",".join(CSV_HEADER) + "\n" + row + ",0.1,0.2,0.3,0.4,0.5,0.6\n")
        if message is None:
            assert len(read_dataset_csv(path)) == 1
            return
        with pytest.raises(ValueError, match=re.escape(f"{path}: row 2, {message}")):
            read_dataset_csv(path)

    def test_header_mismatch(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError, match="unexpected header"):
            read_dataset_csv(path)

    def test_field_count_mismatch(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(",".join(CSV_HEADER) + "\nno_wmr,0.0,p,0.0,1.0\n")
        with pytest.raises(ValueError, match="row 2 has 5 fields"):
            read_dataset_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            read_dataset_csv(path)

    @pytest.mark.parametrize(
        "third_row",
        [
            "wmr2,0.0,p,0.2,0.1,0.2,0.3,0.4,0.5,0.6",
            "no_wmr,1.0,p,0.2,0.1,0.2,0.3,0.4,0.5,0.6",
            "no_wmr,0.0,q,0.2,0.1,0.2,0.3,0.4,0.5,0.6",
        ],
        ids=["scenario", "eta", "sweep_var"],
    )
    def test_mixed_rows_rejected(self, tmp_path, third_row):
        path = tmp_path / "mixed.csv"
        path.write_text(
            ",".join(CSV_HEADER)
            + "\nno_wmr,0.0,p,0.0,0.1,0.2,0.3,0.4,0.5,0.6"
            + "\nno_wmr,0.0,p,0.1,0.1,0.2,0.3,0.4,0.5,0.6"
            + "\n" + third_row
            + "\nwmr2,1.0,q,0.3,0.1,0.2,0.3,0.4,0.5,0.6\n"
        )
        with pytest.raises(ValueError, match=r"row 4: scenario, eta, sweep_var"):
            read_dataset_csv(path)


class TestBytePins:
    """SHA-256 of the written CSV of 50-row datasets: any change to the
    values, their order or their formatting shows here."""

    @pytest.mark.parametrize(
        "family, scenario, digest",
        [
            (
                StateFamily("bell"),
                "wmr2",
                "15ef28a962e62a2718d1eb8e03066dc4c089603ea4344bb6c99a8e9c1736c57a",
            ),
            (
                StateFamily("mems", 0.8),
                "no_wmr",
                "6ed62c19a7eae404d3c61fde7c4f7aa1e1836ced9cd4d5b5a7c3bd95488f8d7b",
            ),
        ],
        ids=["bell-wmr2", "mems08-no_wmr"],
    )
    def test_csv_digest(self, tmp_path, family, scenario, digest):
        path = tmp_path / "pin.csv"
        write_dataset_csv(path, build_dataset(family, scenario, 1.0, points=50))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
