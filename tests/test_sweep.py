import hashlib

import numpy as np
import pytest

from qcorrkit.channels import WmrMode
from qcorrkit.cli import main
from qcorrkit.states import StateFamily
from qcorrkit.sweep import (
    SweepConfig,
    find_zero_crossing,
    run_sweep,
    sweep_csv_text,
)


class TestConfigValidation:
    def test_q_sweep_needs_protection(self):
        with pytest.raises(ValueError):
            SweepConfig(family=StateFamily("bell"), var="q", mode=WmrMode.NONE)

    def test_alpha_sweep_needs_nme(self):
        with pytest.raises(ValueError):
            SweepConfig(family=StateFamily("bell"), var="alpha2")

    def test_unknown_variable(self):
        with pytest.raises(ValueError):
            SweepConfig(family=StateFamily("bell"), var="z")


class TestRunSweep:
    def test_header_schema_raw_only(self):
        result = run_sweep(
            SweepConfig(family=StateFamily("bell"), points=5, normalized=False)
        )
        assert result.header == [
            "sweep_var", "value", "chi", "fidelity", "concurrence", "qs", "tdd", "jsd",
        ]

    def test_header_schema_full(self):
        result = run_sweep(
            SweepConfig(
                family=StateFamily("bell"), points=3, mode=WmrMode.TWO_QUBIT, var="q"
            )
        )
        assert result.header == [
            "sweep_var", "value", "chi", "fidelity", "concurrence", "qs", "tdd", "jsd",
            "n_chi", "n_fidelity", "n_concurrence", "n_qs", "n_tdd", "n_jsd",
            "r_star", "success_prob",
        ]

    def test_pristine_endpoint(self):
        result = run_sweep(SweepConfig(family=StateFamily("bell"), points=11))
        assert result.rows[0][1] == 0.0
        assert result.column("concurrence")[0] == pytest.approx(1.0)
        assert result.column("chi")[0] == pytest.approx(2.0, abs=1e-9)
        assert result.column("qs")[0] == pytest.approx(6.0, abs=1e-9)

    def test_alpha2_sweep_shapes(self):
        result = run_sweep(
            SweepConfig(
                family=StateFamily("nme", 0.5),
                var="alpha2",
                mode=WmrMode.TWO_QUBIT,
                eta=1.0,
                points=7,
                q_fixed=0.5,
            )
        )
        values = result.column("value")
        np.testing.assert_allclose(values, np.linspace(0, 1, 7))
        # separable endpoints carry no entanglement or discord
        assert result.column("concurrence")[0] == pytest.approx(0.0, abs=1e-9)
        assert result.column("concurrence")[-1] == pytest.approx(0.0, abs=1e-9)
        assert result.column("tdd")[0] == pytest.approx(0.0, abs=1e-9)

    def test_q_sweep_reports_success_and_rstar(self):
        result = run_sweep(
            SweepConfig(
                family=StateFamily("bell"), var="q", mode=WmrMode.ONE_QUBIT, points=5
            )
        )
        success = result.column("success_prob")
        assert ((0.0 < success) & (success <= 1.0)).all()
        r_star = result.column("r_star")
        assert ((0.0 <= r_star) & (r_star < 1.0)).all()

    def test_csv_is_deterministic(self):
        config = SweepConfig(family=StateFamily("werner", 0.8), points=9, eta=1.0)
        assert sweep_csv_text(run_sweep(config)) == sweep_csv_text(run_sweep(config))


class TestBytePins:
    """SHA-256 of CLI ``sweep -o`` files under protection: one-qubit rows
    and dead-plateau rows (r* = 0, C = 0), values and formatting alike."""

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (
                "--family mems --param 0.8 --eta 1 --mode wm1 --var q --points 21",
                "f37600a89e504e96b93ae1fc3f4c07b2c3c7b00f153f11cad2d9aa660513ba49",
            ),
            (
                "--family werner --param 0.8 --eta 0 --mode wm2 --var p --q 0.5 --points 21",
                "0619c1ff5638cbc071b4011c3e58e0d8f19b29b19e757198b8f2080a3d845f16",
            ),
            (
                "--family nme --var alpha2 --mode wm1 --eta 1 --p 0.5 --q 0.5 --points 11",
                "60823a5f0f8d17e900a25c1538e3b35e4ec5baf315e81196e51324e575acdf9e",
            ),
        ],
        ids=["mems08-wm1-q", "werner08-wm2-p", "nme-wm1-alpha2"],
    )
    def test_csv_digest(self, tmp_path, argv, digest):
        path = tmp_path / "pin.csv"
        assert main(["sweep", *argv.split(), "-o", str(path)]) == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


class TestZeroCrossing:
    def test_linear_interpolation(self):
        x = np.array([0.0, 1.0, 2.0])
        y = np.array([1.0, 0.5, -0.5])
        assert find_zero_crossing(x, y) == pytest.approx(1.5)

    def test_no_crossing(self):
        assert find_zero_crossing(np.arange(4.0), np.ones(4)) is None

    def test_exact_zero_on_grid(self):
        x = np.array([0.0, 1.0, 2.0])
        y = np.array([1.0, 0.0, -1.0])
        assert find_zero_crossing(x, y) == pytest.approx(1.0)
