import csv
import hashlib

import numpy as np
import pytest

from qcorrkit.channels import ChannelParams, WmrMode, WmrParams, apply_cad, apply_wm, wmr_pipeline
from qcorrkit.cli import _family, build_parser, main
from qcorrkit.measures import correlation_vector, normalize
from qcorrkit.states import StateFamily, make_state
from qcorrkit.sweep import (
    SweepConfig,
    find_zero_crossing,
    run_sweep,
    sweep_csv_text,
)

from conftest import closed_form_optimum


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


#: CLI ``sweep`` flags -> SHA-256 of the written file
SWEEP_PINS = {
    "mems08-wm1-q": (
        "--family mems --param 0.8 --eta 1 --mode wm1 --var q --points 21",
        "ae4e00e5254be6dcb1869c6fc39df543b91ee57cb79d04b25fd98b90ec66c3a4",
    ),
    "werner08-wm2-p": (
        "--family werner --param 0.8 --eta 0 --mode wm2 --var p --q 0.5 --points 21",
        "1f7cf84e239288e080f5902dfbc510762225c177baca337d7b7db627fd4fd4f9",
    ),
    "nme-wm1-alpha2": (
        "--family nme --var alpha2 --mode wm1 --eta 1 --p 0.5 --q 0.5 --points 11",
        "1fe3e1aeb82d2b9a874326303e31677cbefe8e1b722151073aec66f3b8539873",
    ),
}


class TestBytePins:
    """SHA-256 of CLI ``sweep -o`` files under protection: one-qubit rows
    and dead-plateau rows (r* = 0, C = 0), values and formatting alike.
    A round-off change may re-pin them only while the gate below holds."""

    @pytest.mark.parametrize("argv, digest", SWEEP_PINS.values(), ids=SWEEP_PINS.keys())
    def test_csv_digest(self, tmp_path, argv, digest):
        path = tmp_path / "pin.csv"
        assert main(["sweep", *argv.split(), "-o", str(path)]) == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("argv", [a for a, _ in SWEEP_PINS.values()], ids=SWEEP_PINS.keys())
    def test_rows_match_closed_form_and_own_r_star(self, tmp_path, argv):
        # each row's concurrence is the closed-form reversal optimum, and
        # every column is the pipeline evaluated at the row's own r_star
        path = tmp_path / "pin.csv"
        assert main(["sweep", *argv.split(), "-o", str(path)]) == 0
        args = build_parser().parse_args(["sweep", *argv.split()])
        mode = WmrMode(args.mode)
        header, *rows = list(csv.reader(path.read_text().splitlines()))
        for row in rows:
            values = [float(x) for x in row[1:]]
            family, p, q = _family(args), args.p, args.q
            if args.var == "p":
                p = values[0]
            elif args.var == "q":
                q = values[0]
            else:
                family = StateFamily("nme", values[0])
            rho0, ch = make_state(family), ChannelParams(p, args.eta)
            sigma = apply_cad(apply_wm(rho0, q, mode)[0], ch)
            c = values[header.index("concurrence") - 1]
            assert abs(c - closed_form_optimum(sigma, mode)) <= 1e-9, row
            r_star = values[header.index("r_star") - 1]
            out = wmr_pipeline(rho0, ch, WmrParams(q, r_star, mode))
            vector = correlation_vector(out.state)
            expected = [
                values[0], *vector.as_tuple(), *normalize(vector).as_tuple(),
                r_star, out.success_probability,
            ]
            assert values == expected, row


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
