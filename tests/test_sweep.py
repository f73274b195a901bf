import csv
import hashlib
import io
import math

import numpy as np
import pytest

from qcorrkit import cli, sweep
from qcorrkit.channels import ChannelParams, WmrMode, WmrParams, apply_cad, apply_wm, wmr_pipeline
from qcorrkit.cli import build_parser, main
from qcorrkit.dataset import CSV_HEADER, SCENARIOS, Dataset, build_dataset, write_dataset_csv
from qcorrkit.measures import correlation_vector, normalize
from qcorrkit.mlp import init_mlp, save_mlp
from qcorrkit.optimize import optimal_qmr
from qcorrkit.states import StateFamily, make_state
from qcorrkit.sweep import (
    SweepConfig,
    run_sweep,
    sweep_csv_text,
    write_sweep_csv,
)

from conftest import closed_form_optimum, find_zero_crossing


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
    def test_header_schema_full(self):
        result = run_sweep(
            SweepConfig(
                family=StateFamily("bell"), points=3, mode=WmrMode.TWO_QUBIT, var="q"
            )
        )
        assert result.columns == (
            "value", "chi", "fidelity", "concurrence", "qs", "tdd", "jsd",
            "n_chi", "n_fidelity", "n_concurrence", "n_qs", "n_tdd", "n_jsd",
            "r_star", "success_prob",
        )
        assert result.table.shape == (3, 15) and result.table.dtype == float
        assert sweep_csv_text(result).split("\r\n")[0] == "sweep_var," + ",".join(result.columns)

    def test_pristine_endpoint(self):
        result = run_sweep(SweepConfig(family=StateFamily("bell"), points=11))
        assert result.column("value")[0] == 0.0
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


#: families of the stacked-row checks; mems 0.5 sits below the
#: 2/3 kink of g(gamma), mems 0.8 above it
STACKED_FAMILIES = [
    StateFamily("bell"), StateFamily("werner", 0.8), StateFamily("mems", 0.5),
    StateFamily("mems", 0.8), StateFamily("nme", 0.3),
]


class TestStackedUnprotectedSweep:
    """An unprotected sweep is one channel call and one measure call on a
    stack; each of its rows must equal, with ==, the row of that point
    evaluated on its own through the single-state route."""

    @staticmethod
    def _point_row(family, p, eta, value):
        vector = correlation_vector(apply_cad(make_state(family), ChannelParams(p, eta)))
        return [value, *vector, *normalize(vector)]

    @pytest.mark.parametrize("eta", [0.0, 0.4, 1.0])
    @pytest.mark.parametrize("family", STACKED_FAMILIES, ids=lambda f: f"{f.kind}{f.param}")
    def test_p_rows_equal_per_point_rows(self, family, eta):
        result = run_sweep(SweepConfig(family, eta, var="p", points=41))
        values = result.column("value").tolist()
        assert values[0] == 0.0 and values[-1] == 1.0
        assert result.table.tolist() == [self._point_row(family, p, eta, p) for p in values]

    @pytest.mark.parametrize("eta", [0.0, 0.4, 1.0])
    @pytest.mark.parametrize("p_fixed", [0.0, 0.37, 1.0])
    def test_alpha2_rows_equal_per_point_rows(self, p_fixed, eta):
        config = SweepConfig(StateFamily("nme", 0.5), eta, var="alpha2", points=41, p_fixed=p_fixed)
        result = run_sweep(config)
        values = result.column("value").tolist()
        assert values[0] == 0.0 and values[-1] == 1.0   # the separable endpoints
        assert result.table.tolist() == [
            self._point_row(StateFamily("nme", a2), p_fixed, eta, a2) for a2 in values
        ]

    @pytest.mark.parametrize("var, family", [("p", StateFamily("werner", 0.8)),
                                             ("alpha2", StateFamily("nme", 0.5))],
                             ids=["p", "alpha2"])
    def test_one_channel_and_one_measure_call_per_sweep(self, monkeypatch, var, family):
        calls = {"apply_cad": 0, "correlation_vector": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(sweep, name, counted(name, getattr(sweep, name)))
        result = run_sweep(SweepConfig(family, 0.4, var=var, points=37))
        assert len(result.table) == 37
        assert calls == {"apply_cad": 1, "correlation_vector": 1}


class TestProtectedSweepTable:
    """A protected sweep collects each point's measures, r* and success
    probability and builds its table with one normalize call and one
    column stack; the table must equal, bit for bit, the rows assembled
    point by point as ``[value, *v, *normalize(v), r_star, success]``."""

    CASES = {
        "q": (StateFamily("werner", 0.8), np.linspace(0.0, 0.99, 9)),
        "p": (StateFamily("mems", 0.8), np.linspace(0.0, 1.0, 9)),
        "alpha2": (StateFamily("nme", 0.5), np.linspace(0.0, 1.0, 9)),
    }

    @pytest.mark.parametrize("mode", [WmrMode.ONE_QUBIT, WmrMode.TWO_QUBIT], ids=["wm1", "wm2"])
    @pytest.mark.parametrize("var", CASES)
    def test_table_equals_per_point_rows(self, monkeypatch, var, mode):
        family, values = self.CASES[var]
        calls = {"optimal_qmr": 0, "correlation_vector": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(sweep, name, counted(name, getattr(sweep, name)))
        config = SweepConfig(family, 0.4, mode, var=var, points=len(values), q_fixed=0.6)
        result = run_sweep(config)
        assert calls == {"optimal_qmr": len(values), "correlation_vector": len(values)}

        rows = []
        for value in values.tolist():
            point_family, p, q = family, config.p_fixed, config.q_fixed
            if var == "p":
                p = value
            elif var == "q":
                q = value
            else:
                point_family = StateFamily("nme", value)
            out = optimal_qmr(point_family, ChannelParams(p, config.eta), q, mode)
            vector = correlation_vector(out.state)
            rows.append([value, *vector, *normalize(vector), out.r_star, out.success_probability])
        assert result.table.tobytes() == np.array(rows).tobytes()


class TestCsvText:
    """``csv_text`` joins the cells itself; the text of every CSV written
    through it (a sweep for each sweep variable, a dataset file, the
    ``predict`` output and the weight summary) must be the excel-dialect
    ``csv.writer`` text of the same cells, for the floats whose repr is
    unusual too."""

    SPECIAL = (math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e22, 1.0)
    CONFIGS = {
        "p": SweepConfig(StateFamily("werner", 0.8), points=5),
        "q": SweepConfig(StateFamily("bell"), mode=WmrMode.TWO_QUBIT, var="q", points=3),
        "alpha2": SweepConfig(StateFamily("nme", 0.5), var="alpha2", points=5),
    }

    @classmethod
    def _special_rows(cls, width):
        return [[cls.SPECIAL[(k + i) % len(cls.SPECIAL)] for i in range(width)]
                for k in range(len(cls.SPECIAL))]

    @staticmethod
    def _writer_text(header, rows):
        expected = io.StringIO()
        writer = csv.writer(expected)
        writer.writerow(header)
        writer.writerows(rows)
        return expected.getvalue()

    @pytest.mark.parametrize("var", CONFIGS)
    def test_text_equals_csv_writer(self, var):
        result = run_sweep(self.CONFIGS[var])
        result.table = np.vstack([result.table, self._special_rows(len(result.columns))])
        expected = self._writer_text(
            ["sweep_var", *result.columns], [[var, *map(repr, row)] for row in result.table.tolist()]
        )

        fh = io.StringIO()
        write_sweep_csv(result, fh)
        assert fh.getvalue() == expected
        assert fh.tell() == len(expected)
        assert sweep_csv_text(result) == expected

    @pytest.mark.parametrize("scenario", ["no_wmr", "wmr2"])
    def test_dataset_file_equals_csv_writer(self, tmp_path, scenario):
        data = build_dataset(StateFamily("werner", 0.8), scenario, 0.4, points=50)
        table = np.vstack([np.column_stack([data.sweep_values, data.features, data.targets]),
                           self._special_rows(7)])
        data = Dataset(table[:, 1:6], table[:, 6], data.scenario, data.eta, table[:, 0])
        path = tmp_path / "data.csv"
        write_dataset_csv(path, data)
        axis = SCENARIOS[scenario]["var"]
        expected = self._writer_text(
            CSV_HEADER, [[scenario, "0.4", axis, *map(repr, row)] for row in table.tolist()]
        )
        assert path.read_bytes() == expected.encode()

    def test_predictions_equal_csv_writer(self, tmp_path, monkeypatch, capsys):
        # the reader takes finite cells only, and sweep values in [0, 1)
        # for q, so the other unusual floats reach the file as predictions
        data = build_dataset(StateFamily("bell"), "wmr2", 1.0, points=50)
        finite = [x for x in self.SPECIAL if math.isfinite(x)]
        in_domain = [x for x in finite if 0.0 <= x < 1.0]
        data.sweep_values[: len(in_domain)] = in_domain
        data.targets[-len(finite):] = finite
        predictions = np.resize(self.SPECIAL, len(data))
        model, path, out = tmp_path / "model.json", tmp_path / "data.csv", tmp_path / "pred.csv"
        save_mlp(init_mlp(seed=3), model)
        write_dataset_csv(path, data)
        monkeypatch.setattr(cli, "forward", lambda net, features: predictions)
        monkeypatch.setattr(cli, "mean_squared_error", lambda predicted, targets: 0.0)
        assert main(["predict", "--model", str(model), "--data", str(path), "-o", str(out)]) == 0
        capsys.readouterr()
        expected = self._writer_text(
            ["sweep_var", "sweep_value", "tdd", "tdd_predicted"],
            [["q", repr(v), repr(t), repr(p)]
             for v, t, p in zip(data.sweep_values.tolist(), data.targets.tolist(), predictions.tolist())],
        )
        assert out.read_bytes() == expected.encode()

    def test_weight_summary_equals_csv_writer(self, tmp_path, monkeypatch):
        model, out = tmp_path / "model.json", tmp_path / "weights.csv"
        save_mlp(init_mlp(seed=3), model)
        summary = cli.weight_summary(init_mlp(seed=3))
        summary += [(f"input{k}", *row[:2]) for k, row in enumerate(self._special_rows(2))]
        monkeypatch.setattr(cli, "weight_summary", lambda net: summary)
        assert main(["weights", "--model", str(model), "-o", str(out)]) == 0
        expected = self._writer_text(
            ["input", "mean", "std"], [[name, repr(mean), repr(std)] for name, mean, std in summary]
        )
        assert out.read_bytes() == expected.encode()


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


#: CLI ``sweep`` flags -> SHA-256 of the written file, for sweeps evaluated
#: as one stack; recorded from the per-point loop that preceded the stack
UNPROTECTED_SWEEP_PINS = {
    "werner08-eta04-p": (
        "--family werner --param 0.8 --eta 0.4 --var p --points 21",
        "b5e47b6883b0672447d8aa3242e50ec2a3833556501de2a9aab006fe1b589fc4",
    ),
    "mems08-eta1-p-raw": (
        "--family mems --param 0.8 --eta 1 --var p --points 21",
        "5bc8aedcdb9680e8e084b0ffdbf951cc7ac058795b323fd9ff0e6e10bd486d21",
    ),
    "mems08-eta1-p": (
        "--family mems --param 0.8 --eta 1 --var p --points 21",
        "2c3c54b3d6439c77759588d2201fd848929ed6d5f74f9a8a49c4bf173e12b0a1",
    ),
    "nme-eta0-alpha2": (
        "--family nme --var alpha2 --eta 0 --p 0.37 --points 11",
        "e03e2fab46b97f4c2346e63b28826cd3453a8b368151bab59f85482cb1943dd5",
    ),
}
ALL_SWEEP_PINS = {**SWEEP_PINS, **UNPROTECTED_SWEEP_PINS}
#: pins that hash only the first 8 cells of every line (sweep_var, value
#: and the six raw measures); the raw-only layout they were recorded from
#: wrote exactly these lines
RAW_CELL_PINS = {"mems08-eta1-p-raw"}


class TestBytePins:
    """SHA-256 of CLI ``sweep -o`` files, values and formatting alike.
    The protected pins hold one-qubit rows and dead-plateau rows (r* = 0,
    C = 0); a round-off change may re-pin them only while the gate below
    holds.  The unprotected pins hold stacked p and alpha2 sweeps, whole
    files and, in ``RAW_CELL_PINS``, the raw-measure cells alone; the stack
    reproduces the per-point loop bit for bit, so they do not move."""

    @pytest.mark.parametrize("name", ALL_SWEEP_PINS)
    def test_csv_digest(self, tmp_path, name):
        argv, digest = ALL_SWEEP_PINS[name]
        path = tmp_path / "pin.csv"
        assert main(["sweep", *argv.split(), "-o", str(path)]) == 0
        data = path.read_bytes()
        if name in RAW_CELL_PINS:
            data = b"\r\n".join(b",".join(line.split(b",")[:8]) for line in data.split(b"\r\n"))
        assert hashlib.sha256(data).hexdigest() == digest

    def test_one_parser_serves_errors_help_and_a_pinned_sweep(self, tmp_path, capsys):
        # main reuses one parser per process: an argparse error or --help
        # on it must leave the later parses, and so the files, unchanged
        cli._shared_parser.cache_clear()
        assert main(["sweep", "--no-such-flag"]) == 1
        assert main(["optimize", "--q", "0.5"]) == 1
        assert "the following arguments are required: --p" in capsys.readouterr().err
        assert main(["--help"]) == 0
        assert capsys.readouterr().out.startswith("usage: qcorrkit")
        argv, digest = UNPROTECTED_SWEEP_PINS["nme-eta0-alpha2"]
        path = tmp_path / "pin.csv"
        assert main(["sweep", *argv.split(), "-o", str(path)]) == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
        assert cli._shared_parser.cache_info().misses == 1

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
            family, p, q = StateFamily(args.family, args.param), args.p, args.q
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
            expected = [values[0], *vector, *normalize(vector), r_star, out.success_probability]
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
