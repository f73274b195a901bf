import json
import os
import shlex
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest

from qcorrkit.cli import build_parser, main
from qcorrkit.dataset import CSV_HEADER, build_dataset, write_dataset_csv
from qcorrkit.mlp import init_mlp, mlp_to_json
from qcorrkit.states import StateFamily

from conftest import readme_commands, use_network


class TestSweepCommand:
    def test_writes_csv_with_stable_header(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(
            ["sweep", "--family", "bell", "--eta", "0", "--mode", "none",
             "--var", "p", "--points", "21", "--output", str(out)]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == (
            "sweep_var,value,chi,fidelity,concurrence,qs,tdd,jsd,"
            "n_chi,n_fidelity,n_concurrence,n_qs,n_tdd,n_jsd"
        )
        assert len(lines) == 22

    def test_identical_invocations_identical_bytes(self, tmp_path):
        args = ["sweep", "--family", "mems", "--param", "0.8", "--eta", "1",
                "--mode", "wm2", "--var", "q", "--points", "7"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--output", str(a)]) == 0
        assert main(args + ["--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_usage_error_exit_code(self, capsys):
        assert main(["sweep", "--var", "q", "--mode", "none"]) == 1
        assert main(["sweep", "--family", "unknown"]) == 1
        assert main(["nonsense"]) == 1


class TestOptimizeCommand:
    def test_json_record(self, tmp_path, capsys):
        out = tmp_path / "opt.json"
        code = main(
            ["optimize", "--family", "bell", "--p", "0.5", "--eta", "0",
             "--q", "0", "--mode", "wm2", "--output", str(out)]
        )
        assert code == 0
        record = json.loads(out.read_text())
        assert record["r_star"] >= 0.0
        assert record["concurrence_at_star"] >= record["r_star"] * 0.0
        # with q = 0 the reversal can only help or match the bare channel
        assert record["success_probability"] <= 1.0

    def test_trivial_point(self, tmp_path):
        out = tmp_path / "opt.json"
        main(["optimize", "--family", "bell", "--p", "0", "--eta", "0",
              "--q", "0", "--mode", "wm2", "--output", str(out)])
        record = json.loads(out.read_text())
        assert record["r_star"] == 0.0

    def test_bell_record_names_the_state_built(self, tmp_path):
        # Bell ignores --param, so the record carries the Bell value, 1.0,
        # and matches the record written without the flag
        argv = ["optimize", "--family", "bell", "--p", "0.4", "--eta", "1", "--q", "0.5"]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main([*argv, "--param", "0.3", "--output", str(a)]) == 0
        assert main([*argv, "--output", str(b)]) == 0
        assert json.loads(a.read_text())["param"] == 1.0
        assert a.read_bytes() == b.read_bytes()


class TestVerifyCommand:
    def test_default_grid_passes(self, capsys):
        code = main(["verify"])
        assert code == 0
        assert "all checks passed" in capsys.readouterr().out

    def test_impossible_tolerance_fails(self, monkeypatch, capsys):
        from qcorrkit import closed_forms

        monkeypatch.setattr(closed_forms, "_TOL", 1e-15)
        code = main(["verify", "--grid-points", "3", "--samples", "10"])
        assert code == 3
        captured = capsys.readouterr()
        assert "FAIL" in captured.out

    @pytest.mark.parametrize(
        "flag, value", [("--tol", "1"), ("--upper", "0.5"), ("--slice", "q=0,r=0")]
    )
    def test_no_flag_loosens_or_shrinks_the_suite(self, capsys, flag, value):
        # the grid and every tolerance are fixed, so a run cannot be made to pass more easily
        assert main(["verify", flag, value]) == 1
        captured = capsys.readouterr()
        assert f"unrecognized arguments: {flag} {value}" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--grid-points", "0"], "grid_points=0"),
            (["--samples", "0"], "samples=0"),
            (["--grid-points", "0", "--samples", "0"], "samples=0"),
            (["--grid-points", "-2", "--samples", "5"], "grid_points=-2"),
        ],
    )
    def test_empty_verification_is_usage_error(self, monkeypatch, capsys, flags, message):
        # an empty grid or sample set checks nothing and must not pass
        from qcorrkit import closed_forms

        def no_work(*args, **kwargs):
            raise AssertionError("the grid ran before the flags were checked")

        monkeypatch.setattr(closed_forms, "wmr_pipeline", no_work)
        assert main(["verify", *flags]) == 1
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""


class TestSeedFlag:
    @pytest.mark.parametrize("seed", ["-1", "-7", "x"])
    def test_bad_seed_is_a_usage_error_naming_the_flag(self, monkeypatch, tmp_path, capsys, seed):
        from qcorrkit import cli, closed_forms

        def no_work(*args, **kwargs):
            raise AssertionError("work ran before --seed was checked")

        monkeypatch.setattr(closed_forms, "wmr_pipeline", no_work)
        monkeypatch.setattr(cli, "build_dataset", no_work)
        model = tmp_path / "model.json"
        for argv in (["verify", "--seed", seed], ["train", "--seed", seed, "--model-out", str(model)]):
            assert main(argv) == 1
            captured = capsys.readouterr()
            assert "argument --seed: expected a non-negative integer" in captured.err
            assert captured.out == ""
        assert not model.exists()

    def test_zero_seed_is_accepted(self, capsys):
        assert main(["verify", "--seed", "0", "--grid-points", "1", "--samples", "5"]) == 0


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("train")
    model = tmp / "model.json"
    summary = tmp / "summary.csv"
    dataset = tmp / "data.csv"
    code = main(
        ["train", "--family", "bell", "--scenario", "no_wmr", "--eta", "0",
         "--rows", "120", "--restarts", "2", "--seed", "7",
         "--model-out", str(model), "--summary-out", str(summary),
         "--dataset-out", str(dataset)]
    )
    assert code == 0
    return tmp


class TestTrainPredictWeights:

    def test_model_and_summary_written(self, trained):
        doc = json.loads((trained / "model.json").read_text())
        assert doc["layer_sizes"] == [5, 40, 24, 16, 1]
        assert doc["train_report"]["mse_test"] <= 1e-3
        lines = (trained / "summary.csv").read_text().splitlines()
        assert lines[0] == "input,mean,std"
        assert len(lines) == 6
        assert (trained / "data.csv").read_text().splitlines()[0] == ",".join(CSV_HEADER)

    def test_predict_round_trip(self, trained, tmp_path, capsys):
        out = tmp_path / "pred.csv"
        code = main(
            ["predict", "--model", str(trained / "model.json"),
             "--data", str(trained / "data.csv"), "--output", str(out)]
        )
        assert code == 0
        stats = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert stats["rows"] == 120
        assert stats["mse"] <= 1e-3
        lines = out.read_text().splitlines()
        assert lines[0] == "sweep_var,sweep_value,tdd,tdd_predicted"
        assert len(lines) == 121

    def test_weights_command(self, trained, tmp_path):
        out = tmp_path / "weights.csv"
        code = main(["weights", "--model", str(trained / "model.json"),
                     "--output", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "input,mean,std"
        names = [line.split(",")[0] for line in lines[1:]]
        assert names == ["jsd", "concurrence", "fidelity", "qs", "chi"]

    def test_retrain_is_byte_identical(self, trained, tmp_path):
        model2 = tmp_path / "model2.json"
        code = main(
            ["train", "--family", "bell", "--scenario", "no_wmr", "--eta", "0",
             "--rows", "120", "--restarts", "2", "--seed", "7",
             "--model-out", str(model2)]
        )
        assert code == 0
        assert model2.read_bytes() == (trained / "model.json").read_bytes()

    def test_train_from_csv(self, trained, tmp_path, capsys):
        model = tmp_path / "model.json"
        code = main(
            ["train", "--data", str(trained / "data.csv"), "--restarts", "1",
             "--seed", "3", "--model-out", str(model)]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["mse_test"] <= 1e-3

    @pytest.mark.parametrize(
        "scenario, sweep_var, column",
        [('"x,y"', "p", "scenario"), ("wmr1", "q", "scenario"), ("no_wmr", "q", "sweep_var"),
         ("wmr2", "p", "sweep_var"), ("no_wmr", '"a,b"', "sweep_var")],
        ids=["quoted_scenario", "unknown_scenario", "no_wmr_on_q", "wmr2_on_p", "quoted_axis"],
    )
    def test_unknown_scenario_or_axis_is_usage_error(
        self, trained, tmp_path, capsys, scenario, sweep_var, column
    ):
        # the dataset writer quotes no cell, so a file carrying a scenario or
        # axis it never writes is refused before anything is trained or written
        header, *rows = (trained / "data.csv").read_text().splitlines()
        data = tmp_path / "data.csv"
        data.write_text("\n".join(
            [header, *(",".join([scenario, r.split(",")[1], sweep_var, *r.split(",")[3:]])
                       for r in rows)]
        ) + "\n")
        model, out = tmp_path / "model.json", tmp_path / "pred.csv"
        train = ["train", "--data", str(data), "--restarts", "1", "--max-epochs", "2",
                 "--model-out", str(model), "--summary-out", str(tmp_path / "summary.csv")]
        predict = ["predict", "--model", str(trained / "model.json"), "--data", str(data),
                   "-o", str(out)]
        assert main(train) == 1 and main(predict) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count(f"row 2, column '{column}'") == 2
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data.csv"]

    @pytest.mark.parametrize(
        "rows, column, cell, message",
        [(slice(None), 1, "7.5", "row 2, column 'eta': eta=7.5 outside [0, 1]"),
         (slice(3, 4), 3, "-4.0", "row 5, column 'sweep_value': p=-4.0 outside [0, 1]")],
        ids=["eta", "sweep_value"],
    )
    def test_value_outside_its_domain_is_usage_error(self, trained, tmp_path, capsys,
                                                     rows, column, cell, message):
        # eta is edited on every row, so that the rows still agree
        header, *lines = (trained / "data.csv").read_text().splitlines()
        cells = [line.split(",") for line in lines]
        for row in cells[rows]:
            row[column] = cell
        data = tmp_path / "data.csv"
        data.write_text("\n".join([header, *map(",".join, cells)]) + "\n")
        model, out = tmp_path / "model.json", tmp_path / "pred.csv"
        train = ["train", "--data", str(data), "--restarts", "1", "--max-epochs", "2",
                 "--model-out", str(model), "--summary-out", str(tmp_path / "summary.csv")]
        predict = ["predict", "--model", str(trained / "model.json"), "--data", str(data),
                   "-o", str(out)]
        assert main(train) == 1 and main(predict) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {data}: {message}\n" * 2
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data.csv"]

    def test_missing_model_is_usage_error(self, tmp_path):
        assert main(["weights", "--model", str(tmp_path / "nope.json")]) == 1

    @pytest.mark.parametrize(
        "edit",
        [
            lambda doc: {**doc, "weights": doc["weights"][:-1]},
            lambda doc: {**doc, "activations": ["relu", *doc["activations"][1:]]},
            lambda doc: {k: v for k, v in doc.items() if k != "seed"},
            # 5x40 holds as many numbers as 40x5: the shape, not the count, is wrong
            lambda doc: {**doc, "weights": [np.transpose(doc["weights"][0]).tolist(),
                                            *doc["weights"][1:]]},
            lambda doc: {**doc, "layer_sizes": [1], "activations": [], "weights": [],
                         "biases": [], "input_scaling": {"min": [0.0], "max": [1.0]}},
        ],
        ids=["weight_layer_dropped", "unknown_activation", "seed_missing",
             "first_layer_transposed", "no_weight_layer"],
    )
    def test_malformed_model_is_usage_error(self, trained, tmp_path, capsys, edit):
        model = tmp_path / "bad.json"
        model.write_text(json.dumps(edit(json.loads((trained / "model.json").read_text()))))
        predict = ["predict", "--model", str(model), "--data", str(trained / "data.csv"),
                   "--output", str(tmp_path / "pred.csv")]
        assert main(predict) == 1
        assert main(["weights", "--model", str(model), "--output", str(tmp_path / "w.csv")]) == 1
        assert capsys.readouterr().err.count("error:") == 2

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda doc: doc["weights"][1][0].__setitem__(3, float("nan")), "must be finite"),
            (lambda doc: doc["biases"][0].__setitem__(0, float("inf")), "must be finite"),
            (lambda doc: doc["input_scaling"]["max"].__setitem__(2, float("-inf")),
             "must be finite"),
            (lambda doc: doc["layer_sizes"].__setitem__(2, 24.5), "layer_sizes must be integers"),
            (lambda doc: doc["layer_sizes"].__setitem__(0, "5"), "layer_sizes must be integers"),
            (lambda doc: doc["input_scaling"]["max"].__setitem__(
                1, doc["input_scaling"]["min"][1]), "needs max above min"),
            (lambda doc: doc.__setitem__("train_report", 7), "train_report must be an object"),
        ],
        ids=["nan_weight", "inf_bias", "inf_anchor", "fractional_size", "string_size",
             "zero_width_anchor", "report_not_object"],
    )
    def test_unreadable_model_writes_nothing(self, trained, tmp_path, capsys, recwarn,
                                             edit, message):
        # each of these once loaded: weights wrote nan rows or predict warned
        # from the scaler; the reader now refuses them before any output
        doc = json.loads((trained / "model.json").read_text())
        edit(doc)
        model = tmp_path / "bad.json"
        model.write_text(json.dumps(doc))
        pred, weights = tmp_path / "pred.csv", tmp_path / "w.csv"
        assert main(["predict", "--model", str(model), "--data", str(trained / "data.csv"),
                     "--output", str(pred)]) == 1
        assert main(["weights", "--model", str(model), "--output", str(weights)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count(message) == 2
        assert captured.err.count("\n") == 2  # one error line per command, no warning
        assert not recwarn.list
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.json"]

    @pytest.mark.parametrize(
        "sizes, message",
        [((5, 3, 2), "got layer_sizes [5, 3, 2]"),
         ((3, 4, 1), "got layer_sizes [3, 4, 1]")],
        ids=["two_outputs", "three_inputs"],
    )
    def test_model_of_another_shape_is_usage_error(self, tmp_path, capsys, monkeypatch,
                                                   sizes, message):
        # a model that is well formed in itself but is not the paper's network
        # is refused when it is read, before a dataset is read or a file written
        with monkeypatch.context() as patch:
            use_network(patch, (*sizes[:-1], 1), ("logsig", "linear"))
            doc = json.loads(mlp_to_json(init_mlp(seed=3)))
        doc["layer_sizes"] = list(sizes)
        doc["weights"][-1] *= sizes[-1]  # the output layer's row, once per output
        doc["biases"][-1] *= sizes[-1]
        model, data = tmp_path / "model.json", tmp_path / "data.csv"
        model.write_text(json.dumps(doc))
        write_dataset_csv(data, build_dataset(StateFamily("bell"), "no_wmr", 0.0, points=50))
        out = tmp_path / "pred.csv"
        assert main(["predict", "--model", str(model), "--data", str(data), "-o", str(out)]) == 1
        assert main(["weights", "--model", str(model), "-o", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.count("must be the 5-40-24-16-1 network") == 2
        assert captured.err.count(message) == 2
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("epochs", ["0", "-3"])
    def test_no_epochs_is_usage_error(self, tmp_path, capsys, epochs):
        model = tmp_path / "model.json"
        code = main(
            ["train", "--rows", "50", "--restarts", "1", "--max-epochs", epochs,
             "--model-out", str(model)]
        )
        assert code == 1
        assert f"max_epochs={epochs}" in capsys.readouterr().err
        assert not model.exists()

    def test_failed_train_writes_no_dataset(self, tmp_path, capsys):
        model, dataset = tmp_path / "model.json", tmp_path / "data.csv"
        code = main(
            ["train", "--rows", "50", "--restarts", "1", "--max-epochs", "0",
             "--model-out", str(model), "--dataset-out", str(dataset)]
        )
        assert code == 1
        assert "max_epochs=0" in capsys.readouterr().err
        assert not model.exists() and not dataset.exists()

    @pytest.mark.parametrize("unwritable", ["--model-out", "--summary-out"])
    def test_failed_write_leaves_no_output(self, tmp_path, capsys, unwritable):
        # the outputs written before the one that fails are removed again
        outputs = {"--dataset-out": tmp_path / "data.csv", "--model-out": tmp_path / "model.json",
                   "--summary-out": tmp_path / "summary.csv"}
        outputs[unwritable] = tmp_path / "nodir" / "out"
        code = main(["train", "--rows", "60", "--restarts", "1", "--max-epochs", "2",
                     *(word for flag, path in outputs.items() for word in (flag, str(path)))])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert "No such file or directory" in captured.err
        assert list(tmp_path.iterdir()) == []

    def test_data_with_dataset_out_is_usage_error(self, trained, tmp_path, capsys):
        # a loaded dataset is never written back, so asking for both is refused
        # before anything is trained or written
        model, copy = tmp_path / "model.json", tmp_path / "copy.csv"
        code = main(
            ["train", "--data", str(trained / "data.csv"), "--dataset-out", str(copy),
             "--restarts", "1", "--max-epochs", "2", "--model-out", str(model)]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "--data" in err and "--dataset-out" in err
        assert not model.exists() and not copy.exists()


class TestExitCodeContract:
    def test_numerical_contract_failures_exit_2(self, monkeypatch, capsys):
        from qcorrkit import cli
        from qcorrkit.exceptions import NumericalContractError

        def boom(*args, **kwargs):
            raise NumericalContractError("synthetic contract violation")

        monkeypatch.setattr(cli, "optimal_qmr", boom)
        code = cli.main(["optimize", "--family", "bell", "--p", "0.5", "--q", "0.1"])
        assert code == 2
        assert "contract" in capsys.readouterr().err

    def test_contract_failure_on_a_stacked_sweep_exits_2(self, monkeypatch, tmp_path, capsys):
        # the channel's six numbers of one point get a coherence beyond
        # positivity, so an eigenvalue of that state is negative and the
        # stack's one x log2 x pass in x_correlation_vector refuses the sweep
        from qcorrkit import sweep

        x_damped = sweep._x_damped

        def skewed(x, p, eta, sqrt):
            a, b, c, d, z, w = x_damped(x, p, eta, sqrt)
            return a, b, c, d, z + (np.arange(z.size) == 3), w

        monkeypatch.setattr(sweep, "_x_damped", skewed)
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--family", "bell", "--var", "p", "--points", "9", "-o", str(out)])
        assert code == 2
        assert "entropy argument" in capsys.readouterr().err
        assert not out.exists()

    @staticmethod
    def _overflowing_dataset(tmp_path):
        # 1e300 is finite, so the reader accepts it, but its square is not
        data = build_dataset(StateFamily("bell"), "no_wmr", 0.0, points=60)
        data.targets[:] = 1e300
        path = tmp_path / "big.csv"
        write_dataset_csv(path, data)
        return path

    def test_training_failure_exits_4(self, tmp_path, capsys):
        # every restart's loss is non-finite and restart_search gives up,
        # quietly: an overflow warning would be an error here
        path = self._overflowing_dataset(tmp_path)
        model = tmp_path / "model.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(
                ["train", "--data", str(path), "--restarts", "1", "--max-epochs", "2",
                 "--model-out", str(model)]
            )
        assert code == 4
        err = capsys.readouterr().err
        assert err.startswith("error:") and "non-finite" in err
        assert "Traceback" not in err and "RuntimeWarning" not in err
        assert not model.exists()

    def test_overflowing_prediction_mse_exits_2(self, trained, tmp_path, capsys):
        path = self._overflowing_dataset(tmp_path)
        out = tmp_path / "pred.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(
                ["predict", "--model", str(trained / "model.json"), "--data", str(path),
                 "--output", str(out)]
            )
        assert code == 2
        captured = capsys.readouterr()
        assert "MSE is not finite" in captured.err
        assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("flag", ["--p", "--par"])
def test_a_flag_counts_only_in_full(tmp_path, capsys, flag):
    # train has no --p: neither it nor any other prefix stands for --param
    model = tmp_path / "model.json"
    assert main(["train", flag, "0.5", "--rows", "50", "--model-out", str(model)]) == 1
    captured = capsys.readouterr()
    assert captured.err.endswith(f"error: unrecognized arguments: {flag} 0.5\n")
    assert captured.out == "" and not model.exists()


def test_readme_commands_parse():
    # parsed only, not run: a flag the docs name after it is gone fails here
    commands = readme_commands()
    assert len(commands) >= 8
    parser = build_parser()
    for command in commands:
        try:
            parser.parse_args(shlex.split(command)[1:])
        except SystemExit as exc:
            pytest.fail(f"README command does not parse (exit {exc.code}): {command}")


#: run in a fresh interpreter; prints, after each stage, the scipy, multiprocessing
#: and concurrent.futures modules loaded so far
_SCIPY_PROBE = textwrap.dedent("""
    import json, sys
    import numpy as np
    import qcorrkit, qcorrkit.cli
    from qcorrkit import mlp, oracles, states

    out = sys.argv[1]
    model, data = out + ".model.json", out + ".data.csv"
    loaded = {}

    def stage(name, code=0):
        assert code == 0, (name, code)
        loaded[name] = sorted(m for m in sys.modules
                              if m.startswith(("scipy", "multiprocessing", "concurrent")))

    stage("import")
    main = qcorrkit.cli.main
    stage("sweep", main(["sweep", "--family", "bell", "--var", "p", "--points", "5", "-o", out]))
    stage("sweep wm2", main(["sweep", "--family", "mems", "--param", "0.8", "--mode", "wm2",
                             "--var", "q", "--points", "5", "-o", out]))
    stage("optimize", main(["optimize", "--family", "bell", "--p", "0.5", "--q", "0.3", "-o", out]))
    mlp.save_mlp(mlp.init_mlp(seed=1), out)
    stage("weights", main(["weights", "--model", out, "-o", out]))
    oracles.tdd_measurement_oracle(states.make_state(states.StateFamily("bell")))
    stage("discord oracle")
    stage("verify", main(["verify", "--grid-points", "2", "--samples", "10"]))
    mlp.forward(mlp.init_mlp(seed=1), np.zeros(5))
    stage("forward")
    stage("train", main(["train", "--rows", "50", "--restarts", "1", "--max-epochs", "3",
                         "--model-out", model, "--dataset-out", data]))
    stage("predict", main(["predict", "--model", model, "--data", data, "-o", out]))
    print(json.dumps(loaded))
""")


def test_no_command_loads_scipy(tmp_path):
    # scipy is a test dependency only: no command, the network or the
    # discord oracle may load any of it.  Nor may they load the process
    # pool's modules, which only a restart search with a second restart and
    # a second core imports: the probe's train has one restart, which
    # trains in-process, as the benchmark's warm-up does
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(__file__).resolve().parents[1] / "src"), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, "-c", _SCIPY_PROBE, str(tmp_path / "out")],
        env=env, capture_output=True, text=True, check=True,
    )
    loaded = json.loads(done.stdout.splitlines()[-1])
    stages = ("import", "sweep", "sweep wm2", "optimize", "weights", "discord oracle", "verify",
              "forward", "train", "predict")
    assert list(loaded) == list(stages)
    for name in stages:
        assert loaded[name] == [], f"{name} loaded {loaded[name]}"
