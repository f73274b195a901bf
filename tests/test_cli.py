import json

import pytest

from qcorrkit.cli import main
from qcorrkit.dataset import CSV_HEADER, build_dataset, write_dataset_csv
from qcorrkit.states import StateFamily


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


class TestVerifyCommand:
    def test_default_grid_passes(self, capsys):
        code = main(["verify"])
        assert code == 0
        assert "all checks passed" in capsys.readouterr().out

    def test_measurement_free_slice_passes(self, capsys):
        code = main(["verify", "--grid-points", "3", "--samples", "30", "--slice", "q=0,r=0"])
        assert code == 0
        assert "all checks passed" in capsys.readouterr().out

    def test_impossible_tolerance_fails(self, capsys):
        code = main(["verify", "--grid-points", "3", "--samples", "10", "--tol", "1e-15"])
        assert code == 3
        captured = capsys.readouterr()
        assert "FAIL" in captured.out

    def test_bad_slice_is_usage_error(self):
        assert main(["verify", "--slice", "bogus"]) == 1

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--grid-points", "0"], "grid_points=0"),
            (["--samples", "0"], "samples=0"),
            (["--grid-points", "0", "--samples", "0"], "samples=0"),
            (["--grid-points", "-2", "--samples", "5"], "grid_points=-2"),
        ],
    )
    def test_empty_verification_is_usage_error(self, capsys, flags, message):
        # an empty grid or sample set checks nothing and must not pass
        assert main(["verify", *flags]) == 1
        captured = capsys.readouterr()
        assert message in captured.err
        assert "PASS" not in captured.out


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

    def test_missing_model_is_usage_error(self, tmp_path):
        assert main(["weights", "--model", str(tmp_path / "nope.json")]) == 1

    @pytest.mark.parametrize(
        "edit",
        [
            lambda doc: {**doc, "weights": doc["weights"][:-1]},
            lambda doc: {**doc, "activations": ["relu", *doc["activations"][1:]]},
            lambda doc: {k: v for k, v in doc.items() if k != "seed"},
        ],
        ids=["weight_layer_dropped", "unknown_activation", "seed_missing"],
    )
    def test_malformed_model_is_usage_error(self, trained, tmp_path, capsys, edit):
        model = tmp_path / "bad.json"
        model.write_text(json.dumps(edit(json.loads((trained / "model.json").read_text()))))
        predict = ["predict", "--model", str(model), "--data", str(trained / "data.csv"),
                   "--output", str(tmp_path / "pred.csv")]
        assert main(predict) == 1
        assert main(["weights", "--model", str(model), "--output", str(tmp_path / "w.csv")]) == 1
        assert capsys.readouterr().err.count("error:") == 2

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

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_training_failure_exits_4(self, tmp_path, capsys):
        # 1e300 is finite, so the reader accepts it, but its square is not:
        # every restart's loss is non-finite and restart_search gives up
        data = build_dataset(StateFamily("bell"), "no_wmr", 0.0, points=60)
        data.targets[:] = 1e300
        path = tmp_path / "big.csv"
        write_dataset_csv(path, data)
        model = tmp_path / "model.json"
        code = main(
            ["train", "--data", str(path), "--restarts", "1", "--max-epochs", "2",
             "--model-out", str(model)]
        )
        assert code == 4
        err = capsys.readouterr().err
        assert err.startswith("error:") and "non-finite" in err
        assert "Traceback" not in err
        assert not model.exists()
