"""Wrong input fails loudly: a parameter outside its unit interval, and a
mutated model file, each exit 1 and write nothing.

Every parameter goes through one check, ``exceptions._unit_interval``:
p, eta and the state-family parameters lie in [0, 1], the strengths q
and r in [0, 1).  Each entry point is tried on NaN, ±inf, the negative
subnormal -5e-324, both ends and the next double above 1, and must raise
``name=value outside [0, 1]`` (or ``[0, 1)``) or accept the value.

Hypothesis mutates a saved model of the paper's network, one change per
example: a layer size, an activation, the shape of a weight, bias or
anchor array, a required key renamed or dropped, a number made NaN, ±inf
or an integer beyond the range of a double, or a number swapped for a
string.  For every mutant ``predict`` and
``weights`` exit 1, print one ``error:`` line and no warning or
traceback, and write no file; the unmutated file exits 0.  The training
report is optional and free-form, so its contents are not mutated.
"""

import contextlib
import io
import json
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qcorrkit.channels import (
    ChannelParams,
    WmrMode,
    WmrParams,
    apply_ad_uncorrelated,
    apply_qmr,
    apply_wm,
)
from qcorrkit.cli import main
from qcorrkit.dataset import build_dataset, write_dataset_csv
from qcorrkit.mlp import init_mlp, mlp_to_json, set_input_scaling
from qcorrkit.states import FAMILY_DEFAULTS, StateFamily, bell_state, mems_state, nme_state, werner_state
from qcorrkit.sweep import SweepConfig

DATA = build_dataset(StateFamily("bell"), "no_wmr", 0.0, points=50)


def _paper_model() -> str:
    net = init_mlp(seed=5)
    set_input_scaling(net, DATA.features)
    net.train_report = {"mse_test": 1e-4, "stop_reason": "gradient"}
    return mlp_to_json(net)


MODEL = _paper_model()
_DOC = json.loads(MODEL)
#: every number of the model proper, as a path of keys and indices into the
#: document, by field, so that the one seed is drawn as often as a weight
NUMBER_PATHS = {
    "layer_sizes": [("layer_sizes", i) for i in range(len(_DOC["layer_sizes"]))],
    "seed": [("seed",)],
    "weights": [("weights", k, r, c) for k, w in enumerate(_DOC["weights"])
                for r in range(len(w)) for c in range(len(w[0]))],
    "biases": [("biases", k, r) for k, b in enumerate(_DOC["biases"]) for r in range(len(b))],
    "input_scaling": [("input_scaling", side, i) for side in ("min", "max")
                      for i in range(len(_DOC["input_scaling"][side]))],
}
#: every key the reader requires, as a path
REQUIRED_KEYS = [(k,) for k in _DOC if k != "train_report"] + [
    ("input_scaling", "min"), ("input_scaling", "max")
]
#: every array whose shape the reader checks, as a path
ARRAYS = (
    [("weights", k) for k in range(len(_DOC["weights"]))]
    + [("biases", k) for k in range(len(_DOC["biases"]))]
    + [("input_scaling", "min"), ("input_scaling", "max")]
)


def _parent(doc, path):
    for key in path[:-1]:
        doc = doc[key]
    return doc


def _get(doc, path):
    return _parent(doc, path)[path[-1]]


def _set(doc, path, value):
    _parent(doc, path)[path[-1]] = value


@st.composite
def mutants(draw):
    """(what was changed, the mutated document's text)."""
    doc = json.loads(MODEL)
    kind = draw(st.sampled_from(
        ["layer_size", "activation", "shape", "key", "non_finite", "string"]
    ))
    if kind == "layer_size":
        sizes = doc["layer_sizes"]
        op = draw(st.sampled_from(["set", "drop", "append"]))
        i = draw(st.integers(0, len(sizes) - 1))
        if op == "set":
            old = sizes[i]
            sizes[i] = draw(st.one_of(
                st.integers(-1, 100).filter(lambda n: n != old), st.just(float(old)), st.just(True)
            ))
        elif op == "drop":
            del sizes[i]
        else:
            sizes.insert(i, draw(st.integers(1, 50)))
        what = f"layer_sizes {op} at {i}: {sizes}"
    elif kind == "activation":
        acts = doc["activations"]
        i = draw(st.integers(0, len(acts) - 1))
        if draw(st.booleans()):
            old = acts[i]
            acts[i] = draw(st.sampled_from(["logsig", "tansig", "linear", "relu", "", 1, None])
                           .filter(lambda a: a != old))
        else:
            del acts[i]
        what = f"activations {acts}"
    elif kind == "shape":
        path = draw(st.sampled_from(ARRAYS))
        array = _get(doc, path)
        ops = ["drop", "duplicate", "wrap", "drop_layer", "add_layer"]
        if path[0] == "weights":
            ops += ["transpose", "drop_column", "ragged"]
        op = draw(st.sampled_from(ops))
        if op == "drop":
            del array[-1]
        elif op == "duplicate":
            array.append(array[-1])
        elif op == "wrap":
            _set(doc, path, [array])
        elif op == "drop_layer":
            del _parent(doc, path)[path[-1]]
        elif op == "add_layer":
            parent = _parent(doc, path)
            if isinstance(parent, list):
                parent.append(array)
            else:  # an anchor side: one anchor more on both sides
                for side in parent.values():
                    side.append(side[-1] + 1.0)
        elif op == "transpose":
            _set(doc, path, [list(col) for col in zip(*array)])
        elif op == "drop_column":
            for row in array:
                del row[-1]
        else:
            del array[draw(st.integers(0, len(array) - 1))][-1]
        what = f"{op} {path}"
    elif kind == "key":
        path = draw(st.sampled_from(REQUIRED_KEYS))
        parent, value = _parent(doc, path), _get(doc, path)
        del parent[path[-1]]
        if draw(st.booleans()):
            parent[path[-1] + "_"] = value
        what = f"key {path}"
    else:
        path = draw(st.sampled_from(NUMBER_PATHS[draw(st.sampled_from(list(NUMBER_PATHS)))]))
        old = _get(doc, path)
        if kind == "non_finite":  # or, for a weight, bias or anchor, an integer beyond a double
            huge = [] if path[0] in ("layer_sizes", "seed") else [-(10**400)]
            new = draw(st.sampled_from([float("nan"), float("inf"), float("-inf"), *huge]))
        else:
            new = draw(st.sampled_from([repr(old), "x"]))
        _set(doc, path, new)
        what = f"{path}: {old!r} -> {new!r}"
    return what, json.dumps(doc)


def _run(argv):
    """``main(argv)``: its exit code, stdout, stderr and the warnings it raised."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(argv)
    return code, out.getvalue(), err.getvalue(), [str(w.message) for w in caught]


def _commands(model: Path, data: Path, out: Path):
    return [
        ["predict", "--model", str(model), "--data", str(data), "-o", str(out / "pred.csv")],
        ["weights", "--model", str(model), "-o", str(out / "weights.csv")],
    ]


@pytest.fixture(scope="module")
def data_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("contract") / "data.csv"
    write_dataset_csv(path, DATA)
    return path


def test_the_saved_model_is_read(data_csv, tmp_path):
    model = tmp_path / "model.json"
    model.write_text(MODEL)
    for argv in _commands(model, data_csv, tmp_path):
        code, _, err, caught = _run(argv)
        assert (code, err, caught) == (0, "", [])
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model.json", "pred.csv", "weights.csv"]


@given(mutants())
def test_a_mutated_model_exits_1_and_writes_nothing(data_csv, mutant):
    what, text = mutant
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        model = tmp / "model.json"
        model.write_text(text)
        for argv in _commands(model, data_csv, tmp):
            code, out, err, caught = _run(argv)
            assert code == 1, (what, argv[0], err)
            assert out == "" and caught == [], (what, argv[0], out, caught)
            assert err.startswith("error: ") and err.count("\n") == 1, (what, argv[0], err)
        assert [p.name for p in tmp.iterdir()] == ["model.json"], what


BELL = bell_state()
#: every entry point of the unit-interval rule: (parameter name, closed, call);
#: werner_state and mems_state build one state, so their array is 0-d, while
#: nme_state stacks, so its array holds the value between two valid entries
ENTRY_POINTS = {
    **{f"StateFamily-{kind}": ("param", True, lambda v, kind=kind: StateFamily(kind, v))
       for kind in FAMILY_DEFAULTS},
    "werner_state": ("r_b", True, werner_state),
    "werner_state-array": ("r_b", True, lambda v: werner_state(np.array(v))),
    "mems_state": ("gamma", True, mems_state),
    "mems_state-array": ("gamma", True, lambda v: mems_state(np.array(v))),
    "nme_state": ("alpha2", True, nme_state),
    "nme_state-array": ("alpha2", True, lambda v: nme_state(np.array([0.5, v, 0.25]))),
    "ChannelParams-p": ("p", True, lambda v: ChannelParams(v, 0.0)),
    "ChannelParams-eta": ("eta", True, lambda v: ChannelParams(0.5, v)),
    "apply_ad_uncorrelated": ("p", True, lambda v: apply_ad_uncorrelated(BELL, v)),
    "WmrParams-q": ("q", False, lambda v: WmrParams(v, 0.0)),
    "WmrParams-r": ("r", False, lambda v: WmrParams(0.0, v)),
    "apply_wm": ("q", False, lambda v: apply_wm(BELL, v, WmrMode.TWO_QUBIT)),
    "apply_qmr": ("r", False, lambda v: apply_qmr(BELL, v, WmrMode.ONE_QUBIT)),
    "SweepConfig-eta": ("eta", True, lambda v: SweepConfig(StateFamily("bell"), eta=v)),
    "SweepConfig-p": ("p", True, lambda v: SweepConfig(StateFamily("bell"), p_fixed=v)),
    "SweepConfig-q": ("q", False, lambda v: SweepConfig(StateFamily("bell"), q_fixed=v)),
}
EDGE_VALUES = [float("nan"), float("inf"), float("-inf"), -5e-324, 0.0, 1.0, 1.0 + 2.0**-52]


@pytest.mark.parametrize("value", EDGE_VALUES, ids=repr)
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_every_parameter_goes_through_the_one_unit_interval_rule(entry, value):
    name, closed, call = ENTRY_POINTS[entry]
    if 0.0 <= value < 1.0 or (closed and value == 1.0):
        call(value)
        return
    with pytest.raises(ValueError) as excinfo:
        call(value)
    assert str(excinfo.value) == f"{name}={value} outside [0, 1{']' if closed else ')'}"


@pytest.mark.parametrize(
    "argv, message",
    [(["sweep", "--eta", "1.5", "--points", "3"], "eta=1.5 outside [0, 1]"),
     (["optimize", "--p", "0.5", "--q", "1"], "q=1.0 outside [0, 1)"),
     (["train", "--param", "nan", "--rows", "50", "--restarts", "1"], "param=nan outside [0, 1]")],
    ids=["sweep-eta", "optimize-q", "train-param"],
)
def test_a_parameter_outside_its_interval_is_a_usage_error(tmp_path, argv, message):
    out = tmp_path / "out"
    flag = "--model-out" if argv[0] == "train" else "-o"
    code, stdout, err, caught = _run([*argv, flag, str(out)])
    assert (code, stdout, err, caught) == (1, "", f"error: {message}\n", [])
    assert not out.exists()
