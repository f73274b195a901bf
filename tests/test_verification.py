import hashlib

import numpy as np
import pytest

from qcorrkit import channels, verification
from qcorrkit.cli import build_parser, main
from qcorrkit.verification import full_verification

REDUCTION = "eta=0 reduces to uncorrelated damping"


def verify_report(**overrides):
    """``full_verification`` with the arguments ``qcorrkit verify`` passes it.

    The defaults are read from the command's flags, so these tests pin
    what the command runs; ``overrides`` replace single arguments.
    """
    args = vars(build_parser().parse_args(["verify"]))
    kwargs = {k: args[k] for k in ("grid_points", "seed", "samples")}
    return full_verification(**{**kwargs, **overrides})


def test_wrong_uncorrelated_channel_fails_the_reduction_check(monkeypatch):
    # a valid channel with the wrong rate, swapped in wherever verify calls
    # apply_cad; at eta = 0 only the independent reference can tell
    original = channels.apply_cad

    def half_damping(rho, ch):
        return original(rho, channels.ChannelParams(ch.p / 2.0, ch.eta))

    monkeypatch.setattr(verification, "apply_cad", half_damping)
    report = verify_report(grid_points=1, samples=5)
    (check,) = [c for c in report.checks if c.name == REDUCTION]
    assert not check.passed


def test_nan_channel_output_fails(monkeypatch):
    # a NaN coherence in the channel output: every check that looks at it
    # must fail, not pass silently; trace preservation reads only the diagonal
    original = channels.apply_cad

    def nan_coherence(rho, ch):
        out = original(rho, ch)
        out[..., 0, 3] = np.nan
        return out

    monkeypatch.setattr(verification, "apply_cad", nan_coherence)
    report = verify_report(grid_points=1, samples=5)
    failed = {c.name for c in report.checks if not c.passed}
    assert failed == {
        "channel positivity",
        REDUCTION,
        "pipeline with q=r=0 equals bare channel",
        "full decay lands on the ground state",
        "memory never hurts Bell concurrence",
    }
    assert all(np.isnan(c.max_deviation) for c in report.checks if c.name in failed)


def test_all_nan_channel_output_fails_instead_of_crashing(monkeypatch, capsys):
    # NaN entries below the diagonal stop the positivity eigensolve; the
    # checks must still report them as failures (exit 3), not crash (exit 1).
    # Every check that reads verify's own channel output fails; the X-form
    # closure reads wmr_pipeline's, which keeps the real channel
    original = channels.apply_cad
    monkeypatch.setattr(verification, "apply_cad", lambda rho, ch: original(rho, ch) * np.nan)
    report = verify_report(grid_points=1, samples=5)
    failed = {c.name for c in report.checks if not c.passed}
    assert failed == {
        "channel trace preservation",
        "channel positivity",
        REDUCTION,
        "pipeline with q=r=0 equals bare channel",
        "full decay lands on the ground state",
        "memory never hurts Bell concurrence",
    }
    assert main(["verify", "--grid-points", "1", "--samples", "5"]) == 3
    assert "Eigenvalues did not converge" not in capsys.readouterr().err


#: arguments that differ from the verify command's defaults -> SHA-256 of the report summary text
SUMMARY_SHA256 = [
    ({}, "4cce71d5e481b4fb10ddd5216375063e82be3405ad7f698dc651c2ba5f17c313"),
    ({"grid_points": 3}, "ed8b40f7947cb63b1b2d1972e0f43857a27b39c53ef46365030b4009b91a4a0c"),
    ({"grid_points": 4, "seed": 7, "samples": 30},
     "602e3c508eadf34cb2bc7c1e08e3b33d5c1479601934be89a0b071899536ebd4"),
]


@pytest.mark.parametrize("kwargs, digest", SUMMARY_SHA256)
def test_summary_bytes_are_pinned(kwargs, digest):
    """The report text, deviations and worst cases included, to the byte."""
    summary = verify_report(**kwargs).summary()
    assert hashlib.sha256(summary.encode()).hexdigest() == digest


_ZERO, _ULP = "0x0.0p+0", "0x1.0000000000000p-52"

#: the argument sets of ``SUMMARY_SHA256`` -> every check's ``max_deviation.hex()``,
#: in report order; the summary rounds deviations to 4 digits, so only these
#: pins catch a move of the last bit
DEVIATION_HEX = [
    ({}, (
        "0x1.f000000000000p-50", "0x1.c000000000000p-50", "0x1.8000000000000p-52",
        "0x1.2000000000000p-50", _ULP, "0x1.4e35660000000p-28", "0x1.8000000000000p-52",
        "0x1.4000000000000p-52", "0x1.8000000000000p-52", _ZERO, _ULP, _ZERO, _ZERO, _ULP,
        _ZERO, "0x1.b740000000000p-40",
    )),
    ({"grid_points": 3}, (
        "0x1.f000000000000p-50", "0x1.6000000000000p-50", "0x1.8000000000000p-52",
        "0x1.2000000000000p-50", _ULP, "0x1.4e35660000000p-28", "0x1.8000000000000p-52",
        "0x1.4000000000000p-52", "0x1.8000000000000p-52", _ZERO, _ULP, _ZERO, _ZERO, _ULP,
        _ZERO, "0x1.b740000000000p-40",
    )),
    ({"grid_points": 4, "seed": 7, "samples": 30}, (
        "0x1.6000000000000p-50", "0x1.2000000000000p-50", _ULP,
        "0x1.2000000000000p-51", _ULP, "0x1.ae89f98000000p-28", _ULP,
        _ULP, "0x1.8000000000000p-52", _ZERO, _ULP, _ZERO, _ZERO, _ULP,
        _ZERO, "0x1.b370000000000p-40",
    )),
]


def test_deviation_pins_cover_the_summary_pins():
    assert [kwargs for kwargs, _ in DEVIATION_HEX] == [kwargs for kwargs, _ in SUMMARY_SHA256]


@pytest.mark.parametrize("kwargs, pinned", DEVIATION_HEX)
def test_raw_deviations_are_pinned(kwargs, pinned):
    report = verify_report(**kwargs)
    assert tuple(c.max_deviation.hex() for c in report.checks) == pinned
