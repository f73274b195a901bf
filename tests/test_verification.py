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
    # a valid channel with the wrong rate, swapped in wherever the code
    # under test reaches apply_ad_uncorrelated; apply_cad returns it at
    # eta = 0, so only an independent reference can tell
    original = channels.apply_ad_uncorrelated

    def half_damping(rho, p):
        return original(rho, p / 2.0)

    monkeypatch.setattr(channels, "apply_ad_uncorrelated", half_damping)
    monkeypatch.setattr(verification, "apply_ad_uncorrelated", half_damping)
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
    # checks must still report them as failures (exit 3), not crash (exit 1)
    original = channels.apply_ad_uncorrelated
    monkeypatch.setattr(verification, "apply_ad_uncorrelated", lambda rho, p: original(rho, p) * np.nan)
    report = verify_report(grid_points=1, samples=5)
    failed = {c.name for c in report.checks if not c.passed}
    assert failed == {"channel trace preservation", "channel positivity"}
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
