from qcorrkit import channels, verification
from qcorrkit.verification import full_verification

REDUCTION = "eta=0 reduces to uncorrelated damping"


def test_wrong_uncorrelated_channel_fails_the_reduction_check(monkeypatch):
    # a valid channel with the wrong rate, swapped in wherever the code
    # under test reaches apply_ad_uncorrelated; apply_cad returns it at
    # eta = 0, so only an independent reference can tell
    original = channels.apply_ad_uncorrelated

    def half_damping(rho, p):
        return original(rho, p / 2.0)

    monkeypatch.setattr(channels, "apply_ad_uncorrelated", half_damping)
    monkeypatch.setattr(verification, "apply_ad_uncorrelated", half_damping)
    report = full_verification(grid_points=1, samples=5, oracle_samples=1)
    (check,) = [c for c in report.checks if c.name == REDUCTION]
    assert not check.passed

