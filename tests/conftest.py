import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from qcorrkit import mlp
from qcorrkit.channels import WmrMode

# every run draws the same examples and keeps no example database on disk;
# max_examples stays hypothesis's default, which the tests override per test
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


def pytest_configure(config):
    # even with no database, hypothesis caches the constants it reads from
    # the package's source in its home directory, ./.hypothesis by default,
    # and does so while collecting: give it a directory this run removes
    home = tempfile.TemporaryDirectory(prefix="hypothesis-")
    config.add_cleanup(home.cleanup)
    set_hypothesis_home_dir(home.name)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_unitary(rng, dim=2):
    """Haar-ish unitary from the QR decomposition of a Ginibre matrix."""
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def closed_form_u_star(sigma: np.ndarray, mode: WmrMode) -> float:
    """Stationary point u* = 1 - r* of the reversal, clipped to [1e-6, 1].

    ``sigma`` is the X state after weak measurement and channel:
    u* = sqrt(s44 / s11) for two qubits, (s22 + s44) / (s11 + s33) for one.
    """
    s11, s22, s33, s44 = sigma.diagonal().real
    if mode is WmrMode.TWO_QUBIT:
        u = np.sqrt(s44 / s11)
    else:
        u = (s22 + s44) / (s11 + s33)
    return min(max(u, 1e-6), 1.0)


def closed_form_optimum(sigma: np.ndarray, mode: WmrMode) -> float:
    """Best pipeline concurrence over the reversal strength, in closed form.

    ``sigma`` is the X state after weak measurement and channel.  With
    u = 1 - r in [1e-6, 1] the reversal rescales it so that both
    concurrence branches carry one common factor: the concurrence is
    K u / (s11 u^2 + (s22 + s33) u + s44) for two qubits, peaked at
    u = sqrt(s44 / s11), and K sqrt(u) / ((s11 + s33) u + s22 + s44) for
    one qubit, peaked at u = (s22 + s44) / (s11 + s33).  Both are unimodal
    in u, so clipping the peak to the admissible range is exact.
    """
    s11, s22, s33, s44 = sigma.diagonal().real
    k = 2.0 * max(
        0.0,
        abs(sigma[0, 3]) - np.sqrt(s22 * s33),
        abs(sigma[1, 2]) - np.sqrt(s11 * s44),
    )
    u = closed_form_u_star(sigma, mode)
    if mode is WmrMode.TWO_QUBIT:
        return k * u / (s11 * u * u + (s22 + s33) * u + s44)
    return k * np.sqrt(u) / ((s11 + s33) * u + s22 + s44)


def readme_commands() -> list[str]:
    """The ``qcorrkit`` commands of README's "Command line" block, continuations joined."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [line for line in lines if line.startswith("qcorrkit ")]


def find_zero_crossing(x: np.ndarray, y: np.ndarray) -> float | None:
    """First downward sign change of y, located by linear interpolation."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    for i in range(len(y) - 1):
        if y[i] > 0.0 >= y[i + 1]:
            return float(x[i] + (0.0 - y[i]) * (x[i + 1] - x[i]) / (y[i + 1] - y[i]))
    return None


def use_network(monkeypatch, layer_sizes, activations):
    """Make ``mlp`` build, run, write and read this architecture in place of the paper's.

    Forked restart workers inherit the patch.
    """
    monkeypatch.setattr(mlp, "LAYER_SIZES", tuple(layer_sizes))
    monkeypatch.setattr(mlp, "ACTIVATIONS", tuple(activations))
