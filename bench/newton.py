"""Workload ``newton``: the floating-point projection onto admissible forms.

Every request is one ``theta_project`` call (kind ``project``).  The
inputs come in three equal shares, each with eps in {1e-2, 1e-3, 1e-4}:

- ``r27``: Phi0 + eps xi with xi in the rank-27 block at Phi0; these
  take 0 iterations (the ``verify-forms --with-newton`` path);
- ``generic``: Phi0 + eps eta for a generic unit eta; 2-4 iterations;
- ``gauge``: exp(A).(Phi0 + eps xi) with |A| = 0.1 and xi of rank 27;
  about 4 iterations.

In steady state the 70 x 70 compound matrix, ``expm`` and ``lstsq`` do
all the work; the exact layers run only in set-up, through the Newton
precompute, so a change to them moves ``setup_s`` and not ``ops_per_s``.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import expm

from spin7 import projection
from spin7.forms import cayley_form

KINDS = ("project",)
SHARES = ("r27", "generic", "gauge")
EPSILONS = (1e-2, 1e-3, 1e-4)
GAUGE_NORM = 0.1


def setup():
    """The Newton precompute behind the first ``type_projector`` call."""
    projection.type_projector("27")


def _unit(v):
    return v / np.linalg.norm(v)


def _make_check(eps, xi):
    def check(outcome) -> bool:
        ok = (outcome.residual <= 1e-10
              and outcome.tangency_error() <= 1e-9)
        if xi is not None:
            ok = ok and np.linalg.norm(outcome.psi - eps * xi) <= 100 * eps ** 2
        return bool(ok)
    return check


def requests(seed: int, workdir):
    """Endless seeded stream of (kind, run, check) requests (``workdir``
    is unused: this workload writes no files), in blocks of
    every share at every eps."""
    rng = np.random.default_rng(seed)
    phi0 = projection.form_to_array(cayley_form())
    pr27 = projection.type_projector("27")
    block = [(share, eps) for share in SHARES for eps in EPSILONS]
    while True:
        for i in rng.permutation(len(block)):
            share, eps = block[i]
            if share == "generic":
                chi, xi = phi0 + eps * _unit(rng.standard_normal(70)), None
            else:
                xi = _unit(pr27 @ rng.standard_normal(70))
                chi = phi0 + eps * xi
                if share == "gauge":
                    a = rng.standard_normal((8, 8))
                    chi = projection.apply_map(
                        expm(GAUGE_NORM * a / np.linalg.norm(a)), chi)
                    xi = None
            yield ("project",
                   lambda chi=chi: projection.theta_project(chi),
                   _make_check(eps, xi))
