#!/usr/bin/env python3
"""Newton projection of a perturbed 4-form back onto the admissible orbit.

A 4-form near the distinguished one splits uniquely as Phi + psi with Phi
on the GL(8) orbit and psi in the rank-27 block at Phi.  The error of the
first-order approximation decays quadratically in the perturbation size,
and the residual history shows the linear contraction of the iteration.
"""

import numpy as np

from spin7 import projection
from spin7.forms import cayley_form


def main():
    rng = np.random.default_rng(7)
    phi0 = projection.form_to_array(cayley_form())

    print("projecting an orbit point (a slightly rotated fiber):")
    g = np.eye(8) + 0.05 * rng.standard_normal((8, 8))
    out = projection.theta_project(projection.apply_map(g, phi0))
    print(f"  iterations {out.iterations}, |psi| = "
          f"{np.linalg.norm(out.psi):.2e}, residual {out.residual:.2e}")
    print()

    print("perturbing along an exact rank-27 direction "
          "(splits off immediately):")
    pr27 = projection.type_projector("27")
    xi = pr27 @ rng.standard_normal(70)
    xi /= np.linalg.norm(xi)
    for eps in (1e-2, 1e-3, 1e-4):
        out = projection.theta_project(phi0 + eps * xi)
        err = np.linalg.norm(out.psi - eps * xi)
        print(f"  eps = {eps:g}: |psi - eps xi| = {err:.2e}, "
              f"tangency {out.tangency_error():.2e}")
    print()

    print("generic perturbations: the defect of the linear approximation "
          "decays like eps^2:")
    eta = rng.standard_normal(70)
    eta /= np.linalg.norm(eta)
    eps_grid = (1e-2, 1e-3, 1e-4)
    norms = [np.linalg.norm(projection.nonlinear_remainder(eps * eta))
             for eps in eps_grid]
    for eps, n in zip(eps_grid, norms):
        print(f"  eps = {eps:g}: |F(eps eta)| = {n:.3e}")
    slope = np.polyfit(np.log(eps_grid), np.log(norms), 1)[0]
    print(f"  log-log slope = {slope:.3f}  (quadratic decay: ~2)")
    print()

    print("tangential residual per iteration: the tangent map stays at "
          "the distinguished form,\nso each step contracts the residual "
          "by a factor of order eps:")
    for eps in eps_grid:
        out = projection.theta_project(phi0 + eps * eta)
        history = "  ".join(f"{r:.1e}" for r in out.residuals)
        print(f"  eps = {eps:g}: {history}")


if __name__ == "__main__":
    main()
