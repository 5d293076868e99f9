#!/usr/bin/env python3
"""Sweep the escape-function energy inequality over h and print the
spectral defects, the fitted exponent, the worst self-check residuals, and
the Heisenberg monotonicity margins, for the healthy ladder and for a
sabotaged ramp (Phi' > 0)."""

import dataclasses
import sys

import numpy as np

from latscat.escape import EscapeLadder, energy_inequality_check, monotonicity_check
from latscat.model import ModelConfig, Potential, laplacian_stencil
from latscat.symbols import CutoffPhi


class BumpedPhi(CutoffPhi):
    """Deliberately broken ramp: a Gaussian bump makes Phi' > 0 somewhere."""

    def __call__(self, s):
        s = np.asarray(s, dtype=float)
        out = np.asarray(super().__call__(s)) + 0.6 * np.exp(-((s - 0.75) / 0.15) ** 2)
        return out if out.ndim else float(out)


def main():
    model = ModelConfig(stencil=laplacian_stencil(1), potential=Potential())
    ladder = EscapeLadder(stencil=laplacian_stencil(1), x2=1.2, xi2=np.pi / 2,
                          delta1=1.0 / 3.0, delta2=0.28, h=0.125, depth=0, mu=1.0,
                          t_grid=(0.0, 0.5, 2.0, 8.0))
    energy = energy_inequality_check(model, ladder, t_samples=(0.5, 2.0, 8.0),
                                     h_list=(0.25, 0.125, 0.0625),
                                     box_radius=48)
    print("energy-inequality defects per h:")
    for h, d in sorted(energy.defects.items(), reverse=True):
        print(f"  h = {h:7.4f}: defect = {d:.3e}")
    print(f"fitted exponent {energy.exponent:.2f}")
    print(f"self-checks (Frobenius, worst over h, t): fd mismatch "
          f"{energy.fd_mismatch:.2e} (gate 1e-8), drift {energy.drift:.2e} (gate 1e-10)")
    mono = monotonicity_check(model, ladder, (1.0, 5.0, 20.0), energy_report=energy,
                              box_radius=64)
    print("monotonicity margins:", {t: f"{m:.2e}" for t, m in mono.margins.items()})
    bad = dataclasses.replace(ladder, phi=BumpedPhi(), validate=False)
    mono_bad = monotonicity_check(model, bad, (1.0, 2.0), box_radius=48)
    print("sabotaged-ramp margins:", {t: f"{m:.2e}" for t, m in mono_bad.margins.items()})
    print("sabotage detected:", not mono_bad.passed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
