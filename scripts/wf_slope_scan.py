#!/usr/bin/env python3
"""Scan the wave-front probe's fitted h-slope over bump radii.

Maps how the decay rate at an off-set kernel point depends on (delta1,
delta2): too-narrow bumps are under-resolved on the lattice and the slope
collapses, which is why the canned recipes use delta1=0.6, delta2=0.3.
"""

import itertools
import sys

import numpy as np

from latscat.geometry import KernelPoint
from latscat.model import ModelConfig, Potential, laplacian_stencil
from latscat.resolvent import LAPConfig, default_epsilon_sequence, wf_probe

H_LIST = (0.125, 0.0625, 0.03125, 0.015625)


def main():
    model = ModelConfig(stencil=laplacian_stencil(1),
                        potential=Potential(mu=0.5, amplitude=0.5, form="power_law"))
    lap = LAPConfig(lam=1.0, epsilon_sequence=default_epsilon_sequence(3, 24),
                    convergence_tol=2.5e-4)
    kp = KernelPoint(4.0, np.pi / 2, 3.0, -np.pi / 2)
    print(f"{'delta1':>7} {'delta2':>7} {'slope':>7} {'resid':>7}   norms")
    for d1, d2 in itertools.product((0.4, 0.6, 0.8, 1.0), (0.3, 0.4)):
        res = wf_probe(model, kp, lap, H_LIST, d1, d2, box_radius=2048)
        norms = " ".join(f"{r['norm']:.1e}" for r in res.rows)
        print(f"{d1:7.2f} {d2:7.2f} {res.fit.slope:7.2f} {res.fit.max_residual:7.2f}   {norms}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
