#!/usr/bin/env python3
"""Scan the local-decay exponent kappa_hat over box sizes L.

Runs the local-decay recipe's probe (long-range model, lambda = 1, nu = 3,
eps_f = 0.25, 16 times in [10, 200]) at L = 512, 1024 and 2048. Every t
stays inside the reflection window, so kappa_hat should not depend on L;
the printed rank is the number of eigenpairs inside supp f.
"""

import sys
import time

import numpy as np

from latscat.model import ModelConfig, Potential, laplacian_stencil
from latscat.propagate import EnergyCutoff, local_decay_probe

L_LIST = (512, 1024, 2048)


def main():
    model = ModelConfig(stencil=laplacian_stencil(1),
                        potential=Potential(mu=0.5, amplitude=0.5, form="power_law"))
    cutoff = EnergyCutoff(lam=1.0, eps_f=0.25)
    t_grid = np.geomspace(10.0, 200.0, 16)
    print(f"{'L':>5} {'rank':>5} {'kappa_hat':>10} {'eig_resid':>9} {'seconds':>8}")
    for L in L_LIST:
        t0 = time.perf_counter()
        res = local_decay_probe(model, cutoff, 3.0, t_grid, box_radius=L)
        row = res.rows[0]
        print(f"{L:5d} {row['rank']:5d} {res.kappa_hat:10.6f} {row['eig_residual']:9.1e} "
              f"{time.perf_counter() - t0:8.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
