"""latscat: desk-scale experiments on the microlocal structure of resolvents
of lattice Schrodinger operators."""

from .model import (Box, LatticeHamiltonian, LinearMap, ModelConfig, Potential, Stencil,
                    check_energy_window, laplacian_stencil)
from .symbols import CutoffPhi, Symbol, separable_symbol
from .quantize import fourier_multiplier, op_h, operator_norm, position_weight
from .geometry import (KernelPoint, MembershipReport, classify, kernel_point_setup,
                       make_bump_pair, make_cone_symbol)
from .resolvent import (DecayFit, LAPConfig, free_kernel_1d, ik_probe, lap_solve,
                        one_sided_probe, sandwich_norm, wf_probe)
from .propagate import (ChebyshevPlan, EnergyCutoff, evolve, local_decay_probe,
                        propagation_probe)
from .escape import (EscapeLadder, build_rung, energy_inequality_check, monotonicity_check,
                     verify_transport)

__version__ = "0.1.0"
