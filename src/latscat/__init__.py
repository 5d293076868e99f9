"""latscat: desk-scale experiments on the microlocal structure of resolvents
of lattice Schrodinger operators."""

__version__ = "0.1.0"
