"""Physical constants in SI units, as literals.

The values are CODATA 2022, the same floats scipy.constants 1.17 holds;
keeping them here spares every run the import of scipy.
"""

hbar = 1.0545718176461565e-34         # J s
atomic_mass = 1.66053906892e-27       # kg
elementary_charge = 1.602176634e-19   # C
epsilon_0 = 8.8541878188e-12          # F / m
