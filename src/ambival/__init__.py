"""Market-consistent valuation of insurance run-offs under parameter ambiguity.

The package splits into a generic engine and a worked case study:

* ``scenario``     -- lattice engine, adapted processes, seeded Gaussian innovations
* ``riskmeasures`` -- value-at-risk and average value-at-risk layers
* ``priors``       -- parametric density processes and ambiguity ellipsoids
* ``valuation``    -- the multiple-prior backward recursion and bounds
* ``oracle``       -- brute-force enumeration cross-check on small lattices
* ``gaussian``     -- two-period Gaussian chain-ladder study (tables, figures)
* ``cli``          -- config-driven command-line front end
"""

from .errors import CapExceededError, NumericalError, ValidationError

__all__ = ["CapExceededError", "NumericalError", "ValidationError"]

__version__ = "0.1.0"
