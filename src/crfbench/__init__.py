"""crfbench: verification and computation workbench for quaternionic and
octonionic Cauchy-Riemann-Fueter analysis.

Subpackages are organized by what they compute:

* :mod:`crfbench.hypercomplex` -- exact quaternion/octonion arithmetic,
* :mod:`crfbench.polycalc` -- polynomial Fueter calculus,
* :mod:`crfbench.linalg` -- exact sparse fraction-free elimination with
  results as integer pairs ``(den, {column: int})``,
* :mod:`crfbench.forms` -- differential forms with pole coefficients,
* :mod:`crfbench.integrate` -- sphere quadrature and the reproducing integral,
* :mod:`crfbench.hypersurface` -- tangential operators, admissibility and
  the rank test on real hypersurfaces,
* :mod:`crfbench.crfsolve` -- exact graded solver for the conjugate-Fueter
  system, polynomial extensions, jump splittings,
* :mod:`crfbench.syzygy` -- operator matrices and syzygy dimensions,
* :mod:`crfbench.cli` -- command-line interface.
"""

__version__ = "0.1.0"
