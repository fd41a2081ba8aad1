"""mcgverify: machine checks for torsion-generator computations in the
mapping class groups of closed nonorientable surfaces.

The package decides, at the level of pi_1(N_g) = <x_1..x_g | x_1^2..x_g^2>,
every desk-scale claim behind the three-torsion-generator constructions:
element orders and identities up to inner automorphism, curve-orbit
computations, twist-subgroup membership via the homology determinant, the
rotation matrices of the symmetric models, the genus-decomposition
arithmetic, and the symbolic four-holed-sphere twist derivation.
"""

from .errors import McgVerifyError
from .mcg import get_catalog, order_of, talpha, tbeta

__version__ = "0.1.0"
