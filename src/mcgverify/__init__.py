"""mcgverify: machine checks for torsion-generator computations in the
mapping class groups of closed nonorientable surfaces.

The package decides, at the level of pi_1(N_g) = <x_1..x_g | x_1^2..x_g^2>,
every desk-scale claim behind the three-torsion-generator constructions:
element orders and identities up to inner automorphism, curve-orbit
computations, twist-subgroup membership via the homology determinant, the
rotation matrices of the symmetric models, the genus-decomposition
arithmetic, and the symbolic four-holed-sphere twist derivation.
"""

from .errors import (
    BudgetExceeded,
    ConjugacyMismatch,
    DeterminantOutOfRange,
    GenusMismatch,
    InvariantViolation,
    McgVerifyError,
    OutOfRange,
    UnknownClaim,
    ValidationFailure,
)
from .homology import (
    EgRotationSpec,
    GenusDecomposition,
    HomologyMatrix,
    abelianize,
    build_eg_rotation,
    decompose_genus,
    determinant,
    eg_matrix_power_identity,
    in_twist_subgroup,
)
from .mcg import (
    Automorphism,
    CurveClass,
    GeneratorCatalog,
    Inconclusive,
    InfiniteWithinBound,
    Inner,
    NotInner,
    build_catalog,
    compose,
    crosscap_slide,
    curve_class,
    curve_image,
    curves_equal,
    evaluate,
    get_catalog,
    identity_automorphism,
    inverse_word,
    is_inner,
    mcg_equal,
    order_of,
    talpha,
    tbeta,
    teps,
    transposition,
    word_power,
)
from .words import (
    CyclicWord,
    SurfacePresentation,
    cyclic_reduce,
    dehn_reduce,
    find_conjugators,
    format_word,
    free_reduce,
    get_presentation,
    inverse,
    is_conjugate,
    is_trivial,
    mul,
    parse_word,
)

__version__ = "0.1.0"
