"""Linear recurring sequences over Z/(p^e) with odd prime p.

Primitive generators and their certificates, p-adic level decomposition,
compressing maps to Z/p, and an exhaustive verification harness for
their distribution and uniformity properties at small parameter sizes.
"""

from .errors import CertificateError, InvalidInputError
from .ringcore import (
    RingContext,
    UnivariateFn,
    carry_c1,
    carry_map_poly,
    interpolate,
    padic_expand,
)
from .polyring import (
    RingPolynomial,
    apply_poly_to_sequence,
    format_poly_spec,
    order_of_x,
    parse_poly_spec,
    poly_mulmod,
    poly_powmod,
)
from .primitivity import (
    PrimitivityCertificate,
    certify,
    compute_h,
    find_primitive,
)
from .sequences import (
    LevelSequence,
    LRSequence,
    alpha_sequence,
    generate,
    identity_failure,
    is_primitive_sequence,
    level,
)
from .compress import (
    CompressingMap,
    MultivariatePoly,
    compress_sequence,
    eval_map,
    image_set,
    is_permutation,
    psi_zw,
)
from .analysis import (
    UniformityReport,
    construct_thm7,
    construct_thm8,
    count_uniform_s,
    intersection_count,
    legendre,
    legendre_sum,
    run_suite,
    thm9_choose_w,
    verify_alpha_k_injectivity,
)

__version__ = "0.1.0"
