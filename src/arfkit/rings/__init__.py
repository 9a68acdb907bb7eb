from .base import (Ring, RingError, IntegerRing, PrimeField, GF2, PolyRing,
                   GroupAlgebra, TruncatedRing)
from .matrices import (RingMatrix, identity_matrix, zero_matrix, block2,
                       lambda_membership, gamma_reduce,
                       gamma_witness, t_alpha_u, is_gq, is_invertible,
                       hyperbolic_image, invert_matrix)
