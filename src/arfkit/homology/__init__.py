from .algebras import (FiniteAlgebra, AlgebraError, GroupAlgebra, group_algebra,
                       matrix_algebra, field_algebra, algebra_from_json)
from .chains import (homology, hq1, HomologySpace, HomologyClass, boundary,
                     cyclic_x, quaternion_y, tensor2, tensor_list, flatten,
                     unflatten, hq_vector, t_add, t_neg, t_scale, DIM_GUARD)
from .operations import (theta_p_h0, theta_p_h1, theta_aux, vartheta,
                         vartheta_chain, CokerMu, CokerOnePlusVartheta,
                         coker_one_plus_vartheta, mu_rows, rotation_orbit_reps,
                         unit_summands, space)
from .morita import trace_chain, iota_chain, gamma_op, chi, s_append_unit
