from .core import (Group, GroupError, FiniteTableGroup, FinitePermGroup,
                   SemidirectZnC2, PullbackCyclicGroup, PullbackDihedralGroup,
                   cyclic_group, dihedral_group, metacyclic_group, abelian_group,
                   direct_product, quotient_group, symmetric_group,
                   alternating_group_4, table_from_mul,
                   group_order24, group_c2_c_c12, group_c_by_d4, group_plane,
                   group_xyz, pullback_cyclic_example,
                   builtin_group, group_from_json, BUILTIN_GROUPS)
from .classes import (EquivClass, cl_classes, same_class, class_key,
                      class_rep_element, conj_witness, conjugators,
                      conjugacy_classes, two_power_roots, squaring_preperiod,
                      has_exact_classes)
from .structure import (centralizer, extended_centralizer, type_of,
                        ab_mod_squares, sharp_of_members, sharp_of_subgroup,
                        sharp_of_pullback, sharp_of_semidirect, SharpSpace,
                        FiniteSubgroup, PullbackSubgroup, LatticeSubgroup,
                        FullGroup, subgroup_closure, generating_set,
                        hom_to_c2_count, groups_of_order, groups_upto)
