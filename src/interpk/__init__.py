"""interpk: K-functionals, real-interpolation quasi-norms and s-number
ideal quasi-norms on finite index windows, with seeded verification
experiments for their equivalence and dichotomy properties."""

from .couples import (Couple, FiniteVector, KProfile, WeightedNorm,
                      k_profile, k_sphere_sup, l1_linf_couple, power_couple,
                      vec, weighted_sup_couple)
from .errors import (ConstructionError, DomainError, EmptyReportError,
                     InterpKError, InvariantError, ParamError, SizeError,
                     UnsupportedError, WindowError)
from .interp import (ConditionReport, InterpParams, LatticeParam, ParamSpace,
                     derived_sum_int_couple, endpoint_space, interp_norm,
                     lattice_norm, parameter_conditions, split_norm)
from .lethargy import (DecaySpec, lift_sequence, slow_k_witness,
                       slow_snumber_witness, strictness_sweep,
                       strictness_witness)
from .snum import (LorentzParams, MatrixOperator, SNumSeq, approx_numbers,
                   diag_operator, ideal_norm, k_operator_diag, lorentz_norm,
                   witness_sequence)
from .verify import (DichotomyReport, DistinctnessReport, EquivReport,
                     check_konig, check_mainlema, check_reiteration,
                     check_sum_intersection, dichotomy_sweep,
                     distinctness_demo, equivalence_report, oracle_agreement)

__version__ = "0.1.0"
