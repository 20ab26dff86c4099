"""Exact Clifford algebras, quadratic-form invariants and Bott classes.

Everything is computed over the rationals and their cyclotomic or
truncated-polynomial extensions with exact arithmetic; no floats anywhere.
"""

from .clifford import (CliffordElement, Membership, SpinLift,
                       clifford_group_test, graded_tensor_check, pairing_det,
                       parse_element, phi_gram, spin_lift, untwist_iso, volume_element)
from .config import Caps, CapExceededError, DEFAULT_CAPS, FailedCheckError, caps_scope
from .lambda_bott import (LambdaVector, LineExpr, bott_cyclotomic, bott_lines,
                          bott_virtual, corrected_bott, line_to_lambda, parse_line_expr,
                          serre_sqrt, sphere_formula, sum_of_powers, trivial_lambda_vector)
from .modules import (AdamsCharacter, GradedModule, TensorPower,
                      VirtualCyclotomicModule, adams_bar, adams_character,
                      adams_module_report, hermitian_bott, opposite_form_check,
                      opposite_module, spinor_rep, tensor_power, twist_rep)
from .quadforms import (BWTriple, INF, QuadraticForm, bw_class, discriminant, hasse_witt,
                        hilbert_symbol, hyperbolic, is_orientable, parse_form, scale,
                        square_free_part)
from .rings import (Cyclotomic, TruncatedPoly, cyclotomic_polynomial, parse_cyclotomic,
                    parse_truncated)
from .verify import VerificationReport, run_suite

__version__ = "0.1.0"
