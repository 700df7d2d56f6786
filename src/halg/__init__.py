"""Exact checkers, constructions, and brute-force search for matching
Hom-algebraic structures on finite-dimensional spaces.

Everything is computed exactly, over the rationals or a prime field; checks
run on basis triples, which settles them in general by multilinearity.
"""

from .axioms import (DENDRIFORM_AXIOM3_TWIST, SIDE_CONDITIONS, check_morphism,
                     check_side_conditions, check_structure, replay_violation,
                     structure_ok)
from .constructions import (MAX_DERIVED_LEVEL, CoefficientFamily,
                            centroid_twist, collapse_family, commutator,
                            dendriform_sum, dendriform_to_prelie,
                            dendriform_twist, derived_algebra, postcompose,
                            precompose_left, precompose_right,
                            prelie_commutator, rb_to_dendriform, rb_to_prelie,
                            rb_to_tridendriform, tensor_transpose, untwist,
                            verify_diagram, yau_twist)
from .errors import (BudgetExceededError, DimensionMismatch, DocSyntaxError,
                     FieldMismatch, HalgError, KindMismatch,
                     MissingCoefficientError, NonFiniteFieldError,
                     NonzeroWeightError, ParamError, PowerBoundError,
                     PreconditionFailed, ShapeError, SingularMapError,
                     TheoremCheckError, UnknownConditionError,
                     UnknownFixtureError)
from .fields import GF, PRIME_FIELD, QQ, RATIONALS, Field, Scalar
from .linalg import (BilinearMap, LinearMap, apply_map, bilinear_apply,
                     kernel_vector, map_compose, map_invert, map_power,
                     tensor_combine)
from .search import (DEFAULT_BUDGET, TARGET_COMMUTING, TARGET_ENDOMORPHISM,
                     TARGET_RB_FAMILY, TARGETS, SearchResult, SearchSpec,
                     catalog, enumerate_docs, fixture_names, seeded_sample)
from .structures import (ASSOC_KINDS, ASSOC_RB_KINDS, COMPATIBLE_HOM_ASSOC,
                         COMPATIBLE_HOM_LIE, FORMAT_VERSION,
                         HOM_ASSOC_MATCHING_RB, KIND_ROLES, KINDS, LIE_KINDS,
                         LIE_RB_KINDS, MATCHING_HOM_ASSOC,
                         MATCHING_HOM_DENDRIFORM, MATCHING_HOM_LIE,
                         MATCHING_HOM_LIE_RB, MATCHING_HOM_PRELIE,
                         MATCHING_HOM_TRIDENDRIFORM, PLAIN_ASSOC_MATCHING_RB,
                         PLAIN_LIE_MATCHING_RB, PLAIN_RB_KINDS, RB_KINDS,
                         TOTALLY_COMPATIBLE_HOM_ASSOC, AlgebraDoc,
                         BilinearFamily, CheckReport, OmegaSet,
                         OperatorFamily, Violation, doc_to_jsonable, make_doc,
                         make_report, parse_doc, report_to_jsonable,
                         serialize_doc, validate_doc)

__version__ = "0.1.0"
