"""Partition identities from forbidden flattest windows.

The package splits into layers: partition and pattern primitives,
window-rule condition sets, exact integer series, the two counting
routes (enumeration and the value-walk dynamic program), Euler
factorization with period detection, the identity registry, finite
recursions, bijections, overpartitions, and the parameter-space search.
"""

from .conditions import (CONGRUENT, NOT_CONGRUENT, ConditionSet, FlatRule,
                         condition_set, matches_at, parse_condition_set,
                         satisfies)
from .counting import count_by_predicate, sum_series_brute, sum_series_dp
from .errors import (CeilingExceeded, FlatpartError, InsufficientOrder,
                     InvalidSpecialization, NoFlatForm, NonUnitConstantTerm,
                     NotEnoughPatterns, NotInProductClass,
                     PreconditionViolated, UnknownFamily, UnknownRecursion)
from .euler import (EulerFactorization, PeriodicVerdict, detect_period,
                    euler_exponents)
from .families import (family_satisfies, flat_form_of, get_identity,
                       get_refuted, refuted_names, registered_names)
from .partitions import (Partition, compare_flatter, conjugate,
                         count_flat_patterns, flat_patterns,
                         frequency_profile, kth_flattest, parse_partition,
                         partitions_of, render_partition)
from .series import (IntSeries, ProductSpec, geom, load_series, monomial,
                     one, product_from_exponents, product_series,
                     save_series, series_div, series_mul, zero)

__version__ = "0.1.0"
