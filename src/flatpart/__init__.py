"""Partition identities from forbidden flattest windows.

The package splits into layers: partition and pattern primitives,
window-rule condition sets, exact integer series, the two counting
routes (enumeration and the value-walk dynamic program, which counts
long walks on a minimal periodic automaton), Euler factorization with
period detection, the identity registry, finite recursions, bijections,
overpartitions, and the parameter-space search.
"""

from .conditions import (CONGRUENT, NOT_CONGRUENT, ConditionSet, FlatRule,
                         condition_set, matches_at, parse_condition_set,
                         satisfies)
from .counting import count_by_predicate, sum_series_brute, sum_series_dp
from .errors import (CeilingExceeded, FlatpartError, InsufficientOrder,
                     InvalidSpecialization, NonUnitConstantTerm,
                     NotInProductClass, PreconditionViolated, UnknownFamily,
                     UnknownRecursion)
from .euler import (EulerFactorization, PeriodicVerdict, detect_period,
                    euler_exponents)
from .families import (family_satisfies, get_identity, get_refuted,
                       refuted_names, registered_names)
from .partitions import (as_partition, conjugate, flat_patterns,
                         frequency_profile, kth_flattest, parse_partition,
                         partitions_of, render_partition)
from .series import (IntSeries, ProductSpec, load_series, one,
                     product_from_exponents, product_series)

__version__ = "0.1.0"
