"""
Checking classical identities from the registry
===============================================

Every entry pairs a constrained count with a product over residue
classes.  This script prints both sides for a few famous cases and
confirms they agree coefficient by coefficient.
"""

from flatpart import get_identity

ORDER = 30

for name in ("RR1", "RR2", "MACMAHON", "SCHUR", "GG", "CAPPARELLI1"):
    ident = get_identity(name)
    left = ident.count_series(ORDER)
    status = "ok" if ident.first_mismatch(ORDER) is None else "MISMATCH"
    print("%-12s %-52s %s" % (name, ident.summary, status))
    print("   first coefficients:", ",".join(str(c) for c in left.coeffs[:16]))

# the same check via the flat-form text, bypassing the registry
from flatpart import parse_condition_set, sum_series_dp

macmahon = parse_condition_set("1:2:1:2 +1z")
print()
print("flat form 1:2:1:2 with one fictitious zero:")
print("  ", ",".join(str(c) for c in sum_series_dp(macmahon, 15).coeffs))
