"""
Six near-misses
===============

Some window rules look like identities for thirty-plus coefficients
and then break.  The refuted catalog keeps them with their first
failing weight; this script recomputes each counterexample from
scratch, on both sides.
"""

from flatpart.families import get_refuted, refuted_names

for name in refuted_names():
    entry = get_refuted(name)
    n, sum_n, prod_n = entry.first_mismatch(entry.counterexample_n)
    agree_below = n == entry.counterexample_n
    print("%-18s agrees to n=%-3d then %d != %d  (checked: %s)"
          % (name, n - 1, sum_n, prod_n, agree_below))
