"""
Reading the product side off a counting sequence
================================================

Given only the coefficients of a counting problem, peel off factors
(1 - q^m)^(-c_m) one modulus at a time.  If the exponent sequence is
periodic, the count has a clean product form and is worth a closer
look; if not, there is probably no identity to find.
"""

from flatpart import parse_condition_set, sum_series_dp
from flatpart.euler import detect_period, euler_exponents

# the count with no consecutive parts and no ones
cs = parse_condition_set("1:2:1:2 +1z")
series = sum_series_dp(cs, 60)
print("coefficients:", ",".join(str(c) for c in series.coeffs[:20]), "...")

fac = euler_exponents(series)
print("exponents c_1..c_12:", list(fac.exponents[:12]))

verdict = detect_period(fac, d_max=8)
print("periodic:", verdict.periodic, " period:", verdict.period)
print("classes:", verdict.exponents_dict())
print()

# a deliberately structureless sequence for contrast
from flatpart.series import IntSeries

fib = [1, 1]
while len(fib) < 41:
    fib.append(fib[-1] + fib[-2])
noise = euler_exponents(IntSeries(tuple(fib)))
print("same question for a Fibonacci-coefficient series:")
print("exponents c_1..c_12:", list(noise.exponents[:12]))
print("periodic:", detect_period(noise, d_max=8).periodic)
