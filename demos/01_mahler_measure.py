"""
Mahler measures of integer polynomials
======================================

The Mahler measure of f = c_n t^n + ... + c_0 is |c_n| times the product
of the root moduli that exceed 1.  Cyclotomic products have measure
exactly 1; the famous degree-10 polynomial below is the smallest known
measure strictly above 1.
"""

from lehmerlab import (
    IntPoly,
    format_poly,
    irreducibility_certificate,
    is_cyclotomic_product,
    is_reciprocal,
    lehmer_polynomial,
    mahler_measure,
    parse_poly,
)

# The record holder, written with ascending coefficients.
L = lehmer_polynomial()
print("f =", format_poly(L))

result = mahler_measure(L)
print("M(f) =", result.value)
print("certified bracket:", result.lower, "..", result.upper)

# Structural checks: reciprocal (palindromic coefficients), not a product
# of cyclotomics, and irreducible.  Modulo 2 it factors with degrees 5 + 5
# and modulo 3 with 2 + 8; no factor degree but 0 and 10 fits both
# patterns, so the certificate closes at the prime 3.
print("reciprocal:", is_reciprocal(L))
print("cyclotomic product:", is_cyclotomic_product(L))
cert = irreducibility_certificate(L)
print("irreducibility:", cert.status, "(witness prime", str(cert.witness_prime) + ")")

# Any polynomial parses from a coefficient list or a symbolic expression.
g = parse_poly("t^3 - t - 1")
print()
print("g =", format_poly(g), "  M(g) =", mahler_measure(g).value)
print("irreducibility:", irreducibility_certificate(g).status,
      "(witness prime", str(irreducibility_certificate(g).witness_prime) + ")")
# 1.3247... is the smallest Perron number of a degree-3 polynomial (the
# plastic number); compare it against the degree-10 record above.

# Products multiply measures exactly.
h = L * g
assert abs(mahler_measure(h).value - result.value * mahler_measure(g).value) < 1e-9
print("M(f*g) = M(f) * M(g) checks out")

# Cyclotomic factors are invisible to the measure.
cyc = parse_poly("1,1,1")  # 1 + t + t^2
assert abs(mahler_measure(L * cyc).value - result.value) < 1e-9
print("padding by 1 + t + t^2 leaves the measure unchanged")

# Mirror image t -> -t permutes roots by sign, so the measure is stable.
mirrored = IntPoly(tuple(c if i % 2 == 0 else -c for i, c in enumerate(L.coeffs)))
print("M(f(-t)) =", mahler_measure(mirrored).value)
