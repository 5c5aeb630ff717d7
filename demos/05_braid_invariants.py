"""
Braid closures: Burau matrices, Alexander polynomials, entropy
==============================================================

Braid words in the standard generators s1..s(n-1) map to matrices of
Laurent polynomials (the reduced Burau representation).  det(B - I),
divided by 1 + t + ... + t^(n-1), is the reduced Alexander polynomial
of the braid closure.  The same braid acts on the free group of the
punctured disk, and the growth rate of that action estimates the
entropy of the underlying surface map.
"""

import math

from lehmerlab import (
    entropy_estimate,
    lehmer_gap,
    mahler_measure,
    parse_braid,
    parse_poly,
    reduced_alexander,
    reduced_burau,
)

# A three-strand braid with one positive and one negative crossing,
# stabilized by two full twists (T^k is the full twist, central in the
# braid group).
beta = parse_braid("s1 s2^-1 T^2", 3)
B = reduced_burau(beta)
print("reduced Burau matrix, size", B.size)
for row in B.entries:
    print("  [", ", ".join(str(e) for e in row), "]")

alex = reduced_alexander(beta)
print("reduced Alexander polynomial:", alex)

# Its Mahler measure is the smallest known value above 1 for any integer
# polynomial; this closure realizes it as a knot invariant.
print("M(Alexander) =", lehmer_gap(beta))

# Two more closures on 4 and 5 strands produce the same polynomial.
for text, n in (("s3 s2 s1^-1 T^1", 4), ("s1 s2 s3 s4 s1 s2 T^-1", 5)):
    same = reduced_alexander(parse_braid(text, n))
    print(f"{text!r} on {n} strands ->", same, "(same:", same == alex, ")")

# Entropy of the corresponding disk maps, estimated from word growth.
# The full twist acts by conjugation, so removing it changes nothing in
# the limit; the finite-run growth-rate targets below are the three
# smallest dilatations on 3, 4 and 5 strands.
print()
for text, n, n_terms in (("s1 s2^-1", 3, 12), ("s3 s2 s1^-1", 4, 12), ("s1 s2 s3 s4 s1 s2", 5, 16)):
    est = entropy_estimate(parse_braid(text, n), n_terms=n_terms)
    print(f"{text:24s} growth {est.gr1:.5f}  entropy {est.log_gr1:.5f}")

# For the 3-strand example the dilatation is the golden ratio squared.
golden = (1 + math.sqrt(5)) / 2
print("golden ratio squared:", golden**2)

# Mirror images flip crossing signs but keep the Alexander polynomial.
mirror = parse_braid("s1^-1 s2 T^-2", 3)
assert reduced_alexander(mirror) == alex
print("mirror word gives the same Alexander polynomial")

# And for reference, the degree-10 polynomial evaluated the ordinary way.
L_neg = parse_poly("1,-1,0,1,-1,1,-1,1,0,-1,1")
assert abs(mahler_measure(L_neg).value - lehmer_gap(beta)) < 1e-12

# Every root of 2t^4 - 5t^3 + 7t^2 - 5t + 2, this 4-strand knot's Alexander
# polynomial, has modulus 1, so its measure is the leading coefficient, 2,
# exactly: no root is computed.
knot = parse_braid("s1 s1^-1 s1^-1 s3 s3 s2 s2 s3^-1 s1^-1 s3^-1 s1^-1 s1^-1 s3 s2 s1^-1 s1 s1", 4)
print("M(2t^4 - 5t^3 + 7t^2 - 5t + 2) =", lehmer_gap(knot))
assert lehmer_gap(knot) == reduced_alexander(knot).coeffs[-1] == 2
