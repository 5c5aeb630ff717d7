"""
Lefschetz sequences, net traces and Perron candidates
=====================================================

An integer matrix A acting on homology produces the Lefschetz numbers
L_n = 1 - tr A^n (surface with boundary) or 2 - tr A^n (closed).  The
growth of {L_n} is capped by the Mahler measure of char(A), with
equality in the squarefree case.  Net traces - the Moebius-inverted
power sums - must be nonnegative for a spectrum to be realized by some
primitive nonnegative matrix, and a dominant real root is necessary.
"""

from lehmerlab import (
    IntMatrix,
    char_poly,
    companion_matrix,
    cyclotomic_padding,
    lefschetz_seq,
    mahler_measure,
    max_growth_exact,
    net_traces,
    parse_poly,
    perron_check,
    primitivity,
)

A = IntMatrix(((2, 1), (1, 1)))
print("A =", A.rows)
print("char(A) =", char_poly(A))

L = lefschetz_seq(A, True, 12)
print("L_n =", list(L.ints))

growth = max_growth_exact(L, 3)
measure = mahler_measure(char_poly(A)).value
print(f"growth of L_n: {growth.value:.12f}")
print(f"M(char):       {measure:.12f}")

# Primitivity: some power of A is entrywise positive.
print("A primitive:", primitivity(A))
print("permutation primitive:", primitivity(IntMatrix(((0, 1), (1, 0)))))

# Net traces of the golden-ratio polynomial are all nonnegative, and the
# dominant root is real, so it passes every Perron test we can run.
f = parse_poly("t^2 - t - 1")
print()
print("net traces of", f, ":", net_traces(f, 10))
check = perron_check(f, n_net=50)
print("perron candidate:", check.is_perron_candidate)

# A dominant real root with a negative net trace can sometimes be
# repaired by multiplying in cyclotomic factors (measure unchanged).
# Roots 5, -4, -2: the trace is -1, so the raw spectrum is not
# realizable, but appending the root 1 fixes the count.
g = parse_poly("t^3 + t^2 - 22t - 40")
nets = net_traces(g, 12)
print()
print("net traces of", g, ":", nets)
pad = cyclotomic_padding(g, n_net=40)
if pad is None:
    print("no padding found within the default search bounds")
else:
    print("padding indices:", pad.indices, " phi =", pad.phi)
    print("padded net traces stay nonnegative:", all(v >= 0 for v in pad.net))

# Companion matrices tie polynomials back to matrix actions.
C = companion_matrix(f)
assert char_poly(C) == f
print()
print("companion of", f, "has char", char_poly(C))
