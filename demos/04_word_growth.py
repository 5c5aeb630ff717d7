"""
Word growth under free-group endomorphisms
==========================================

Iterating an endomorphism of a free group and recording reduced word
lengths gives integer sequences whose generalized growth rates are a
basis-independent invariant of the map.  The engine keeps words in a
compressed block form, so power-of-a-generator images stay cheap even
when the literal words have millions of letters.
"""

from lehmerlab import (
    endo_from_matrix,
    abelianization,
    apply,
    endo_growth_report,
    growth_report_sum,
    iterate_lengths,
    parse_endo,
    parse_word,
    format_word,
    IntMatrix,
)

# The simplest interesting example: a -> a^3, b -> b^2.
phi = parse_endo("a -> a^3; b -> b^2")
print("phi:", "a -> a^3; b -> b^2")
print("|phi^n(a)|:", list(iterate_lengths(phi, 1, 10).ints))
print("|phi^n(b)|:", list(iterate_lengths(phi, 2, 10).ints))

# The same map in the basis (ab, b) mixes the generators.  Lengths pick
# up cross terms, but stay exact out to length 2 * 3^25 + 2^25 - 2.
psi = parse_endo("a -> a b^-1 a b^-1 a b; b -> b^2")
lengths = iterate_lengths(psi, 1, 25)
print()
print("conjugated basis, first terms:", list(lengths.ints[:6]))
print("term 25 has", lengths.ints[-1], "letters")

# Growth rates see through the basis change: the profile is the same.
rep = endo_growth_report(psi, k_max=4, n_terms=16)
print("GR^(k) for k = 0..4:", [rep.best(k) for k in range(5)])

# The summed length sequence carries the full minimal polynomial.
rep_sum = growth_report_sum(psi, k_max=3, n_terms=16)
print("summed-length minimal polynomial:", rep_sum.min_poly.char_int())

# Nonnegative matrices define positive endomorphisms directly: row i
# lists how often each generator occurs in the image of generator i.
A = IntMatrix(((1, 1), (1, 0)))
fib_endo = endo_from_matrix(A)
print()
print("from matrix", A.rows, ":", format_word(fib_endo.images[0]), "|", format_word(fib_endo.images[1]))
print("abelianization round-trips:", abelianization(fib_endo) == IntMatrix(((1, 1), (1, 0))))

w = parse_word("a b^-1")
print("one application to", format_word(w), "->", format_word(apply(fib_endo, w)))
