# Monomials and monomial ideals: the exact arithmetic everything else builds on.
#
# Variables live on a grid: x[k,j] has row k and column j.  A monomial is a
# sparse exponent vector on grid positions; an ideal is stored through its
# unique minimal generating set inside an explicit ambient width.

from incchains import MonomialIdeal, variable

x = variable  # x(k, j, e) is the monomial x[k,j]^e

u = x(1, 2, 3)
v = x(1, 4, 2) * x(2, 1)
w = x(2, 2) * x(3, 3)
print("three monomials:", u, "|", v, "|", w)
print("degrees:", u.degree, v.degree, w.degree)
print("column spans:", (u.min_col(), u.max_col()), (v.min_col(), v.max_col()))

# divisibility is componentwise; lcm and gcd are positionwise max and min
print("u divides u*w:", u.divides(u * w))
print("lcm(u, v) =", u.lcm(v))
print("gcd(u*v, v*w) =", (u * v).gcd(v * w))

# the constructor minimalizes: redundant generators disappear, order is canonical
J = MonomialIdeal(3, 4, [u, v, w, u * w, v * x(3, 3)])
print("\nminimal generators:", J)

# membership, quotients, radicals, sums
print("u*w in J:", u * w in J)
print("J : x[2,1] =", J.colon(x(2, 1)))
print("radical(J) =", J.radical())
print("J + <x[1,1]> =", J + MonomialIdeal(3, 4, [x(1, 1)]))

# graded data: top generator degree and the count of standard monomials
# (monomials outside the ideal) up to that degree
print("\ntop generator degree:", J.delta())
print("q-invariant:", J.q_invariant())

tiny = MonomialIdeal(1, 2, [x(1, 1), x(1, 2)])
print("q of", tiny, "is", tiny.q_invariant(), "(only the constant survives)")
