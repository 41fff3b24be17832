"""Exact arithmetic: small finite fields and the polynomial ring F_q[z].

Every computation in this library is exact.  A field is described by its
characteristic p and extension degree l; extension fields pick the
lexicographically smallest irreducible modulus, so results are stable
across runs and machines.
"""

from sdconv import Poly, gcd, make_field, sqrt_of_minus_one, vec_content, xgcd

# -- fields -------------------------------------------------------------------

F2 = make_field(2)
F4 = make_field(2, 2)
F5 = make_field(5)
F9 = make_field(3, 2)

print("GF(4) modulus (lowest degree first):", F4.modulus)
print("GF(9) modulus:", F9.modulus)

a = F4.element((0, 1))
print("in GF(4): a * (a + 1) =", a * (a + 1))  # the norm of a generator
print("in GF(5): 3 * 4 =", F5.from_int(3) * F5.from_int(4))
print("in GF(5): 1/2 =", F5.from_int(2).inverse())

# A square root of -1 exists exactly when p = 2, p = 1 mod 4, or l is even.
for spec in (F2, make_field(3), F4, F5, make_field(7), F9, make_field(13)):
    print(f"sqrt(-1) in {spec}:", sqrt_of_minus_one(spec))

# -- polynomials ----------------------------------------------------------------

z = Poly.z(F2)
u = z**2 + 1
v = z + 1
print("\nover GF(2):")
print(f"({u}) / ({v}) =", divmod(u, v))  # (z+1)^2 = z^2+1 in characteristic 2
g, s, t = xgcd(z, u)
print(f"xgcd(z, {u}): gcd = {g}, cofactors = ({s}, {t})")
assert s * z + t * u == g

print("gcd(z+1, z^2+1) =", gcd(v, u))
print("content of (0, z^2+z+1, z, z^2+1):",
      vec_content((Poly.zero(F2), z**2 + z + 1, z, u)))

# The freshman dream in characteristic 2: a sum of squares is the square
# of the sum.  This single identity drives all the binary self-duality
# machinery downstream.
fs = (z + 1, z**2, z**3 + z)
lhs = sum((f * f for f in fs), Poly.zero(F2))
rhs = sum(fs, Poly.zero(F2)) ** 2
print("sum of squares == square of sum:", lhs == rhs)
