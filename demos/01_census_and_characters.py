"""Walk through the conjugacy-class census and character table of SL2(q).

Everything here is exact: class sizes are integers, character values live in
cyclotomic fields with Fraction coefficients, and the orthogonality relations
are checked on integer coefficient vectors of the roots of unity, one field
at a time, reduced modulo the cyclotomic polynomial once per sum; where
NumPy multiplies them in float64, every partial sum is an integer below
2^53, so the products are exact.
"""

from sl2cert import chartab, groups
from sl2cert.verify import Session, verify_prop31

q = 13

# ------------------------------------------------------------------
# The census: 17 conjugacy classes whose sizes sum to |SL2(q)|.
ses = Session(q)
sizes = groups.class_sizes(q)
print(f"SL2({q}) has order {sum(sizes.values())} "
      f"and {len(sizes)} conjugacy classes:")
for label in sorted(sizes, key=str):
    print(f"  {str(label):>5}  size {sizes[label]}")

for res in verify_prop31(q, ses):
    print(f"  census check {res.name}: {'ok' if res.passed else 'FAIL'}")

# ------------------------------------------------------------------
# Character degrees.  The two degree-(q-1)/2 discrete-series characters
# eta1, eta2 are the ones the moduli computation lives on.
table = chartab.CharacterTable(q)
print("\ncharacter degrees:", sorted(int(c.degree) for c in table.characters))

eta1 = table["eta1"]
c = groups.ClassLabel("c")
v = eta1(c)
print(f"eta1 has degree {eta1.degree}; its value at the unipotent class c")
print(f"satisfies (2v+1)^2 = q: v = {v}, check:",
      ((2 * v + 1) * (2 * v + 1)).as_int() == q)

# ------------------------------------------------------------------
# Orthogonality, exactly.  Row orthogonality is the statement that the
# characters form an orthonormal basis of class functions; column
# orthogonality recovers centralizer orders.
print("\nrow orthogonality:   ", table.verify_row_orthogonality())
print("column orthogonality:", table.verify_column_orthogonality())
print("sum of squared degrees == |SL2(q)|:", table.verify_degrees())
