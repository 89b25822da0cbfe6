"""Exact distribution tables of rec and srec, with their oracles.

Run:  python3 demos/exact_tables.py
"""

import math

from recstats import brute_force_tables, rec_table, srec_max, srec_table
from recstats.tables import table_csv, table_json

# c(n, k), the number of n-permutations with k records, is the
# coefficient of q^k in q(q+1)...(q+n-1): the unsigned Stirling numbers
# of the first kind.  One row costs O(n^2) big-integer operations.
print("c(6, k) for k = 1..6:")
row = rec_table(6)
for k in range(1, 7):
    print(f"  k={k}: {row.coeffs[k]}")
assert row.total() == math.factorial(6)

# C(n, k) counts permutations whose record positions sum to k, the
# coefficient of q^k in q(q^2+1)(q^3+2)...(q^n+n-1).  The row is dense
# on [1, n(n+1)/2] and vanishes exactly at k=2 and k=max-1.
print("\nC(5, k) for k = 1..15:")
srow = srec_table(5)
print(" ", {k: srow.coeffs[k] for k in range(1, srec_max(5) + 1)})

# Both rows agree with plain enumeration of all n! permutations.
rec_bf, srec_bf = brute_force_tables(6)
assert rec_bf.coeffs == rec_table(6).coeffs
assert srec_bf.coeffs == srec_table(6).coeffs
print("\nbrute force over 6! permutations matches both rows")

# Rows grow fast: c(150, 1) = 149! has 262 digits, hence exact integers
# throughout and decimal strings in the JSON export.
big = rec_table(150)
print(f"\nc(150, 1) has {len(str(big.coeffs[1]))} digits")
# The exports yield text chunks, a block of rows at a time, so a writer
# never holds the whole document; join them to get it as one string.
print("\nCSV export of the n=3 srec row (zeros kept, they are structural):")
print("".join(table_csv(srec_table(3))))
print("JSON export of the n=3 rec row (counts as decimal strings):")
print("".join(table_json(rec_table(3))))
