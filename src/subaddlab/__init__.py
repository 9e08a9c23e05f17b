"""Verification laboratory for a subadditive operator family on l^p(N, alpha).

The base object is the heavy-tailed law alpha_j = C_j/2^(2j+1) (C_j Catalan)
and the barycenter operator A = sum_j alpha_j T^j built from the translation
T on the weighted sequence space.  The package computes convolution powers
exactly or in certified float rows, brackets the infinite sums in certified
enclosures, and runs the desk-scale experiments showing ||A^n||_p/n -> 0
while sup_n ||A^n||_p = infinity, together with a Monte Carlo cross-check.
"""

__version__ = "0.1.0"
