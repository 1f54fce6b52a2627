"""Exact-arithmetic lattice gluing and certification toolkit.

Builds an even unimodular lattice of signature (3, 19) carrying an
isometry with characteristic polynomial (X^2 - 3X + 1) * Phi_50(X),
checks every step of the construction in exact arithmetic, and
reconstructs the set of degree-2 Salem traces realizable this way.
"""
