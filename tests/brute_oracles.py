"""Brute-force oracle for the invariant-ideal enumeration.

The package enumerates the closed component sets of the entry digraph's
condensation.  This oracle instead tests every one of the 2^n coordinate
subsets against the zero-pattern criterion, sharing no graph code with
the production route.
"""

from __future__ import annotations

from evpos.irreducibility import ideal_invariant_under_generator
from evpos.lattice import IdealMask, as_matrix


def brute_force_ideals(A, tol: float = 0.0) -> list:
    """Every invariant coordinate ideal of A, sorted by size and then members."""
    A = as_matrix(A)
    n = A.shape[0]
    found = []
    for bits in range(1 << n):
        mask = IdealMask.of([i for i in range(n) if bits >> i & 1], n)
        if ideal_invariant_under_generator(A, mask, tol):
            found.append(mask)
    return sorted(found, key=lambda m: (len(m), m.sorted_members()))
