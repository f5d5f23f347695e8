"""Tamagawa numbers of CM and norm-type tori from finite-group data.

The fast path computes H^1, the primitive part of H^2(Z), Sha^2 and the
Tamagawa number through transfer maps; an independent oracle recomputes
the same invariants from explicit character lattices, on the resolution
of a Schreier presentation of the group.
"""

__version__ = "0.1.0"
