"""Exact decision procedures for unique addition in Lie algebras and rings.

A Lie ring has unique addition when every bijection to another Lie ring
that preserves commutators is automatically additive.  This package decides
that property where current theory allows: a positive criterion through
mutually disjoint centralizers over infinite fields, a constructive negative
criterion through commutator-preserving swaps, seaweed subalgebras of sl_n,
and exhaustive brute force for small finite rings.  All arithmetic is exact and all randomized searches are seeded, so
every report is reproducible byte for byte.
"""

__version__ = "0.1.0"
