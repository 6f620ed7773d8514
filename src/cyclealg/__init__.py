"""Exact invariants and matrix-model verification for towers of 2m-cycle algebras."""

__version__ = "0.1.0"
