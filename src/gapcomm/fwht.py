"""Exact integer Walsh-Hadamard transform over the diagonal-Pauli character matrix.

The transform matrix H has entries H[k, y] = (-1)^popcount(k & y); its rows
are the diagonals of the I/Z tensor-product operators in the canonical
ordering (row k carries the Z-mask with binary expansion k). H is symmetric
and self-inverse up to the factor 2**n, so exact rational solves reduce to a
second forward pass.

The names here are the kernels of ``_kernels`` themselves: ``fwht`` is the
exact transform every pauli-state solve runs, and ``character_row`` is the
one builder of the transform's cached factors and of ``pauli_quad``'s
cached sign rows.
"""
from ._kernels import character_matrix, character_row, fwht
