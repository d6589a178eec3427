"""Dual-axis structural representation toolkit for H/C/N/O/F molecules.

One axis encodes each heavy atom's local valence environment as a
hierarchical string code with exact enumeration and counting of the code
spaces; the other decomposes molecules at cut vertices and bridges into
canonical ring/cage topologies. On top of both sit scalar electronic
descriptors, dataset coverage analytics and linear cross-protocol energy
alignment, all exposed through one command line tool.
"""

__version__ = "0.1.0"
