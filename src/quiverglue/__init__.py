"""Exact-arithmetic toolkit for gluing quiver representations along Ext bases.

Importing the package loads no third-party module: sympy, used only to
factor minimal polynomials, is imported on first use by
`linalg.sympy_module`.
"""

__version__ = "0.1.0"
