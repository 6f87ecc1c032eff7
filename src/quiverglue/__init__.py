"""Exact-arithmetic toolkit for gluing quiver representations along Ext bases.

The package is pure Python with no third-party dependency: minimal
polynomials are factored over Q and F_p by its own `poly` module.
"""

__version__ = "0.1.0"
