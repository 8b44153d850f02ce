"""Exact computation of Alexander invariants of conjugation presentations.

The package computes, in exact integer/Laurent arithmetic: abelianized
free-derivative matrices of C-presentations, Alexander polynomials, the
derived module A_k = M/(t^k - 1)M with its monodromy action, realization
of module data back as presentations, and first-homology reports for
cyclic coverings.
"""

__version__ = "1.0.0"

from .errors import CertificateError, Error, ParseError, PreconditionError

__all__ = ["CertificateError", "Error", "ParseError", "PreconditionError",
           "__version__"]
