"""Shared exception types and the shared finiteness check.

DomainError marks a violated precondition or value out of its valid domain;
ShapeError marks mismatched array/grid shapes. Binary-format errors live in
cylocc.formats.
"""

import numpy as np


class DomainError(ValueError):
    """A value lies outside the operation's valid domain."""


class ShapeError(ValueError):
    """Array, raster, or grid shapes do not match."""


def require_finite(what: str, *values) -> None:
    """Raise DomainError naming what unless every entry of every value is
    finite. NaN propagates through min and max, so no full-size mask is built."""
    for v in values:
        a = np.asarray(v)
        if a.size and not (np.isfinite(a.min()) and np.isfinite(a.max())):
            raise DomainError(f"{what} must be finite")
