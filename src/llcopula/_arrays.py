"""Array helpers shared by the numeric modules."""

from __future__ import annotations


def unwrap(out, scalar: bool):
    """``out`` as a Python float when the caller's input was a scalar, else unchanged.

    A scalar input leaves ``out`` with one element, either 0-d or promoted to
    shape (1,) by ``np.atleast_1d``.
    """
    return float(out.item()) if scalar else out
