"""Independent oracles that the tests compare the library against."""

import numpy as np


def empirical_copula(sample, u, v):
    """Unsmoothed indicator-average estimate (right-continuous step function).

    One pass over the sample per query point, so memory stays O(n).
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    u, v = np.broadcast_arrays(u, v)
    out = np.array([np.mean((sample.u <= a) & (sample.v <= b)) for a, b in zip(u.ravel(), v.ravel())])
    return float(out.item()) if u.ndim == 0 else out.reshape(u.shape)
