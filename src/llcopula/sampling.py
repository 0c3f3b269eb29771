"""Draw i.i.d. pairs from a parametric copula by conditional sampling.

For each pair, two uniforms (u, w) are drawn in that order; the second is
pushed through the inverse conditional CDF at the first.  All randomness
comes from a single seeded stream so runs are reproducible byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .families import CopulaModel, inverse_conditional
from .margins import PseudoSample


@dataclass(frozen=True)
class SeededStream:
    """A pseudo-random generator pinned to a 64-bit seed.

    The bit generator is always PCG64; numpy guarantees stream stability for
    a given bit generator, which is what makes seeds portable.  Identical
    seeds produce bit-identical variate sequences.
    A stream is single-consumer; for parallel work derive independent
    sub-streams with :meth:`substreams` instead of sharing one generator.
    """

    seed: int

    def __post_init__(self):
        seed = int(self.seed)
        if not 0 <= seed < 2**64:
            raise ConfigError(f"seed must fit in 64 unsigned bits, got {seed}")
        object.__setattr__(self, "seed", seed)

    def generator(self) -> np.random.Generator:
        return np.random.Generator(np.random.PCG64(self.seed))

    def substreams(self, k: int) -> list["SeededStream"]:
        """Split into k independent child streams.

        Child j uses the j-th 63-bit integer drawn from a fresh copy of the
        master stream, so the splitting rule is itself deterministic.
        """
        child_seeds = self.generator().integers(0, 2**63, size=k)
        return [SeededStream(int(s)) for s in child_seeds]


def sample_copula(model: CopulaModel, n: int, stream: SeededStream) -> PseudoSample:
    """n conditional-method draws from the model copula.

    u_i is uniform; v_i solves C_2(v | u_i) = w_i for the second uniform w_i.
    """
    n = int(n)
    if n < 1:
        raise ConfigError(f"sample size must be >= 1, got {n}")
    uw = stream.generator().random((n, 2))
    # Guard the open-interval preconditions of the conditional inverse;
    # random() returns [0, 1) so only exact zeros need the nudge.
    uw = np.clip(uw, 1e-16, 1.0 - 1e-16)
    u = uw[:, 0]
    w = uw[:, 1]
    v = inverse_conditional(model, w, u)
    return PseudoSample(u=u, v=np.asarray(v, dtype=float))
