"""Deterministic, counter-based random state.

Every randomized operation takes an explicit :class:`RngState`. Two kinds of
draw exist:

* :meth:`RngState.child` returns an independent sub-stream, a generator
  derived from ``(seed, stream)``. Data generation uses it (``haar_frame``,
  ``svd_gap_matrix``, ``synth_labels``).
* :meth:`RngState.draw` serves the many small per-iteration draws (the
  coarse operator, row and batch samples). The first one is ``child()``; the
  state keeps that generator and every later draw continues it, so an
  iteration does not pay for a new ``SeedSequence`` and ``Generator``.

Both advance the stream counter by one per draw, so an identical seed plus an
identical call sequence reproduces identical outputs bit for bit,
independent of global RNG state.
"""

from dataclasses import dataclass, field
from typing import Optional

import numpy as np


@dataclass
class RngState:
    """Seeded state threaded through all randomized operations.

    ``child()`` gives an independent sub-stream for each call; ``draw()``
    gives one generator per state, created by the state's first ``draw()``
    (which has the bits of a ``child()`` at that stream position) and
    continued by every later one. Not shareable between threads; give each
    parallel task its own instance.
    """

    seed: int
    stream: int = field(default=0)
    _gen: Optional[np.random.Generator] = field(default=None, init=False, repr=False,
                                                compare=False)

    def child(self) -> np.random.Generator:
        """Return a fresh generator for one draw and advance the counter."""
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream,))
        self.stream += 1
        return np.random.default_rng(ss)

    def draw(self) -> np.random.Generator:
        """The state's own generator for one draw; advances the counter."""
        if self._gen is None:
            self._gen = self.child()
        else:
            self.stream += 1
        return self._gen
