"""Job-runtime model: Normal(mean 1, std 0.1), truncated positive.

The paper assumes roughly equal job durations — normal with mean 1 and
standard deviation 0.1 — arguing a server could benchmark jobs and match
them to workers.  Negative samples are astronomically unlikely at that
parameterization (~1e-23) but are clamped to a small positive floor so the
simulator is safe under any user-supplied parameters.
"""

from __future__ import annotations

import numpy as np

__all__ = ["RuntimeSampler"]

_CHUNK = 4096


class RuntimeSampler:
    """Chunked sampler of job execution times."""

    #: Lower clamp applied to every sample.
    FLOOR = 1e-6

    def __init__(
        self,
        rng: np.random.Generator,
        *,
        mean: float = 1.0,
        std: float = 0.1,
        chunk: int = _CHUNK,
    ):
        if mean <= 0:
            raise ValueError("mean runtime must be positive")
        if std < 0:
            raise ValueError("runtime std cannot be negative")
        self._rng = rng
        self._mean = float(mean)
        self._std = float(std)
        self._chunk = int(chunk)
        self._buf: np.ndarray = np.empty(0)
        self._pos = 0

    def _refill(self, at_least: int) -> None:
        size = max(self._chunk, at_least)
        if self._std == 0.0:
            buf = np.full(size, self._mean)
        else:
            buf = self._rng.normal(self._mean, self._std, size=size)
            np.maximum(buf, self.FLOOR, out=buf)
        self._buf = buf
        self._pos = 0

    def draw(self, k: int) -> np.ndarray:
        """*k* runtime samples."""
        if self._pos + k > len(self._buf):
            self._refill(k)
        out = self._buf[self._pos: self._pos + k]
        self._pos += k
        return out

    def refill_block(self, at_least: int) -> np.ndarray:
        """Draw one refill block and hand it over (consumed).

        Block-draw API for the batched kernel: the generator is advanced
        by exactly one ``_refill(at_least)`` — the same draw, same size,
        same clamp as the per-draw path — and the fresh buffer is
        *transferred* to the caller: the sampler forgets it, so a caller
        keeping replication cursors of its own does not pin a second copy
        of every buffer in memory.  A later :meth:`draw` starts a new
        chunk rather than re-serving these samples.
        """
        self._refill(at_least)
        buf = self._buf
        self._buf = np.empty(0)
        self._pos = 0
        return buf
