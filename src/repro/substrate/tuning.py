"""Opt-in id-dtype narrowing for the columnar hot paths.

The vectorized kernel stores node ids as ``int64``.  At ``n >= 10^7`` the
id arrays dominate the memory traffic of a round (targets, senders,
receiver positions, parent pointers), and halving them to ``int32``
measurably reduces the bandwidth bound.  ``narrow_ids`` is **off by
default**: it is semantically exact — ids are drawn from the shared RNG
stream at full width and only *stored* narrow, so the stream, every
message fate, and every count are unchanged — but a narrowed array that
protocols hand back to user code changes dtype.

Use :func:`tuned` as a context manager around a run, or :func:`set_tuning`
for a process-wide default::

    from repro.substrate import tuning
    with tuning.tuned(narrow_ids=True):
        drr_gossip_average(values, rng=1)
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, replace

import numpy as np

__all__ = ["KernelTuning", "get_tuning", "set_tuning", "tuned"]

#: ids above this cannot be narrowed to int32 (kept well below 2**31 so
#: derived quantities like ``size * (n + 1) + id`` stay safe in float64).
_INT32_MAX_N = 2**31 - 2


@dataclass(frozen=True)
class KernelTuning:
    """Immutable narrowing configuration consulted by the hot paths."""

    #: store node-id arrays as int32 (ids are still *drawn* at full width)
    narrow_ids: bool = False

    def id_dtype(self, n: int) -> np.dtype:
        """Storage dtype for node-id arrays over a population of ``n``."""
        if self.narrow_ids and n <= _INT32_MAX_N:
            return np.dtype(np.int32)
        return np.dtype(np.int64)


_current = KernelTuning()


def get_tuning() -> KernelTuning:
    """The active narrowing configuration (defaults: everything off)."""
    return _current


def set_tuning(**flags: bool) -> KernelTuning:
    """Set the process-wide tuning; returns the new configuration."""
    global _current
    _current = replace(_current, **flags)
    return _current


@contextlib.contextmanager
def tuned(**flags: bool):
    """Context manager applying narrowing flags for the enclosed runs."""
    global _current
    previous = _current
    _current = replace(previous, **flags)
    try:
        yield _current
    finally:
        _current = previous
