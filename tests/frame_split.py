"""Force ``vectorized`` to split small batches, so tests can check the
frame split of :mod:`repro.engine.vectorized` on a few frames."""

from contextlib import contextmanager

import pytest

from repro.engine import vectorized


@contextmanager
def forced_split():
    """Within the block, ``vectorized`` runs every batch of two or more
    frames as up to three frame parts, one thread each, whatever this
    machine's CPU count: ``part_count`` reads ``PART_FRAMES`` 1 and
    ``CPUS`` 3."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(vectorized, "PART_FRAMES", 1)
        patch.setattr(vectorized, "CPUS", 3)
        yield
