"""Simulation backend selection.

Two interchangeable, bit-identical batch engines exist:

* ``"compiled"`` — :class:`~repro.sim.engine.CompiledEngine`, generated
  straight-line Python executed per vector.  Runs every valid design.
* ``"vectorized"`` — :class:`~repro.sim.vectorized.VectorizedEngine`,
  generated NumPy array programs executed per *block*.  Refuses, with
  :class:`~repro.sim.vectorized.VectorizationError`, designs wider than
  its int64 headroom and designs whose guarded state forms a
  cross-vector recurrence.
* ``"auto"`` — vectorized when the design's width fits the array
  engine's headroom (``VECTOR_WIDTH_LIMIT``) and its plan has no
  recurrence, else compiled.

Every engine handed out carries a ``chosen_backend`` attribute naming
the engine actually constructed (``auto`` may resolve to either);
the compiled fallback is logged on the ``repro.sim.backend`` logger.

:func:`create_engine` is the single construction point the power
estimator, the pipeline's verify stage and ``explore()`` go through.
"""

from __future__ import annotations

import logging

from repro.rtl.design import SynthesizedDesign
from repro.sim.engine import CompiledEngine
from repro.sim.vectorized import VectorizationError, VectorizedEngine

BACKENDS = ("compiled", "vectorized", "auto")

logger = logging.getLogger("repro.sim.backend")


def _tag(engine, chosen: str):
    engine.chosen_backend = chosen
    return engine


def create_engine(design: SynthesizedDesign, power_management: bool = True,
                  backend: str = "auto"):
    """Build the batch engine ``backend`` names for ``design``.

    ``"auto"`` selects the vectorized engine whenever the design lowers
    to an array program, else the compiled one.  An explicit
    ``"vectorized"`` raises :class:`VectorizationError` instead.  The
    returned engine's ``chosen_backend`` attribute records the
    resolution.
    """
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown simulation backend {backend!r}; "
            f"choose one of {', '.join(BACKENDS)}")
    if backend != "compiled":
        try:
            return _tag(VectorizedEngine(design,
                                         power_management=power_management),
                        "vectorized")
        except VectorizationError as exc:
            if backend == "vectorized":
                raise
            logger.info("auto backend resolved to compiled for %r: %s",
                        design.graph.name, exc)
    return _tag(CompiledEngine(design, power_management=power_management),
                "compiled")
