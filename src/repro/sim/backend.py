"""Simulation backend selection.

Two interchangeable, bit-identical batch engines exist:

* ``"compiled"`` — :class:`~repro.sim.engine.CompiledEngine`, generated
  straight-line Python executed per vector.  Accepts any width; the
  fallback for designs too wide for the array engine.
* ``"vectorized"`` — :class:`~repro.sim.vectorized.VectorizedEngine`,
  generated NumPy array programs executed per *block*, with a hybrid
  scalar micro-loop covering recurrent guarded state.  Total over valid
  designs up to the int64 width headroom.
* ``"auto"`` — vectorized when the design's width fits the array
  engine's headroom (``VECTOR_WIDTH_LIMIT``), else compiled.  Since the
  hybrid plan landed no valid design within that width is refused by
  the vectorized engine, so nothing is swallowed silently.

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
from repro.sim.vectorized import VECTOR_WIDTH_LIMIT, VectorizedEngine

BACKENDS = ("compiled", "vectorized", "auto")

logger = logging.getLogger("repro.sim.backend")


def _tag(engine, chosen: str):
    engine.chosen_backend = chosen
    return engine


def create_engine(design: SynthesizedDesign, power_management: bool = True,
                  backend: str = "auto"):
    """Build the batch engine ``backend`` names for ``design``.

    ``"auto"`` selects the vectorized engine whenever the design's word
    width fits its numeric envelope, else the compiled one.  The
    returned engine's ``chosen_backend`` attribute records the
    resolution.
    """
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown simulation backend {backend!r}; "
            f"choose one of {', '.join(BACKENDS)}")
    if backend == "vectorized" or (backend == "auto"
                                   and design.width <= VECTOR_WIDTH_LIMIT):
        return _tag(VectorizedEngine(design,
                                     power_management=power_management),
                    "vectorized")
    if backend == "auto":
        logger.info("auto backend resolved to compiled for %r (width %d)",
                    design.graph.name, design.width)
    return _tag(CompiledEngine(design, power_management=power_management),
                "compiled")
