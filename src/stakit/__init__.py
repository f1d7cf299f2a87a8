"""Toolkit for short-term object-interaction anticipation pipelines.

Modules:

* ``linalg``: dense float64 kernels (matmul, softmax, bilinear resize)
  whose bits do not depend on operand layout.
* ``attention``: residual cross-attention operators with analytic
  backward passes and finite-difference gradient checking.
* ``affordance``: interaction-zone database, top-K retrieval, label
  priors and multiplicative fusion.
* ``hotspot``: location probability maps, the ``Detections`` table that
  carries detections from reader to writer, and score re-weighting.
* ``evaluation``: Top-5 mean average precision over noun, verb and
  time-to-contact criteria.
* ``curation``: box plus action-segment annotations to anticipation
  ground truth.
* ``formats``: JSON, JSON-lines and CSV codecs for all of the above.
* ``cli`` / ``demo``: the ``stakit`` command and a seeded synthetic
  end-to-end pipeline.
"""

from . import affordance, attention, curation, evaluation, formats, hotspot, linalg

__version__ = "0.1.0"

__all__ = [
    "affordance",
    "attention",
    "curation",
    "evaluation",
    "formats",
    "hotspot",
    "linalg",
    "__version__",
]
