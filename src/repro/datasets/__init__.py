"""Synthetic dataset generators standing in for the paper's four datasets.

Each builder returns a :class:`~repro.datasets.blueprints.SyntheticTask`
describing the slices (names, class structure, difficulty, similarity,
acquisition cost) of one of the paper's experimental datasets:

* :func:`~repro.datasets.fashion.fashion_like_task` — Fashion-MNIST:
  10 label-defined slices of one homogeneous source.
* :func:`~repro.datasets.mixed.mixed_like_task` — Mixed-MNIST: 20 slices
  from two sources with very different difficulty.
* :func:`~repro.datasets.faces.faces_like_task` — UTKFace: 8 race x gender
  slices for race classification, per-slice crowdsourcing costs (Table 1),
  and a similarity structure that reproduces the Figure 7 influence effect.
* :func:`~repro.datasets.adult.adult_like_task` — AdultCensus: binary income
  prediction with 4 race x gender slices and a nearly flat learning curve.

The generators are infinite (simulator-style) sources: any number of fresh
examples can be drawn per slice, which is how the reproduction "acquires"
data in place of dataset search or Amazon Mechanical Turk.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".adult": ("adult_like_task",),
        ".blueprints": ("SliceBlueprint", "SyntheticTask"),
        ".faces": ("UTKFACE_COSTS", "faces_like_task"),
        ".fashion": ("fashion_like_task",),
        ".mixed": ("mixed_like_task",),
        ".registry": ("available_tasks", "build_task"),
    },
)
