"""Data slicing: slice definitions, partition management, slice discovery.

A *slice* is a named subset of the training data (Section 2.1 of the paper);
the slices partition the dataset.  The central container is
:class:`~repro.slices.sliced_dataset.SlicedDataset`, which keeps per-slice
training data, per-slice validation data, and per-slice acquisition cost, and
is the object the Slice Tuner core operates on.

Slices can be *given* (the paper's setting), produced by the Appendix-A
:class:`~repro.slices.auto_slicer.AutoSlicer`, or *discovered* from model
behaviour through the pluggable :mod:`~repro.slices.discovery` registry
(``get_discovery_method`` / ``available_discovery_methods``), whose built-in
methods live in :mod:`~repro.slices.methods`.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".auto_slicer": ("AutoSlicer", "SliceCandidate"),
        ".discovery": (
            "SliceDiscoveryMethod",
            "available_discovery_methods",
            "discovery_method_descriptions",
            "get_discovery_method",
            "is_discovery_method",
            "register_discovery_method",
            "unregister_discovery_method",
        ),
        ".predicates": ("FeaturePredicate", "partition_by_predicates"),
        ".slice": ("Slice", "SliceSpec"),
        ".sliced_dataset": ("SlicedDataset",),
        ".validation": (
            "check_discovered_partition",
            "check_partition",
            "imbalance_ratio",
        ),
    },
)
