"""Built-in slice discovery methods.

Importing a method's module registers it with the registry in
:mod:`repro.slices.discovery`, which imports all three on its first lookup,
so ``get_discovery_method("kmeans")`` works without an explicit import.

* :mod:`~repro.slices.methods.stump` — ``"stump"``: error-driven
  feature-threshold rule induction.
* :mod:`~repro.slices.methods.kmeans` — ``"kmeans"``: error-aware k-means
  in feature space.
* :mod:`~repro.slices.methods.auto` — ``"auto"``: the Appendix-A
  :class:`~repro.slices.auto_slicer.AutoSlicer` on the discovery protocol.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".auto": ("AutoSliceDiscovery",),
        ".kmeans": ("ErrorKMeansDiscovery",),
        ".stump": ("ErrorStumpDiscovery",),
    },
)
