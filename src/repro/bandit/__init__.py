"""Multi-armed bandit comparator (Section 7, related work).

The paper observes that selective data acquisition can be viewed as a rotting
bandit problem: each slice is an arm whose reward (loss reduction per
acquired batch) decays as more data is acquired for it.  The
:class:`~repro.bandit.rotting.RottingBanditAcquirer` implements a
sliding-window UCB policy over slices and is used as an ablation baseline to
show what a model-free sequential policy achieves compared to Slice Tuner's
learning-curve-driven optimization.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".rotting": ("BanditResult", "RottingBanditAcquirer"),
    },
)
