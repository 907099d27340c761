"""Fairness measures.

The paper's unfairness measure (Definition 1) extends *equalized error rates*:
the average absolute difference between each slice's loss and the loss on the
entire dataset.  The maximum variant captures worst-case unfairness.  Classic
group-fairness measures (demographic parity difference, equalized odds
difference) are also provided for context, although Slice Tuner itself only
optimizes equalized error rates.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".metrics": (
            "average_equalized_error_rates",
            "demographic_parity_difference",
            "equalized_odds_difference",
            "max_equalized_error_rates",
            "unfairness",
        ),
        ".report": ("FairnessReport", "evaluate_fairness"),
    },
)
