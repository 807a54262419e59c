"""Learning parameters shared by feature generation and tree growth."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

RESTRICTED = "restricted"
UNRESTRICTED = "unrestricted"


@dataclass(frozen=True)
class LearnParams:
    """Knobs of the learner and the feature generator.

    ``max_depth`` may be ``math.inf`` for unbounded trees.  ``domsize_abs``
    and ``domsize_rel`` gate the contains-value feature family: boolean
    contains columns are generated only for categorical attributes whose
    base-table domain size is strictly below both thresholds.
    """

    min_ig: float = 0.001
    min_inst: int = 3
    max_depth: float = math.inf
    strategy: str = RESTRICTED
    domsize_abs: int = 40
    domsize_rel: float = 0.2

    def __post_init__(self) -> None:
        for name in ("min_ig", "max_depth"):
            if math.isnan(getattr(self, name)):
                raise ValueError(f"{name} must be a number, not NaN")
        if self.min_inst < 1:
            raise ValueError("min_inst must be >= 1")
        if not 0.0 <= self.domsize_rel <= 1.0:
            raise ValueError("domsize_rel must be within [0, 1]")
        if self.max_depth < 0:
            raise ValueError("max_depth must be >= 0")
        if self.strategy not in (RESTRICTED, UNRESTRICTED):
            raise ValueError(f"unknown strategy: {self.strategy!r}")


def params_doc(p: LearnParams) -> dict:
    """The params as a JSON-ready dict; unbounded ``max_depth`` becomes ``None``."""
    doc = asdict(p)
    if math.isinf(p.max_depth):
        doc["max_depth"] = None
    return doc
