"""Shared run configuration for the bound aggregator and the CLI."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

from .errors import ValidationError
from .higher import DEFAULT_SIZE_CAP
from .independence import DEFAULT_BUDGET
from .sofic import DEFAULT_STATE_CAP
from .spectral import DEFAULT_TOL


@dataclass(frozen=True)
class Config:
    """Caps and tolerances for a full analysis run; every search is deterministic."""

    m_max: int = 4
    tol: float = DEFAULT_TOL
    mis_budget: int = DEFAULT_BUDGET
    size_cap: int = DEFAULT_SIZE_CAP
    state_cap: int = DEFAULT_STATE_CAP
    output_format: str = "text"

    def __post_init__(self) -> None:
        # type(x) is int: a bool, a float or a string is refused, not coerced
        for name in ("m_max", "mis_budget", "size_cap", "state_cap"):
            if type(getattr(self, name)) is not int:
                raise ValidationError(f"{name} must be an int")
        if self.m_max < 1:
            raise ValidationError("m_max must be >= 1")
        if isinstance(self.tol, bool) or not isinstance(self.tol, (int, float)):
            raise ValidationError("tol must be a number")
        if not 0 < self.tol < math.inf:  # also false for nan
            raise ValidationError("tol must be positive and finite")
        for name in ("mis_budget", "size_cap", "state_cap"):
            if getattr(self, name) < 1:
                raise ValidationError(f"{name} must be positive")
        if self.output_format not in ("text", "json"):
            raise ValidationError("output_format must be 'text' or 'json'")

    def to_dict(self) -> dict:
        return asdict(self)
