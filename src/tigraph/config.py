"""Shared run configuration for the bound aggregator and the CLI."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

from .errors import ValidationError


@dataclass(frozen=True)
class Config:
    """Caps and tolerances for a full analysis run; every search is deterministic."""

    m_max: int = 4
    tol: float = 1e-10
    mis_budget: int = 10_000_000
    size_cap: int = 2_000_000
    state_cap: int = 100_000
    output_format: str = "text"

    def __post_init__(self) -> None:
        if self.m_max < 1:
            raise ValidationError("m_max must be >= 1")
        if not 0 < self.tol < math.inf:  # also false for nan
            raise ValidationError("tol must be positive and finite")
        for name in ("mis_budget", "size_cap", "state_cap"):
            if getattr(self, name) < 1:
                raise ValidationError(f"{name} must be positive")
        if self.output_format not in ("text", "json"):
            raise ValidationError("output_format must be 'text' or 'json'")

    def to_dict(self) -> dict:
        return asdict(self)
