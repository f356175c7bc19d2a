"""Shared evaluation-result container."""
from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class EvalResult:
    value: float
    abs_err_est: float
    method: str
    diagnostics: dict = field(default_factory=dict)
