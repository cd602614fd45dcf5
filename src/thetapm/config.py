"""Run configuration shared by the library entry points and the CLI."""

from __future__ import annotations

from dataclasses import dataclass

from .exceptions import InvalidArgument
from .padics import odd_prime


@dataclass
class RunConfig:
    p: int = 3
    n_max: int = 6
    cache_dir: str = None
    strict_hypotheses: bool = False
    auto_extend: bool = True

    def __post_init__(self):
        self.validate()

    def validate(self):
        odd_prime(self.p)
        if self.n_max < 2:
            raise InvalidArgument("n_max must be at least 2")
        return self
