"""Benchmark inputs generated from a workload seed.

Seed 0 gives the reference parameter sets exactly (c = m = b = 1, the
default refuge box).  Any other seed draws lambda, b and m from narrow
ranges around them and translates the default refuge box by up to one
1/32 cell in each direction, so the box stays aligned to the 1/32 grid and
keeps its size.  The ranges are narrow on purpose: a seed should re-check a
claim on unseen inputs without changing how much work a run does.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

DEFAULT_BOX = (0.375, 0.375, 0.625, 0.625)
# relative half-width of the ranges lambda, b and m are drawn from
SPREAD = 0.01


@dataclass(frozen=True)
class Inputs:
    """One parameter set (c = 1 throughout, mu where a workload fixes it)."""

    seed: int
    n: int
    lam: float
    b: float
    m: float
    refuge_box: tuple[float, float, float, float]

    @property
    def mu_star(self) -> float:
        """Closed-form onset c*lam/(1 + m*lam) with c = 1."""
        return self.lam / (1.0 + self.m * self.lam)


def draw(seed: int, n: int, lam: float) -> Inputs:
    """The inputs for ``seed`` on an n x n grid around the base ``lam``."""
    if seed == 0:
        return Inputs(seed, n, lam, 1.0, 1.0, DEFAULT_BOX)
    rng = random.Random(seed)

    def near(value):
        return value * rng.uniform(1.0 - SPREAD, 1.0 + SPREAD)

    dx, dy = rng.randint(-1, 1) / 32.0, rng.randint(-1, 1) / 32.0
    x0, y0, x1, y1 = DEFAULT_BOX
    return Inputs(
        seed, n, near(lam), near(1.0), near(1.0), (x0 + dx, y0 + dy, x1 + dx, y1 + dy)
    )
