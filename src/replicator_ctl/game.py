"""Static game structure: populations, payoff matrices, and output aggregation.

A scenario describes m >= 2 populations of agents sharing one action set of
size n >= 2.  Population k holds a fixed share ``v^k`` of all agents and an
n x n payoff matrix ``A^k``; entry (i, j) is what an agent earns playing
action i against an opponent playing action j.  Matches are drawn from the
whole society, so the opponent's action is distributed like the aggregate
output ``y``, the population-weighted mean of the per-population action
shares.  Everything downstream (vector fields, stability analysis, the
finite-agent simulator) consumes these primitives.

States live on products of probability simplices:

* a population state ``x^k`` is a point of the n-simplex,
* a state combination ``x`` stacks the m rows into an (m, n) array,
* the output ``y = sum_k v^k x^k`` is again a simplex point.

:func:`check_simplex` is the one test of such points; its floor is
-COORD_TOLERANCE for a target, ``integrate.INTERIOR_FLOOR`` for an
integration or command-line start and 0 for ``agents.init_agents``.

Scenario is frozen with read-only arrays and every function here is pure,
so all can be used concurrently; the head counts of
`agents.AgentPopulation` are the one record that changes by design.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import Any

import numpy as np

__all__ = [
    "CARRIER_THRESHOLD",
    "COORD_TOLERANCE",
    "LATTICE_BYTE_BUDGET",
    "SUM_TOLERANCE",
    "Scenario",
    "ScenarioError",
    "aggregate_output",
    "carrier",
    "check_count",
    "check_lattice_budget",
    "check_real",
    "check_simplex",
    "check_state_budget",
    "lattice_product",
    "scenario_digest",
    "simplex_lattice",
    "weighted_sum",
]

# Strict-positivity threshold for carrier membership; absorbs integration
# round-off so carrier sets cannot flicker from noise.
CARRIER_THRESHOLD = 1e-12

# Rows sum to 1 within SUM_TOLERANCE; a target's floor is -COORD_TOLERANCE.
SUM_TOLERANCE = 1e-9
COORD_TOLERANCE = 1e-12

# Population shares must sum to 1 within this absolute tolerance.
SHARE_SUM_TOLERANCE = 1e-12

# Most bytes a lattice product may take as float64 (count * m * n * 8).
# Larger grids are refused before anything is allocated.
LATTICE_BYTE_BUDGET = 300_000_000


class ScenarioError(ValueError):
    """Raised when a scenario description violates its invariants."""


@dataclass(frozen=True)
class Scenario:
    """Immutable game description: payoff matrices and population shares.

    Attributes
    ----------
    payoffs : ndarray, shape (m, n, n)
        payoffs[k] is the matrix for population k.
    shares : ndarray, shape (m,)
        Population shares, each in (0, 1), summing to 1.
    """

    payoffs: np.ndarray
    shares: np.ndarray

    def __post_init__(self) -> None:
        payoffs = np.asarray(self.payoffs, dtype=float)
        shares = np.asarray(self.shares, dtype=float)
        if payoffs.ndim != 3 or payoffs.shape[1] != payoffs.shape[2]:
            raise ScenarioError(
                f"payoffs must be (m, n, n), got shape {payoffs.shape}"
            )
        m, n = payoffs.shape[0], payoffs.shape[1]
        if m < 2:
            raise ScenarioError(f"at least 2 populations required, got {m}")
        if n < 2:
            raise ScenarioError(f"at least 2 actions required, got {n}")
        if shares.shape != (m,):
            raise ScenarioError(
                f"expected {m} population shares, got shape {shares.shape}"
            )
        if not np.all(np.isfinite(payoffs)):
            bad = np.argwhere(~np.isfinite(payoffs))[0]
            raise ScenarioError(
                f"non-finite payoff entry at population {bad[0]}, "
                f"row {bad[1]}, column {bad[2]}"
            )
        if np.any(shares <= 0.0) or np.any(shares >= 1.0):
            raise ScenarioError(
                f"population shares must lie strictly in (0, 1), got {shares}"
            )
        if abs(shares.sum() - 1.0) > SHARE_SUM_TOLERANCE:
            raise ScenarioError(
                f"population shares must sum to 1, got {float(shares.sum())}"
            )
        for name, value in (("payoffs", payoffs), ("shares", shares)):
            value = value.copy()
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    @property
    def n_populations(self) -> int:
        return self.payoffs.shape[0]

    @property
    def n_actions(self) -> int:
        return self.payoffs.shape[1]

    @property
    def payoff_max(self) -> float:
        return float(self.payoffs.max())

    @property
    def payoff_min(self) -> float:
        return float(self.payoffs.min())

    @classmethod
    def from_dict(cls, raw: dict[str, Any]) -> "Scenario":
        """Build a scenario from a parsed description.

        Expected shape: ``{"populations": [{"share": s, "payoff": [[...]]},
        ...]}``, one entry per population.
        """
        if not isinstance(raw, dict) or "populations" not in raw:
            raise ScenarioError('scenario must be an object with a "populations" list')
        pops = raw["populations"]
        if not isinstance(pops, list) or len(pops) == 0:
            raise ScenarioError('"populations" must be a non-empty list')
        shares = []
        payoffs = []
        for idx, pop in enumerate(pops):
            if not isinstance(pop, dict) or "share" not in pop or "payoff" not in pop:
                raise ScenarioError(
                    f'populations[{idx}] must have "share" and "payoff" fields'
                )
            try:
                check_real(f"populations[{idx}].share", pop["share"])
                for entry in np.asarray(pop["payoff"], dtype=object).flat:
                    check_real(f"populations[{idx}].payoff entry", entry)
            except ValueError as exc:
                raise ScenarioError(str(exc)) from exc
            shares.append(float(pop["share"]))
            matrix = np.asarray(pop["payoff"], dtype=float)
            if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
                raise ScenarioError(
                    f"populations[{idx}].payoff must be square, got {matrix.shape}"
                )
            payoffs.append(matrix)
        n = payoffs[0].shape[0]
        for idx, matrix in enumerate(payoffs):
            if matrix.shape != (n, n):
                raise ScenarioError(
                    f"populations[{idx}].payoff is {matrix.shape}, expected ({n}, {n})"
                )
        return cls(payoffs=np.stack(payoffs), shares=np.array(shares))

    @classmethod
    def from_file(cls, path: str) -> "Scenario":
        try:
            with open(path, "r", encoding="utf-8") as handle:
                raw = json.load(handle)
        except OSError as exc:
            raise ScenarioError(f"{path}: {exc.strerror or exc}") from exc
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"{path}: invalid JSON at line {exc.lineno}, "
                                f"column {exc.colno}: {exc.msg}") from exc
        try:
            return cls.from_dict(raw)
        except ScenarioError as exc:
            raise ScenarioError(f"{path}: {exc}") from exc

    def to_dict(self) -> dict[str, Any]:
        return {
            "populations": [
                {"share": float(v), "payoff": matrix.tolist()}
                for v, matrix in zip(self.shares, self.payoffs)
            ]
        }


def scenario_digest(scenario: Scenario) -> str:
    """SHA-256 of the canonical JSON form, for output provenance headers."""
    canonical = json.dumps(scenario.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def check_simplex(z: Any, label: str, shape: tuple[int, ...],
                  floor: float) -> np.ndarray:
    """``z`` as a float array; ValueError naming ``label`` unless it has
    ``shape``, finite shares none below ``floor``, and rows (last axis)
    summing to 1 within SUM_TOLERANCE."""
    z = np.asarray(z, dtype=float)
    if z.shape != shape:
        raise ValueError(f"{label}: expected shape {shape}, got {z.shape}")
    if z.size == 0:
        raise ValueError(f"{label} is empty")
    if not np.all(np.isfinite(z)):
        raise ValueError(f"{label}: non-finite share in {z.tolist()}")
    if z.min() < floor:
        raise ValueError(f"{label}: share {float(z.min())} is below {floor}")
    for total in z.sum(axis=-1).ravel().tolist():
        if abs(total - 1.0) > SUM_TOLERANCE:
            raise ValueError(f"{label}: shares sum to {total}, expected 1 "
                             f"within {SUM_TOLERANCE}")
    return z


def check_count(name: str, value: Any) -> None:
    """Raise ValueError unless value is an integer >= 0 (a bool is not)."""
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or value < 0):
        raise ValueError(f"{name} must be an integer >= 0, got {value!r}")


def check_real(name: str, value: Any) -> None:
    """Raise ValueError unless value is a real number (a bool or a string
    is not)."""
    if (isinstance(value, bool)
            or not isinstance(value, (int, float, np.integer, np.floating))):
        raise ValueError(f"{name} must be a real number, got {value!r}")


def aggregate_output(x: np.ndarray, scenario: Scenario) -> np.ndarray:
    """Population-weighted action shares y_i = sum_k v^k x[k, i], a
    :func:`weighted_sum` of ``x``, shape (m, n, *batch), into (n, *batch).
    This is the only quantity the controller observes; it is a convex
    combination of simplex rows and therefore itself a simplex point."""
    x = np.asarray(x, dtype=float)
    return weighted_sum(scenario.shares.reshape(-1, *[1] * (x.ndim - 1)), x)


def weighted_sum(weights: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """Sum of weights[k] * terms[k] over the leading axis, the contraction
    behind y, A^k y and <x, F>: one multiply of the arrays as they
    broadcast, then the products added in index order, p[0] + p[1], then
    += p[2], ..., elementwise along the other axes (no BLAS, and no
    reduction ufunc, whose inner loops may reorder the adds), so an entry's
    bits do not depend on the rest of the array.  The result is fresh."""
    products = weights * terms
    if len(products) == 1:
        return products[0]
    total = products[0] + products[1]
    for k in range(2, len(products)):
        total += products[k]
    return total


def carrier(z: np.ndarray) -> np.ndarray:
    """Indices of strictly positive shares (above the round-off threshold)."""
    return np.flatnonzero(np.asarray(z, dtype=float) > CARRIER_THRESHOLD)


def check_state_budget(count: int, n_populations: int, n_actions: int,
                       source: str) -> None:
    """Raise ValueError unless ``count`` float64 states of shape
    (n_populations, n_actions), made by ``source``, fit the budget."""
    nbytes = count * n_populations * n_actions * 8
    if nbytes > LATTICE_BYTE_BUDGET:
        raise ValueError(
            f"{source} give {count:,} states "
            f"({nbytes:,} bytes) for {n_populations} populations of {n_actions} "
            f"actions, over the budget of {LATTICE_BYTE_BUDGET:,} bytes"
        )


def check_lattice_budget(n_populations: int, n_actions: int,
                         per_dim: int) -> None:
    """Raise ValueError, allocating nothing, unless the product lattice fits."""
    if per_dim < 2:
        raise ValueError(f"per_dim must be >= 2, got {per_dim}")
    check_state_budget(
        math.comb(per_dim + n_actions - 2, n_actions - 1) ** n_populations,
        n_populations, n_actions, f"{per_dim} points per simplex edge")


def simplex_lattice(n_actions: int, per_dim: int) -> np.ndarray:
    """Compositions of per_dim - 1 into n_actions parts, scaled, in product order.

    Each partial composition is repeated once per value its next part can
    take, so no array outgrows the lattice.
    """
    total = per_dim - 1
    head = np.zeros((1, 0), dtype=np.int64)
    for _ in range(n_actions - 1):
        room = total + 1 - head.sum(axis=1)
        start = np.cumsum(room) - room
        part = np.arange(room.sum()) - np.repeat(start, room)
        head = np.column_stack([np.repeat(head, room, axis=0), part])
    return np.column_stack([head, total - head.sum(axis=1)]) / float(total)


def lattice_product(lattice: np.ndarray, n_populations: int, start: int = 0,
                    stop: int | None = None) -> np.ndarray:
    """Rows [start, stop), sliced as a list's, of one lattice row per
    population in ``itertools.product`` order: (rows, m, n), all by default."""
    shape = (lattice.shape[0],) * n_populations
    rows = range(math.prod(shape))[start:stop]
    # nested: one (rows, m) index at a time; take: 4x faster than indexing
    return lattice.take(np.stack(np.unravel_index(
        np.arange(rows.start, rows.stop), shape), axis=1), axis=0)
