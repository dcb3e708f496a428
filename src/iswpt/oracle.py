"""Brute-force reference optimizers over quantized phase grids.

These are deliberately simple exhaustive searches used as ground truth for
the iterative algorithms on small instances.  The phase grid has
`phase_levels` points -pi + 2*pi*i/levels, i = 0..levels-1, and a search
enumerates all levels**dim combinations in lexicographic order over the
digit vector (first element most significant).  Objective values come from
the shared batch evaluators in `objective`, so the oracle measures exactly
the J the algorithms optimise.

Rows are assembled from a phasor table, the `levels` complex factors of
the grid computed once per search, never from per-row exponentials or
digit arithmetic (see `_grid_search`).  Each search checks its inputs first.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .objective import (Beamformer, PhaseProfile, objective_for_beam_batch,
                        objective_for_phase_batch)
from .scenario import (ChannelSet, SystemConfig, check_channels, check_count,
                       check_finite)

_CHUNK = 1 << 15
MAX_EVALS = 1 << 20   # evaluation cap of one search


@dataclass(frozen=True)
class SearchBudget:
    """Grid resolution of one brute-force search."""

    phase_levels: int = 8

    def __post_init__(self) -> None:
        object.__setattr__(self, "phase_levels",
                           check_count("phase_levels", self.phase_levels, minimum=2))

    def grid(self) -> np.ndarray:
        """The quantized phase values in [-pi, pi)."""
        i = np.arange(self.phase_levels)
        return -np.pi + 2.0 * np.pi * i / self.phase_levels

    def check_dim(self, dim: int) -> int:
        """Total evaluation count of a search over `dim` phases; rejects overflow."""
        total = self.phase_levels ** dim
        if total > MAX_EVALS:
            raise ValueError(
                f"exhaustive search needs {total} evaluations for dim {dim}, "
                f"the cap is {MAX_EVALS}")
        return total


def _row_chunks(dim: int, levels: int, table: np.ndarray
                ) -> Iterator[tuple[int, np.ndarray]]:
    """(first flat index, factor rows) of each chunk, valid until the next."""
    low = dim
    while levels ** low > _CHUNK:
        low -= 1
    rows = np.empty((levels,) * low + (dim,), dtype=table.dtype)
    for j in range(low):
        rows[..., dim - low + j] = table.reshape((levels,) + (1,) * (low - 1 - j))
    rows = rows.reshape(levels ** low, dim)
    for high, factors in enumerate(itertools.product(table, repeat=dim - low)):
        rows[:, :dim - low] = factors
        yield high * len(rows), rows


def _grid_search(dim: int, budget: SearchBudget, table: np.ndarray,
                 score: Callable[[np.ndarray], np.ndarray]) -> tuple[np.ndarray, float]:
    """Best grid phase vector over all levels**dim rows under `score`.

    `table` is the phasor table (the complex factor of each grid phase) and
    `score` maps a (B, dim) block of factor rows to B objective values.  The
    `low` least significant digits, as many as fit levels**low <= _CHUNK,
    run through a block of all their combinations that is built once; a
    chunk is one value of the high digits, so one reused (levels**low, dim)
    buffer has only its high columns rewritten per chunk.  With more levels
    than _CHUNK (only at dim 1), low is 0 and a chunk is one row.  argmax within a
    chunk and strict > across chunks keep the smallest lexicographic index
    on ties.  The best is kept as a flat index, never as a row of the reused
    buffer, and decoded to grid phases once at the end.
    """
    budget.check_dim(dim)
    levels = budget.phase_levels
    best_score, best_index = -np.inf, None
    for start, rows in _row_chunks(dim, levels, table):
        scores = score(rows)
        local = int(np.argmax(scores))
        if float(scores[local]) > best_score:
            best_score, best_index = float(scores[local]), start + local
    assert best_index is not None
    return budget.grid()[list(np.unravel_index(best_index, (levels,) * dim))], best_score


def quantized_phase_search(channels: ChannelSet, beam: Beamformer,
                           config: SystemConfig, budget: SearchBudget
                           ) -> tuple[PhaseProfile, float]:
    """Best quantized phase profile at a fixed beamformer."""
    check_channels(config, channels)
    check_finite("beam", beam.w, (config.n_tx,))
    alpha, score = _grid_search(config.n_irs, budget, np.exp(1j * budget.grid()),
                                lambda v_rows: objective_for_phase_batch(
                                    channels, beam, config, v_rows))
    return PhaseProfile(alpha=alpha), score


def quantized_beam_search(channels: ChannelSet, phases: PhaseProfile,
                          config: SystemConfig, budget: SearchBudget
                          ) -> tuple[Beamformer, float]:
    """Best quantized constant-modulus beamformer at fixed phases."""
    check_channels(config, channels)
    check_finite("phases", phases.alpha, (config.n_irs,))
    table = config.beam_amplitude * np.exp(1j * budget.grid())
    w_phase, score = _grid_search(config.n_tx, budget, table,
                                  lambda w_rows: objective_for_beam_batch(
                                      channels, phases, config, w_rows))
    return Beamformer.from_phases(w_phase, config), score
