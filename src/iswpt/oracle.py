"""Brute-force reference optimizers over quantized phase grids.

Exhaustive searches, the ground truth for the iterative algorithms on
small instances.  The phase grid has `phase_levels` points
-pi + 2*pi*i/levels, i = 0..levels-1, and a search covers all levels**dim
combinations in lexicographic order over the digit vector (first element
most significant); ties go to the smallest lexicographic index.  Rows are
assembled from a phasor table, the `levels` complex factors of the grid
computed once per search, never from per-row exponentials or digits, and
scored by `objective.objective_for_phase_batch` or
`objective.objective_for_beam_batch`, through `objective.solution_metrics`,
the one evaluation of J.

Every row is screened before any is scored.  With one variable frozen, J
of a row x is the Gram form sum_k w_k |x . r_k + o_k|^2 of the rows
`objective` builds (`objective.phase_rows` with its offsets o,
`objective.beam_rows` with none).  Splitting x into its first dim//2
digits, a head, and the rest, a tail, makes the screen of every row one
real product (`_screened`), a meet in the middle.  Only rows whose
screened J lies within `_margin`, a rounding bound, of the best are
scored, so every row that scores the maximum is scored (`_grid_search`).
A row's score may differ in its last bits from the one it gets among
other rows, as BLAS rounds by call size.

Each search checks its inputs first and runs under
`scenario._one_blas_thread`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .objective import (Beamformer, PhaseProfile, beam_rows, energy_weight,
                        objective_for_beam_batch, objective_for_phase_batch,
                        phase_rows)
from .scenario import (ChannelSet, SystemConfig, _one_blas_thread, check_channels,
                       check_count, check_finite)

_CHUNK = 1 << 12      # rows per score call
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


def _digit_block(table: np.ndarray, k: int) -> np.ndarray:
    """The (levels**k, k) factor rows of all k-digit combinations, in
    lexicographic order."""
    levels = len(table)
    rows = np.empty((levels,) * k + (k,), dtype=table.dtype)
    for j in range(k):
        rows[..., j] = table.reshape((levels,) + (1,) * (k - 1 - j))
    return rows.reshape(levels ** k, k)


def _screened(table: np.ndarray, rows: np.ndarray, weights: np.ndarray,
              offsets: np.ndarray) -> np.ndarray:
    """Screened J of every grid row, a (levels**(dim//2), T) array, so entry
    (i, j) has flat lexicographic index i*T + j.  `rows` is (P, dim),
    `weights` W and `offsets` length P.  The row x of head i and tail j has
    x . r_k + o_k = A_ik + B_jk, the offsets going with the head; with
    a_i = sum_k w_k |A_ik|^2 and b_j alike, one real product of [2w Re A,
    2w Im A, a, 1] against [Re B, Im B, 1, b] gives
    a_i + b_j + 2 Re(A_i W B_j^H)."""
    half = rows.shape[1] // 2
    head = _digit_block(table, half) @ rows[:, :half].T + offsets
    tail = _digit_block(table, rows.shape[1] - half) @ rows[:, half:].T
    left = np.column_stack([2.0 * weights * head.real, 2.0 * weights * head.imag,
                            (head.real ** 2 + head.imag ** 2) @ weights,
                            np.ones(len(head))])
    right = np.column_stack([tail.real, tail.imag, np.ones(len(tail)),
                             (tail.real ** 2 + tail.imag ** 2) @ weights])
    return left @ right.T


def _margin(table: np.ndarray, rows: np.ndarray, weights: np.ndarray,
            offsets: np.ndarray) -> float:
    """4*c*u*S, twice the summed rounding bounds of screen and score.

    With m_k = max|table| * sum_j |r_kj| + |o_k|, each |x . r_k + o_k| <= m_k
    and J <= S = sum_k w_k m_k^2 (w_k >= 0).  In the standard model without
    underflow (unit roundoff u, g_n = n*u/(1 - n*u)), for dim digits and P rows:
    a complex dot of length <= dim plus an offset has real and imaginary
    parts that are sums of <= 2*dim + 1 rounded terms in any order, so it is
    off by <= e*m_k, e = sqrt(2)*g_{2 dim + 1}; this holds for the score's
    products and for A and B, whose bounds add up to m_k.  So each squared
    modulus moves by <= (2e + e^2)*m_k^2.  Each term then takes <= 3P + 3
    relative roundings: the score's hypot and square (2), group sum
    (P - 1), weight and products (3: eta, rho*p0 or 1 - rho) and group add
    (P + 5 <= 3P + 3); in the screen, one real dot of the 2P + 2 terms
    2w Re A Re B, 2w Im A Im B, a*1 and 1*b, a cross term's scaling by 2w
    and the dot (2P + 3), and a term of a or b its squares and add, the
    weighted dot of length P and the dot's sums (3P + 3).  As |Re A Re B| +
    |Im A Im B| <= |A| |B|, the terms' moduli sum to <= (1 + e)^2*S.  So
    delta_screen, delta_score <= (2e + e^2 + g_{3P+3}*(1 + e)^2)*S <= c*u*S
    with c = 6*dim + 4*P + 6, as 2e <= 2.9*(2*dim + 1)*u and
    g_{3P+3}*(1 + e)^2 <= 1.02*(3P + 3)*u; the slack covers rounding in S.
    A row that scores the maximum J* screens at least J* - delta_score -
    delta_screen, and no row screens above J* + delta_score + delta_screen,
    so a margin of twice their sum keeps it.
    """
    reach = np.abs(table).max() * np.abs(rows).sum(axis=1) + np.abs(offsets)
    c = 6 * rows.shape[1] + 4 * len(rows) + 6
    return 4.0 * c * (np.finfo(float).eps / 2.0) * float(weights @ reach ** 2)


def _grid_search(budget: SearchBudget, table: np.ndarray, rows: np.ndarray,
                 weights: np.ndarray, offsets: np.ndarray,
                 score: Callable[[np.ndarray], np.ndarray]) -> tuple[np.ndarray, float]:
    """Best grid phase vector over all levels**dim rows under `score`.

    `table` is the phasor table and `score` maps a (B, dim) block of factor
    rows to B values of the Gram form of `rows`, `weights` and `offsets`
    (module docstring), up to rounding.  The rows whose screened J lies
    within `_margin` of the best (all of them if a value is NaN), looked for
    only in the heads whose maximum does, are scored in lexicographic order,
    at most _CHUNK per call, with argmax within a call and strict > across
    calls.  The best is kept as a flat index and decoded to grid phases
    once at the end.
    """
    shape = (budget.phase_levels,) * rows.shape[1]
    budget.check_dim(len(shape))
    screened = _screened(table, rows, weights, offsets)
    peaks = screened.max(axis=1)
    floor = peaks.max() - _margin(table, rows, weights, offsets)
    heads = np.flatnonzero(~(peaks < floor))
    i, j = np.nonzero(~(screened[heads] < floor))
    kept = heads[i] * screened.shape[1] + j
    best_score, best_index = -np.inf, None
    for start in range(0, len(kept), _CHUNK):
        index = kept[start:start + _CHUNK]
        scores = score(table[np.stack(np.unravel_index(index, shape), axis=1)])
        local = int(np.argmax(scores))
        if float(scores[local]) > best_score:
            best_score, best_index = float(scores[local]), int(index[local])
    assert best_index is not None
    return budget.grid()[list(np.unravel_index(best_index, shape))], best_score


def _weights(config: SystemConfig, count: int) -> np.ndarray:
    """The weights of J's Gram form: rho*eta*p0 for the K device rows, then
    1 - rho for the target rows."""
    weights = np.full(count, 1.0 - config.rho)
    weights[:config.n_ehd] = energy_weight(config)
    return weights


@_one_blas_thread
def quantized_phase_search(channels: ChannelSet, beam: Beamformer,
                           config: SystemConfig, budget: SearchBudget
                           ) -> tuple[PhaseProfile, float]:
    """Best quantized phase profile at a fixed beamformer."""
    check_channels(config, channels)
    check_finite("beam", beam.w, (config.n_tx,))
    rows = phase_rows(channels, beam, config)
    alpha, score = _grid_search(budget, np.exp(1j * budget.grid()), rows[:, :-1],
                                _weights(config, len(rows)), rows[:, -1],
                                lambda v_rows: objective_for_phase_batch(
                                    channels, beam, config, v_rows))
    return PhaseProfile(alpha=alpha), score


@_one_blas_thread
def quantized_beam_search(channels: ChannelSet, phases: PhaseProfile,
                          config: SystemConfig, budget: SearchBudget
                          ) -> tuple[Beamformer, float]:
    """Best quantized constant-modulus beamformer at fixed phases."""
    check_channels(config, channels)
    check_finite("phases", phases.v, (config.n_irs,))
    rows = beam_rows(channels, phases, config)
    table = config.beam_amplitude * np.exp(1j * budget.grid())
    w_phase, score = _grid_search(budget, table, rows, _weights(config, len(rows)),
                                  np.zeros(len(rows)),
                                  lambda w_rows: objective_for_beam_batch(
                                      channels, phases, config, w_rows))
    return Beamformer.from_phases(w_phase, config), score
