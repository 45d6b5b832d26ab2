"""Sampled-data LTI loop: plant, held-input propagation, loop state.

The plant is x' = A x + B u with static gain K applied to the most recently
received state sample, u = K * x_held. Between transmission instants the pair
(x, x_held) evolves linearly, so single steps are integrated exactly through
an augmented matrix exponential rather than an ODE stepper, and k equal steps
are the first k powers of that one-step map.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .linalg import (
    DecayEnvelope,
    FloatArray,
    GrowthEnvelope,
    as_matrix,
    as_vector,
    decay_envelope,
    growth_envelope,
    mat_exp,
)

# Propagators kept per plant. Runs step mostly by a few fixed lengths (the
# record step, the crossing-grid cell), so a small table holds every key
# that recurs; one-off lengths are evicted least recently used first.
PROPAGATOR_CACHE_SIZE = 16
# Power tables kept per plant (LtiPlant.power_table with keep=True), and the
# most powers one table holds: a few recurring lengths, at most 256 deep, so
# the memory they take does not depend on the horizon.
POWER_TABLE_CACHE_SIZE = 4
POWER_TABLE_ROWS = 256


class InputMode(Enum):
    """What the actuator applies while the channel is jammed."""

    HOLD_LAST = "hold_last"
    ZERO_DURING_DOS = "zero_during_dos"


def _held_input_blocks(F: FloatArray, G: FloatArray, dt: float) -> tuple[FloatArray, FloatArray]:
    """Blocks of exp([[F, G], [0, 0]] dt): z' = F z + G w, w frozen, gives z(dt) = E11 z + E12 w."""
    n = F.shape[0]
    M = np.zeros((2 * n, 2 * n))
    M[:n, :n], M[:n, n:] = F, G
    E = mat_exp(M, dt)
    return E[:n, :n], E[:n, n:]


def _extend_powers(W: FloatArray, count: int) -> FloatArray:
    """Grow the table W[j-1] = [T^j | S_j H] (S_j = I + T + ... + T^(j-1)) to count rows by doubling.

    Each pass appends rows a + j = (a, j) for a = 1.. up to the rows it has:
    T^(a+j) = T^a T^j and S_(a+j) H = T^a S_j H + S_a H, one batched matmul.
    Row k always comes from the same products, so a table's rows do not
    depend on how far it was grown.
    """
    n = W.shape[1]
    while len(W) < count:
        j = len(W)
        take = min(j, count - j)
        nxt = W[:take, :, :n] @ W[j - 1]
        nxt[:, :, n:] += W[:take, :, n:]
        W = np.concatenate((W, nxt))
    return W


@dataclass(frozen=True, eq=False)
class LtiPlant:
    """Plant matrices plus feedback gain; A + B K must be Hurwitz.

    Construction validates dimensions and builds the decay envelope of the
    closed-loop matrix (which doubles as the Hurwitz check) and the growth
    envelope of the open-loop matrix, both proved for all t >= 0 with stated
    rounding slack (see dosloop.linalg). Exact propagators for the held-input
    dynamics live in a least-recently-used table of PROPAGATOR_CACHE_SIZE
    entries keyed by step length. power_table stacks the first k powers of
    one propagator, built from it by doubling; tables of recurring lengths
    stay in a second least-recently-used table of POWER_TABLE_CACHE_SIZE
    entries, each at most POWER_TABLE_ROWS deep, so memory stays bounded over
    any horizon.
    """

    A: FloatArray
    B: FloatArray
    K: FloatArray
    input_mode: InputMode = InputMode.HOLD_LAST

    def __post_init__(self) -> None:
        A = as_matrix(self.A, "A")
        if A.shape[0] != A.shape[1]:
            raise ValueError(f"A must be square, got {A.shape}")
        n = A.shape[0]
        B = as_matrix(self.B, "B")
        if B.shape[0] != n:
            raise ValueError(f"B must have {n} rows, got {B.shape}")
        m = B.shape[1]
        K = as_matrix(self.K, "K")
        if K.shape != (m, n):
            raise ValueError(f"K must have shape {(m, n)}, got {K.shape}")
        if not isinstance(self.input_mode, InputMode):
            raise ValueError(f"input_mode must be an InputMode, got {self.input_mode!r}")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "K", K)
        object.__setattr__(self, "_phi", A + B @ K)
        object.__setattr__(self, "_bk", B @ K)
        object.__setattr__(self, "_decay", decay_envelope(self._phi))
        object.__setattr__(self, "_growth", growth_envelope(A))
        object.__setattr__(self, "_prop_cache", OrderedDict())
        object.__setattr__(self, "_power_cache", OrderedDict())

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]

    @property
    def phi(self) -> FloatArray:
        """Closed-loop matrix A + B K."""
        return self._phi

    @property
    def bk(self) -> FloatArray:
        return self._bk

    @property
    def decay(self) -> DecayEnvelope:
        return self._decay

    @property
    def growth(self) -> GrowthEnvelope:
        return self._growth

    def propagator(self, dt: float, zero_input: bool = False) -> tuple[FloatArray, FloatArray | None]:
        """Blocks (T, H) with x(t+dt) = T x(t) + H x_held; H is None when the input is zeroed."""
        key = (float(dt), bool(zero_input))
        cache = self._prop_cache
        cached = cache.get(key)
        if cached is not None:
            cache.move_to_end(key)
            return cached
        blocks: tuple[FloatArray, FloatArray | None] = (
            (mat_exp(self.A, dt), None) if zero_input else _held_input_blocks(self.A, self._bk, dt)
        )
        cache[key] = blocks
        if len(cache) > PROPAGATOR_CACHE_SIZE:
            cache.popitem(last=False)
        return blocks

    def power_table(self, dt: float, count: int, zero_input: bool = False, *, keep: bool = False) -> FloatArray:
        """Stacked powers of the dt propagator: row j-1 maps a state to j steps of dt later.

        With (T, H) = propagator(dt, zero_input), row j-1 is [T^j | S_j H]
        (S_j = I + T + ... + T^(j-1)), of shape (n, 2n), so x after j steps
        is row @ [x; x_held]; with the input zeroed it is T^j alone, (n, n).
        count is at most POWER_TABLE_ROWS. With keep=True the table is cached
        for reuse and may hold more than count rows; otherwise exactly count
        rows are built and nothing is kept.
        """
        if not 1 <= count <= POWER_TABLE_ROWS:
            raise ValueError(f"count must be in [1, {POWER_TABLE_ROWS}], got {count}")
        key = (float(dt), bool(zero_input))
        cache = self._power_cache
        W = cache.get(key) if keep else None
        if W is None:
            T, H = self.propagator(dt, zero_input)
            W = (T if H is None else np.hstack((T, H)))[None]
        if not keep:
            return _extend_powers(W, count)
        if len(W) < count:
            # kept tables grow in whole doublings, so a longer request costs one pass
            W = _extend_powers(W, min(POWER_TABLE_ROWS, 1 << (count - 1).bit_length()))
        cache[key] = W
        cache.move_to_end(key)
        if len(cache) > POWER_TABLE_CACHE_SIZE:
            cache.popitem(last=False)
        return W


def exact_hold_step(
    plant: LtiPlant,
    x0: FloatArray,
    x_held: FloatArray,
    dt: float,
    *,
    zero_input: bool = False,
) -> FloatArray:
    """Advance x' = A x + B K x_held by dt > 0 with x_held frozen.

    Exact (matrix-exponential) integration; with zero_input=True the input
    term is dropped entirely, i.e. x' = A x. Validates its arguments on every
    call; the simulator, whose vectors SimConfig has already checked, applies
    the propagator blocks directly instead.
    """
    if not dt > 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    x0 = as_vector(x0, plant.n, "x0")
    T, H = plant.propagator(float(dt), zero_input)
    if H is None:
        return T @ x0
    xh = as_vector(x_held, plant.n, "x_held")
    return T @ x0 + H @ xh


@dataclass(frozen=True, eq=False)
class LoopState:
    """Loop snapshot: time, plant state, held sample and its timestamp.

    last_attempt_failed mirrors the acknowledgement logic: True while the most
    recent transmission attempt was jammed. Before any success x_held is the
    zero vector (start-up convention when the channel is jammed at t = 0).
    """

    t: float
    x: FloatArray
    x_held: FloatArray
    last_attempt_failed: bool = False
    t_held: float = 0.0

