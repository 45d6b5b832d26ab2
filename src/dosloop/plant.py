"""Sampled-data LTI loop: plant and held-input propagation.

The plant is x' = A x + B u with static gain K applied to a frozen sample w,
u = K w: the most recently received state sample x_held, or zero while the
channel is jammed under InputMode.ZERO_DURING_DOS. Between transmission
instants the pair z = [x; w] evolves linearly, z' = M z with
M = [[A, B K], [0, 0]] (Van Loan 1978), in either input mode, so it is
integrated exactly through the exponential of M rather than an ODE stepper.
LtiPlant.step, the one single-step path, sums the top rows of linalg's
Taylor kernel while ||M||_F dt <= TAYLOR_THETA, where the truncated series is
exact to rounding, and takes mat_exp, the same series scaled and squared,
past that. k equal steps are the first k powers of that exponential's
one-step map (LtiPlant.power_table).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
import numpy as np

from .linalg import (
    DecayEnvelope,
    FloatArray,
    GrowthEnvelope,
    _TAYLOR_EXPONENTS,
    _taylor_terms,
    as_matrix,
    as_vector,
    decay_envelope,
    growth_envelope,
    mat_exp,
    spectral_norm,
)

# The most powers one table of LtiPlant.power_table holds, so the memory the
# tables take does not depend on the horizon.
POWER_TABLE_ROWS = 256


class InputMode(Enum):
    """What the actuator applies while the channel is jammed."""

    HOLD_LAST = "hold_last"
    ZERO_DURING_DOS = "zero_during_dos"


def _augmented(F: FloatArray, G: FloatArray) -> FloatArray:
    """M = [[F, G], [0, 0]] of z' = F z + G w with w frozen."""
    n = F.shape[0]
    M = np.zeros((2 * n, 2 * n))
    M[:n, :n], M[:n, n:] = F, G
    return M


def _held_input_blocks(F: FloatArray, G: FloatArray, dt: float) -> tuple[FloatArray, FloatArray]:
    """Blocks of exp(M dt), M = _augmented(F, G): z(dt) = E11 z + E12 w."""
    n = F.shape[0]
    E = mat_exp(_augmented(F, G), dt)
    return E[:n, :n], E[:n, n:]


def _power_rows(W1: FloatArray) -> FloatArray:
    """The table W[j-1] = [T^j | S_j H] (S_j = I + T + ... + T^(j-1)), POWER_TABLE_ROWS rows, from W1 = [T | H].

    Built by doubling: each pass appends rows a + j = (a, j) for a = 1.. up
    to the rows it has, T^(a+j) = T^a T^j and S_(a+j) H = T^a S_j H + S_a H,
    one batched matmul.
    """
    n = W1.shape[0]
    W = W1[None]
    while len(W) < POWER_TABLE_ROWS:
        j = len(W)
        nxt = W[: min(j, POWER_TABLE_ROWS - j), :, :n] @ W[j - 1]
        nxt[:, :, n:] += W[: len(nxt), :, n:]
        W = np.concatenate((W, nxt))
    return W


@dataclass(frozen=True, eq=False)
class LtiPlant:
    """Plant matrices plus feedback gain; A + B K must be Hurwitz.

    Construction validates dimensions and builds the decay envelope of the
    closed-loop matrix (which doubles as the Hurwitz check) and the growth
    envelope of the open-loop matrix, both proved for all t >= 0 with stated
    rounding slack (see dosloop.linalg).

    The plant keeps, computed once, each invariant that the certificates,
    the trigger check and the simulator share: phi = A + B K and bk = B K;
    decay, whose P and p_eigs (n >= 2) are the solution of
    phi^T P + P phi + I = 0 and its eigenvalues; growth; and, each on first
    use, the spectral norms phi_norm and bk_norm of phi and bk. A, B and K
    are the plant's own copies of its arguments, and they, phi and bk are
    read-only arrays, so no edit can make them disagree with the envelopes
    and step tables built from them.

    step advances the held-input dynamics z = [x; w] by a single step of
    any length, w the applied sample (x_held, or zero while a zeroed input
    is jammed): from the Taylor table of M = [[A, B K], [0, 0]], built on
    first use, for steps up to taylor_reach, and from propagator, the
    matrix exponential, past that. power_table stacks the first
    POWER_TABLE_ROWS powers of one propagator, built from it by doubling;
    the plant keeps one table, for the last step length asked, so memory
    stays bounded over any horizon.
    """

    A: FloatArray
    B: FloatArray
    K: FloatArray
    input_mode: InputMode = InputMode.HOLD_LAST
    phi: FloatArray = field(init=False, repr=False)
    bk: FloatArray = field(init=False, repr=False)
    decay: DecayEnvelope = field(init=False, repr=False)
    growth: GrowthEnvelope = field(init=False, repr=False)

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
        for name, M in (("A", A.copy()), ("B", B.copy()), ("K", K.copy()), ("phi", A + B @ K), ("bk", B @ K)):
            M.flags.writeable = False
            object.__setattr__(self, name, M)
        object.__setattr__(self, "decay", decay_envelope(self.phi))
        object.__setattr__(self, "growth", growth_envelope(self.A))
        object.__setattr__(self, "_powers", (None, None))  # (dt, table) of the last power_table asked

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]

    @cached_property
    def phi_norm(self) -> float:
        """||A + B K||_2."""
        return spectral_norm(self.phi)

    @cached_property
    def bk_norm(self) -> float:
        """||B K||_2."""
        return spectral_norm(self.bk)

    def propagator(self, dt: float) -> tuple[FloatArray, FloatArray]:
        """Blocks (T, H) with x(t+dt) = T x(t) + H w for the applied sample w."""
        return _held_input_blocks(self.A, self.bk, dt)

    @cached_property
    def _taylor(self) -> tuple[FloatArray, float]:
        """The top n rows of the Taylor terms of M, term k as rows k n .., and their rate ||M||_F / TAYLOR_THETA."""
        terms, rate = _taylor_terms(_augmented(self.A, self.bk), self.n)
        return terms.reshape(-1, 2 * self.n), rate

    @cached_property
    def taylor_reach(self) -> float:
        """Longest step that step sums from its Taylor table: TAYLOR_THETA / ||M||_F.

        Finite: A + B K is Hurwitz, so A and B K are not both zero.
        """
        return 1.0 / self._taylor[1]

    def taylor_coeffs(self, x: FloatArray, w: FloatArray) -> FloatArray:
        """Coefficients c, one row per Taylor term, with x(dt) = sum_k (dt rate)^k c[k] within taylor_reach.

        c is the Taylor rows applied to z = [x; w], rate = ||M||_F /
        TAYLOR_THETA. A caller that steps many times from one state
        (find_event_crossing) forms c once and hands it to step.
        """
        return (self._taylor[0] @ np.concatenate((x, w))).reshape(-1, len(x))

    def step(
        self,
        x: FloatArray,
        w: FloatArray,
        dt: float,
        stats: dict[str, int] | None = None,
        coeffs: FloatArray | None = None,
    ) -> FloatArray:
        """State after dt of held-input flow from x with the applied sample w frozen.

        Within taylor_reach the step sums taylor_coeffs(x, w) (coeffs, when
        given, must be those) with the powers of dt ||M||_F / TAYLOR_THETA;
        the truncated series moves x(dt) by at most 2.2e-17 ||[x; w]||
        (linalg._taylor_terms). Past it the step takes propagator(dt).

        Arguments are not validated (see exact_hold_step). Each call adds
        one to stats["taylor_steps"] or, past the reach, stats["expm_steps"]
        when stats is given.
        """
        s = dt * self._taylor[1]
        if abs(s) <= 1.0:
            if stats is not None:
                stats["taylor_steps"] += 1
            if coeffs is None:
                coeffs = self.taylor_coeffs(x, w)
            return s**_TAYLOR_EXPONENTS @ coeffs
        if stats is not None:
            stats["expm_steps"] += 1
        T, H = self.propagator(dt)
        return T @ x + H @ w

    def power_table(self, dt: float) -> FloatArray:
        """Stacked powers of the dt propagator: row j-1 maps a state to j steps of dt later.

        With (T, H) = propagator(dt), row j-1 is [T^j | S_j H] (S_j = I + T
        + ... + T^(j-1)), of shape (n, 2n), so x after j steps is
        row @ [x; w]. The table has POWER_TABLE_ROWS rows. The plant keeps
        the table of the last dt asked (run() asks only for the record
        step) and builds a new one when dt changes.
        """
        kept_dt, W = self._powers
        if kept_dt != dt:
            W = _power_rows(np.hstack(self.propagator(dt)))
            object.__setattr__(self, "_powers", (dt, W))
        return W


def exact_hold_step(plant: LtiPlant, x0: FloatArray, x_held: FloatArray, dt: float) -> FloatArray:
    """Advance x' = A x + B K x_held by dt > 0 with x_held frozen.

    Exact integration by LtiPlant.step (a Taylor table exact to rounding for
    short steps, mat_exp otherwise); a zeroed input is x_held = 0. Validates
    its arguments on every call; the simulator, whose vectors SimConfig has
    already checked, calls LtiPlant.step directly instead.
    """
    if not dt > 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    return plant.step(as_vector(x0, plant.n, "x0"), as_vector(x_held, plant.n, "x_held"), float(dt))
