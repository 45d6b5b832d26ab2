"""Sampled-data LTI loop: plant and held-input propagation.

The plant is x' = A x + B u with static gain K applied to a frozen sample w,
u = K w: the most recently received state sample x_held, or zero while the
channel is jammed under InputMode.ZERO_DURING_DOS. Between transmission
instants the pair z = [x; w] evolves linearly, z' = M z with
M = [[A, B K], [0, 0]] (Van Loan 1978), in either input mode, so it is
integrated exactly through the exponential of M rather than an ODE stepper.
The Taylor coefficients of one state (LtiPlant.taylor_coeffs, the top rows
of linalg's Taylor kernel applied to z) give its flow at every offset up to
the Taylor reach, ||M||_F dt <= TAYLOR_THETA, where the truncated series is
exact to rounding: LtiPlant.stretch evaluates many offsets at once, of
one state or of a stack of them, and LtiPlant.step, the one single-step
path, one; past the reach a step takes mat_exp, the same series scaled
and squared.
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
    _norms2,
    _taylor_terms,
    as_matrix,
    as_vector,
    decay_envelope,
    growth_envelope,
    mat_exp,
)


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
    phi^T P + P phi + I = 0 and its eigenvalues; growth; and, from one svd
    on first use of either, the spectral norms phi_norm and bk_norm of phi
    and bk. A, B and K are the plant's own copies of its arguments, and
    they, phi and bk are read-only arrays, so no edit can make them
    disagree with the envelopes and step tables built from them.

    step advances the held-input dynamics z = [x; w] by a single step of
    any length, w the applied sample (x_held, or zero while a zeroed input
    is jammed): from the Taylor table of M = [[A, B K], [0, 0]], built on
    first use, for steps up to taylor_reach, and from propagator, the
    matrix exponential, past that. stretch takes the states at many offsets
    within taylor_reach from one state's taylor_coeffs, or from a stack of
    states' coefficients, in one product.
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

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]

    @cached_property
    def _norms(self) -> tuple[float, float]:
        """(||phi||_2, ||bk||_2) from one svd of the stacked pair (linalg._norms2)."""
        phi_norm, bk_norm = _norms2(np.stack((self.phi, self.bk)))
        return phi_norm, bk_norm

    @cached_property
    def phi_norm(self) -> float:
        """||A + B K||_2, bit for bit spectral_norm(phi); one svd gives it and bk_norm."""
        return self._norms[0]

    @cached_property
    def bk_norm(self) -> float:
        """||B K||_2, bit for bit spectral_norm(bk); one svd gives it and phi_norm."""
        return self._norms[1]

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
        """Longest step that step and stretch sum from the Taylor table: TAYLOR_THETA / ||M||_F.

        Finite: A + B K is Hurwitz, so A and B K are not both zero.
        """
        return 1.0 / self._taylor[1]

    def taylor_coeffs(self, x: FloatArray, w: FloatArray) -> FloatArray:
        """Coefficients c, one row per Taylor term, with x(dt) = sum_k (dt rate)^k c[k] within taylor_reach.

        c is the Taylor rows applied to z = [x; w], rate = ||M||_F /
        TAYLOR_THETA. A caller that steps many times from one state forms c
        once and hands it to stretch and step (sim.run), and
        sim.find_event_crossing decides a crossing on the polynomial it gives.
        """
        return (self._taylor[0] @ np.concatenate((x, w))).reshape(-1, len(x))

    def stretch(self, coeffs: FloatArray, dts: FloatArray) -> FloatArray:
        """States at offsets dts, each within taylor_reach, from the state whose taylor_coeffs are coeffs.

        One row per offset: the powers of dt rate, all in one array, times
        coeffs. Each row is, up to rounding, the step of that length, with
        step's error bound. The offsets are not checked. Stacks work the
        same way, in one batched product: coeffs of shape (stretches,
        terms, n) with dts of shape (stretches, rows) give the states of
        shape (stretches, rows, n), row r of stretch s from coeffs[s]
        (sim.run fills the record ticks of many stretches so).
        """
        return np.power.outer(dts * self._taylor[1], _TAYLOR_EXPONENTS) @ coeffs

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
        given, must be those) with the powers of dt ||M||_F / TAYLOR_THETA,
        as stretch does for many offsets; the truncated series moves x(dt)
        by at most 2.2e-17 ||[x; w]|| (linalg._taylor_terms). Past it the
        step takes propagator(dt).

        Arguments are not validated (see exact_hold_step). Each call adds
        one to stats["taylor_steps"] or, past the reach, stats["expm_steps"]
        when stats is given.
        """
        if abs(dt) <= self.taylor_reach:
            if stats is not None:
                stats["taylor_steps"] += 1
            if coeffs is None:
                coeffs = self.taylor_coeffs(x, w)
            return (dt * self._taylor[1]) ** _TAYLOR_EXPONENTS @ coeffs
        if stats is not None:
            stats["expm_steps"] += 1
        T, H = self.propagator(dt)
        return T @ x + H @ w


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
