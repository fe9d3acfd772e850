"""Statistical phase estimation from overlap time series.

The pipeline rescales a Hamiltonian so its spectrum fits inside
[-pi/4, pi/4], acquires the overlap series

    Z_n = <psi| exp(-i t_n H~) |psi>,    t_n = n tau,

exactly, from sampled Hadamard tests, or from recompiled preparation
circuits, and maximizes the objective

    f(theta) = | sum_n Z_n exp(i n tau theta) |^2

whose peak location theta* converts back to an energy through
E* = h0 + h1 theta*.
"""

import math
from dataclasses import dataclass

import numpy as np

from .circuits import Circuit, Gate, hea_ansatz
from .pauli import PauliString, PauliSum
from .recompile import SeriesCompilation
from .simulator import (
    CompiledCircuit,
    StateVector,
    estimate_pauli_z,
    evolve_exact,
    expectation,
    sample_z,
    simulate_batch,
)

__all__ = [
    "ALIAS_SAFE_TAU",
    "GRID_POINTS",
    "OverlapSeries",
    "QcelsResult",
    "ScaledHamiltonian",
    "acquire",
    "choose_grid",
    "fit",
    "hadamard_test_state",
    "scale",
    "std_error",
]

# f(theta) repeats every 2 pi / tau; below this step every alias of a
# phase inside [-pi/4, pi/4] falls outside the search window.
ALIAS_SAFE_TAU = 3.9
GRID_POINTS = 20001
_MODES = ("exact", "shots", "recompiled")


# ----------------------------------------------------------------------
# rescaling
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ScaledHamiltonian:
    """H = h0 I + h1 H~ with the spectrum of H~ inside [-pi/4, pi/4].

    Attributes:
        h0: spectral mean of H (its identity coefficient), in Hartree.
        h1: scale factor (4/pi) ||H - h0 I||, in Hartree.
        scaled: the dimensionless operator H~ = (H - h0 I) / h1.
    """

    h0: float
    h1: float
    scaled: PauliSum

    def energy(self, theta: float) -> float:
        """Converts a fitted phase back to Hartree."""
        return self.h0 + self.h1 * theta


def scale(h: PauliSum) -> ScaledHamiltonian:
    """Shifts and rescales a Hamiltonian for phase estimation.

    h0 is the identity coefficient (equal to Tr H / 2^n) and
    h1 = (4/pi) max |eig(H - h0 I)|, so H~ = (H - h0 I)/h1 has its
    largest eigenvalue magnitude at exactly pi/4.

    The dense eigendecomposition of H - h0 I (:meth:`PauliSum.eig`) is
    computed once; multiplying by the positive 1/h1 keeps it, so evolving
    under H~ (:func:`gsee.simulator.evolve_exact`) diagonalizes nothing
    again.

    Raises:
        ValueError: H is not Hermitian, is wider than the dense cap
            :data:`gsee.pauli.DENSE_MATRIX_CAP` (raised before any
            allocation), or is proportional to the identity (h1 < 1e-12)
            and carries no phase to estimate.
    """
    if not h.is_hermitian():
        raise ValueError("Hamiltonian must be Hermitian")
    h0 = h.identity_coefficient.real
    shifted = h - PauliSum(h.n_qubits, {PauliString(): h0})
    vals, _ = shifted.eig()
    h1 = 4.0 * float(np.max(np.abs(vals))) / math.pi
    if h1 < 1e-12:
        raise ValueError("Hamiltonian is proportional to the identity")
    return ScaledHamiltonian(h0=h0, h1=h1, scaled=shifted * (1.0 / h1))


# ----------------------------------------------------------------------
# time grid
# ----------------------------------------------------------------------
def choose_grid(
    sh: ScaledHamiltonian, psi: StateVector, n_points: int = 33
) -> float:
    """Chooses the time step so the series spans two apparent periods.

    The dominant phase is estimated as theta^ = <psi|H~|psi>; the total
    time T = 2 (2 pi / |theta^|) covers two of its periods and
    tau = T / (n_points - 1).  When |theta^| < 0.01 the estimate carries
    no usable period and tau falls back to the maximal-phase choice
    T = 2 (2 pi / (pi/4)) = 16.  The result is capped at ALIAS_SAFE_TAU
    so the fit window stays alias-free.
    """
    if n_points < 2:
        raise ValueError("need at least two time points")
    theta_hat = expectation(psi, sh.scaled).real
    if abs(theta_hat) < 0.01:
        total = 2.0 * (2.0 * math.pi / (math.pi / 4.0))
    else:
        total = 2.0 * (2.0 * math.pi / abs(theta_hat))
    return min(total / (n_points - 1), ALIAS_SAFE_TAU)


# ----------------------------------------------------------------------
# acquisition
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class OverlapSeries:
    """Measured overlaps Z_n at times t_n = n tau.

    ``spc`` is None when the values are exact expectations; otherwise
    each real and imaginary part came from ``spc`` single-shot circuit
    repetitions and carries the matching standard error.
    """

    tau: float
    values: np.ndarray
    stderr_re: np.ndarray
    stderr_im: np.ndarray
    spc: int | None
    mode: str

    def __post_init__(self) -> None:
        if self.mode not in _MODES:
            raise ValueError(f"unknown acquisition mode {self.mode!r}")
        n = len(self.values)
        if len(self.stderr_re) != n or len(self.stderr_im) != n:
            raise ValueError("standard-error arrays must match the samples")

    @property
    def times(self) -> np.ndarray:
        return np.arange(len(self.values)) * self.tau

    def to_csv(self) -> str:
        spc = "none" if self.spc is None else str(self.spc)
        lines = [
            f"# tau={self.tau!r} spc={spc} mode={self.mode}",
            "n,t,re,im,stderr_re,stderr_im",
        ]
        for n, z in enumerate(self.values):
            fields = (
                n * self.tau, z.real, z.imag,
                self.stderr_re[n], self.stderr_im[n],
            )
            lines.append(f"{n}," + ",".join(repr(float(x)) for x in fields))
        return "\n".join(lines) + "\n"


def std_error(value: float, spc: int) -> float:
    """Sampling error sqrt((1 - value^2)/spc) of a +/-1 shot mean.

    Applied separately to the real and imaginary components of each
    measured overlap.
    """
    return math.sqrt(max(0.0, 1.0 - value * value) / spc)


def hadamard_test_state(
    sh: ScaledHamiltonian, psi: StateVector, t: float
) -> StateVector:
    """(|0>|psi> + |1> exp(-i t H~)|psi>)/sqrt(2), ancilla on qubit 0.

    Measuring X (Y) on the ancilla of this state gives the real
    (imaginary) part of the overlap Z(t).
    """
    evolved = evolve_exact(psi, sh.scaled, t)
    dim = 1 << psi.n_qubits
    amps = np.zeros(2 * dim, dtype=complex)
    even = np.arange(dim) << 1
    amps[even] = psi.amplitudes / math.sqrt(2.0)
    amps[even | 1] = evolved.amplitudes / math.sqrt(2.0)
    return StateVector(psi.n_qubits + 1, amps)


# Each ancilla observable with the rotation that carries it to Z_0 for
# sampling: H for X, and rx(pi/2) for Y, since Rx(pi/2)^dag Z Rx(pi/2) = Y.
_ANCILLA_READOUT = (
    (PauliString(x_mask=1), Gate("h", (0,))),
    (PauliString(1, 1), Gate("rx", (0,), angle=math.pi / 2)),
)


def _read_ancilla(states: np.ndarray, spc: int | None, seed: int) -> list[np.ndarray]:
    """<X_0> and <Y_0> of every row of a ``(n_points, 2^n)`` state array.

    Exact when ``spc`` is None.  Otherwise one rotation per part acts on
    the whole batch, and row n is sampled with ``spc`` shots on stream
    (seed, n, part), part 0 for X and 1 for Y.
    """
    n_qubits = states.shape[1].bit_length() - 1
    parts = []
    for part, (string, gate) in enumerate(_ANCILLA_READOUT):
        if spc is None:
            parts.append(np.array([np.vdot(a, string.act(a)).real for a in states]))
            continue
        rotated = simulate_batch(Circuit(n_qubits, [gate]), states)
        records = (sample_z(StateVector(n_qubits, a), spc, seed, (n, part))
                   for n, a in enumerate(rotated))
        parts.append(np.array([estimate_pauli_z(r, 1) for r in records]))
    return parts


def acquire(
    sh: ScaledHamiltonian,
    psi: StateVector,
    tau: float,
    n_points: int = 33,
    mode: str = "exact",
    spc: int | None = None,
    seed: int = 0,
    compilation: SeriesCompilation | None = None,
) -> OverlapSeries:
    """Acquires the overlap series Z_n at times n tau.

    Modes:
        exact: direct inner products with the exactly evolved state.
        shots: the Hadamard-test states of every point, evolved exactly,
            have their ancilla sampled with ``spc`` shots per part
            (real, imaginary) on streams (seed, n, part).
        recompiled: one batch of the fitted ansatz of ``compilation``
            (one parameter vector per time point, in order) prepares the
            states; the ancilla is read exactly when ``spc`` is None and
            sampled as in shots mode otherwise.

    Raises:
        ValueError: bad mode, missing/mismatched compilation data in
            recompiled mode, or missing spc in shots mode.
    """
    if mode not in _MODES:
        raise ValueError(f"unknown acquisition mode {mode!r}")
    if n_points < 2:
        raise ValueError("need at least two time points")
    if mode == "shots" and (spc is None or spc < 1):
        raise ValueError("shots mode needs spc >= 1")
    if spc is not None and spc < 1:
        raise ValueError("spc must be at least 1 when sampling")

    if mode == "exact":
        values = np.empty(n_points, dtype=complex)
        for n in range(n_points):
            evolved = evolve_exact(psi, sh.scaled, n * tau)
            values[n] = np.vdot(psi.amplitudes, evolved.amplitudes)
        zeros = np.zeros(n_points)
        return OverlapSeries(tau, values, zeros, zeros.copy(), None, mode)

    if mode == "shots":
        states = np.array([
            hadamard_test_state(sh, psi, n * tau).amplitudes for n in range(n_points)
        ])
    else:
        if compilation is None:
            raise ValueError("recompiled mode needs a SeriesCompilation")
        if len(compilation.results) != n_points:
            raise ValueError(
                f"compilation covers {len(compilation.results)} time points,"
                f" need {n_points}"
            )
        if compilation.n_qubits != psi.n_qubits + 1:
            raise ValueError("compilation register does not match system+ancilla")
        if compilation.layers is None:
            raise ValueError("compilation lacks the ansatz layer count")
        ansatz, _ = hea_ansatz(compilation.n_qubits, compilation.layers)
        # one compiled ansatz prepares every point's state in one batch
        states = CompiledCircuit(ansatz).simulate(
            StateVector.zero_state(ansatz.n_qubits).amplitudes,
            np.array([r.parameters for r in compilation.results], dtype=float),
        )
    re, im = _read_ancilla(states, spc, seed)
    values = np.array([complex(r, i) for r, i in zip(re, im)])
    errors = [[std_error(v, spc) if spc else 0.0 for v in part] for part in (re, im)]
    return OverlapSeries(tau, values, *map(np.array, errors), spc, mode)


# ----------------------------------------------------------------------
# fitting
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class QcelsResult:
    """Fitted phase, its energy, and the objective curve on the grid."""

    theta: float
    energy: float
    peak: float
    grid: np.ndarray
    curve: np.ndarray


def _objective(series: OverlapSeries, thetas: np.ndarray) -> np.ndarray:
    """f(theta) = |sum_n Z_n e^{i n tau theta}|^2, vectorized over theta."""
    steps = np.arange(len(series.values)) * series.tau
    phasors = np.exp(1j * np.outer(thetas, steps))
    return np.abs(phasors @ series.values) ** 2


_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_max(f, a: float, b: float, tol: float) -> float:
    """Golden-section maximizer on [a, b] for a unimodal f."""
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc = f(c)
    fd = f(d)
    while b - a > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def fit(series: OverlapSeries, sh: ScaledHamiltonian) -> QcelsResult:
    """Maximizes the phase objective and converts the peak to energy.

    The objective is scanned on a uniform grid of :data:`GRID_POINTS`
    points over [-pi/4, pi/4], then the best point is refined by
    golden-section search to an interval below 1e-10.  The returned
    theta is whichever candidate (refined point, grid point, or window
    edge at the boundary) scores highest, so f(theta*) >= f(theta) holds
    on the whole grid.
    """
    if len(series.values) < 2:
        raise ValueError("need at least two samples to fit")
    lo, hi = -math.pi / 4.0, math.pi / 4.0
    grid = np.linspace(lo, hi, GRID_POINTS)
    curve = _objective(series, grid)
    best = int(np.argmax(curve))
    spacing = grid[1] - grid[0]
    refined = _golden_max(
        lambda th: float(_objective(series, np.array([th]))[0]),
        max(lo, grid[best] - spacing),
        min(hi, grid[best] + spacing),
        tol=1e-11,
    )
    # the grid point wins ties so boundary maxima stay at exactly +/-pi/4
    candidates = np.array([grid[best], refined])
    scores = _objective(series, candidates)
    theta = float(candidates[np.argmax(scores)])
    return QcelsResult(
        theta=theta,
        energy=sh.energy(theta),
        peak=float(np.max(scores)),
        grid=grid,
        curve=curve,
    )
