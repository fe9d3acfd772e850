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
from dataclasses import dataclass, field

import numpy as np

from .circuits import Circuit, Gate, hea_ansatz
from .pauli import PauliString, PauliSum
from .recompile import SeriesCompilation
from .simulator import (
    CompiledCircuit,
    StateVector,
    estimate_pauli_z,
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
    "hadamard_test_states",
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
        vals, vecs: the eigenvalues, ascending, and the ``complex128``
            eigenvectors (columns of a unitary) of (H - h0 I) / h1 before
            the purge; they describe ``scaled`` up to any term that 1/h1
            pushes to :data:`gsee.pauli.PURGE_TOL` or below.
    """

    h0: float
    h1: float
    scaled: PauliSum
    vals: np.ndarray = field(repr=False, compare=False)
    vecs: np.ndarray = field(repr=False, compare=False)

    def energy(self, theta: float) -> float:
        """Converts a fitted phase back to Hartree."""
        return self.h0 + self.h1 * theta

    def evolve(self, psi: StateVector, tau: float, n_points: int) -> np.ndarray:
        """Rows exp(-i n tau H~)|psi> for n = 0 .. n_points - 1.

        psi is projected onto the eigenvectors once.  Each row is then its
        own matrix-vector product with n tau a Python float: one product
        stacked over all points rounds differently.
        """
        if psi.n_qubits != self.scaled.n_qubits:
            raise ValueError("Hamiltonian and state widths differ")
        # V^H a computed as conj(V^T conj(a)): no conjugate copy of V
        coords = (self.vecs.T @ psi.amplitudes.conj()).conj()
        rows = np.empty((n_points, len(coords)), dtype=complex)
        for n in range(n_points):
            rows[n] = self.vecs @ (np.exp(-1j * (n * tau) * self.vals) * coords)
        return rows


def scale(h: PauliSum) -> ScaledHamiltonian:
    """Shifts and rescales a Hamiltonian for phase estimation.

    h0 is the identity coefficient (equal to Tr H / 2^n) and
    h1 = (4/pi) max |eig(H - h0 I)|, so H~ = (H - h0 I)/h1 has its
    largest eigenvalue magnitude at exactly pi/4.

    The dense eigendecomposition of H - h0 I (:meth:`PauliSum.eig`) is
    computed once here: H~ keeps its vectors and the eigenvalues times
    1/h1, which :meth:`ScaledHamiltonian.evolve` reads.

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
    vals, vecs = shifted.eig()
    h1 = 4.0 * float(np.max(np.abs(vals))) / math.pi
    if h1 < 1e-12:
        raise ValueError("Hamiltonian is proportional to the identity")
    inv = 1.0 / h1
    return ScaledHamiltonian(h0, h1, shifted * inv, inv * vals, vecs)


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


def hadamard_test_states(
    sh: ScaledHamiltonian, psi: StateVector, tau: float, n_points: int
) -> np.ndarray:
    """Rows (|0>|psi> + |1> exp(-i n tau H~)|psi>)/sqrt(2), ancilla on qubit 0.

    Measuring X (Y) on the ancilla of row n gives the real (imaginary)
    part of the overlap Z_n.  Rows are twice as long as psi's amplitudes.
    """
    states = np.empty((n_points, 2 << psi.n_qubits), dtype=complex)
    states[:, 0::2] = psi.amplitudes / math.sqrt(2.0)
    states[:, 1::2] = sh.evolve(psi, tau, n_points) / math.sqrt(2.0)
    return states


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
        records = (sample_z(state, spc, seed, (n, part))
                   for n, state in enumerate(StateVector.rows(rotated)))
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
        values = np.array([np.vdot(psi.amplitudes, row)
                           for row in sh.evolve(psi, tau, n_points)])
        zeros = np.zeros(n_points)
        return OverlapSeries(tau, values, zeros, zeros.copy(), None, mode)

    if mode == "shots":
        states = hadamard_test_states(sh, psi, tau, n_points)
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
