"""Statistical phase estimation from overlap time series.

The pipeline rescales a Hamiltonian so its spectrum fits inside
[-pi/4, pi/4], acquires the overlap series

    Z_n = <psi| exp(-i t_n H~) |psi>,    t_n = n tau,

exactly, from sampled Hadamard tests, or from recompiled preparation
circuits, and maximizes the objective

    f(theta) = | sum_n Z_n exp(i n tau theta) |^2

whose peak location theta* converts back to an energy through
E* = h0 + h1 theta*.

H~ is held once, as the eigenpairs of its symmetry cells.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .circuits import Circuit, Gate, hea_ansatz
from .pauli import PauliString, PauliSum, check_memory
from .recompile import SeriesCompilation
from .simulator import (
    CompiledCircuit,
    StateVector,
    estimate_pauli_z,
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
        vals, vecs, rows: H~ = (H - h0 I) / h1 itself, one array each per
            cell size of :meth:`PauliSum.blocks`: per cell k of size g,
            its ascending eigenvalues ``vals[g][k]`` and eigenvector
            columns ``vecs[g][k]`` over basis indices ``rows[g][k]``.
    """

    h0: float
    h1: float
    vals: tuple[np.ndarray, ...] = field(repr=False, compare=False)
    vecs: tuple[np.ndarray, ...] = field(repr=False, compare=False)
    rows: tuple[np.ndarray, ...] = field(repr=False, compare=False)

    def energy(self, theta: float) -> float:
        """Converts a fitted phase back to Hartree."""
        return self.h0 + self.h1 * theta

    def _project(self, psi: StateVector) -> list[tuple[np.ndarray, ...]]:
        """Per cell size where psi has weight, ``(vals, vecs, rows, coords)``:
        psi's cells' eigenvalues, complex vectors and indices, and V^H psi."""
        if psi.amplitudes.size != sum(r.size for r in self.rows):
            raise ValueError("Hamiltonian and state widths differ")
        amps = [psi.amplitudes[r] for r in self.rows]
        live = [np.flatnonzero(np.any(a != 0, axis=1)) for a in amps]
        # the gathered vectors, their complex copy, and 96 bytes an index
        # for the amplitudes and coordinates
        n_vecs = sum(k.size * r.shape[1] ** 2 for k, r in zip(live, self.rows))
        check_memory((self.vecs[0].itemsize + 16) * n_vecs + 96 * psi.amplitudes.size,
                     "the state's cell vectors")
        out = []
        for a, k, vals, vecs, rows in zip(amps, live, self.vals, self.vecs, self.rows):
            if k.size:
                vecs = vecs[k].astype(complex)
                # V^H a computed as conj(V^T conj(a)): no conjugate copy of V
                coords = (vecs.transpose(0, 2, 1) @ a[k, :, None].conj()).conj()
                out.append((vals[k], vecs, rows[k], coords))
        return out

    def mean(self, psi: StateVector) -> float:
        """<psi|H~|psi> = sum |<v|psi>|^2 lambda over the eigenpairs (v, lambda)."""
        return float(sum(np.sum(vals * np.abs(coords[..., 0]) ** 2)
                         for vals, _, _, coords in self._project(psi)))

    def evolve(self, psi: StateVector, tau: float, n_points: int) -> np.ndarray:
        """Rows exp(-i n tau H~)|psi> for n = 0 .. n_points - 1.

        Only the cells where psi has weight evolve; the rows are zero
        elsewhere.  Their vectors are cast to complex once, not at every
        point, and psi is projected once; each row is then one product
        per cell size, batched over those cells, with n tau a Python float.
        """
        rows = np.zeros((n_points, psi.amplitudes.size), dtype=complex)
        for vals, vecs, at, coords in self._project(psi):
            for n in range(n_points):
                phases = np.exp(-1j * (n * tau) * vals[:, :, None])
                rows[n, at] = (vecs @ (phases * coords))[..., 0]
        return rows


def scale(h: PauliSum) -> ScaledHamiltonian:
    """Shifts and rescales a Hamiltonian for phase estimation.

    h0 is the identity coefficient (equal to Tr H / 2^n) and
    h1 = (4/pi) max |eig(H - h0 I)|, so H~ = (H - h0 I)/h1 has its
    largest eigenvalue magnitude at exactly pi/4.

    H - h0 I is diagonalized once here, by one batched ``eigh`` per cell
    size of its symmetry cells (:meth:`PauliSum.blocks`): (Nα, Nβ)
    sectors within each coset, with the entries between sectors dropped
    when each is at most eps · ||H - h0 I||_1, and the Z2 cosets
    themselves when one is larger.  No 2^n x 2^n matrix is built.  H~ is
    held as the cell rows and vectors and the eigenvalues times 1/h1
    alone, with no rescaled Pauli sum.

    Raises:
        ValueError: H is not Hermitian, its cells and their vectors
            exceed physical memory (raised before any 2^n-long array), or
            it is proportional to the identity (h1 < 1e-12) and carries no
            phase to estimate.
    """
    if not h.is_hermitian():
        raise ValueError("Hamiltonian must be Hermitian")
    h0 = h.identity_coefficient.real
    # the shifted sum is freed before eigh allocates the vectors
    cells = (h - PauliSum(h.n_qubits, [(PauliString(), h0)])).blocks()
    rows = tuple(r for r, _ in cells)
    vals, vecs = zip(*(np.linalg.eigh(mats) for _, mats in cells))
    h1 = 4.0 * max(float(np.max(np.abs(v))) for v in vals) / math.pi
    if h1 < 1e-12:
        raise ValueError("Hamiltonian is proportional to the identity")
    inv = 1.0 / h1
    return ScaledHamiltonian(h0, h1, tuple(inv * v for v in vals), vecs, rows)


# ----------------------------------------------------------------------
# time grid
# ----------------------------------------------------------------------
def choose_grid(
    sh: ScaledHamiltonian, psi: StateVector, n_points: int = 33
) -> float:
    """Chooses the time step so the series spans two apparent periods.

    The dominant phase is estimated as theta^ = <psi|H~|psi>, read from
    the eigenpairs of H~ (:meth:`ScaledHamiltonian.mean`); the total
    time T = 2 (2 pi / |theta^|) covers two of its periods and
    tau = T / (n_points - 1).  When |theta^| < 0.01 the estimate carries
    no usable period and tau falls back to the maximal-phase choice
    T = 2 (2 pi / (pi/4)) = 16.  The result is capped at ALIAS_SAFE_TAU
    so the fit window stays alias-free.
    """
    if n_points < 2:
        raise ValueError("need at least two time points")
    theta_hat = sh.mean(psi)
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
    """f = |P(z)|^2 at z = e^{i tau theta}, P(z) = sum_n Z_n z^n by Horner's rule."""
    z = np.exp(1j * series.tau * thetas)
    p = np.zeros_like(z)
    for value in series.values[::-1]:
        p = p * z + value
    return np.abs(p) ** 2


def fit(series: OverlapSeries, sh: ScaledHamiltonian) -> QcelsResult:
    """Maximizes the phase objective and converts the peak to energy.

    The curve is f on a uniform grid of :data:`GRID_POINTS` points over
    [-pi/4, pi/4], evaluated by Horner's rule.  Newton's method on f',
    with analytic derivatives, polishes the best grid point; its iterates
    are clipped to that point's cell (the interval between its grid
    neighbours, inside the window) and it stops where f is not concave,
    at a fixed point, or after 20 steps.  The returned theta is whichever
    of the grid point and the polished point scores higher, judged by
    their difference in f computed without cancelling the two values,
    and the grid point wins ties, so a maximum on the window edge stays
    at exactly +/-pi/4 and f(theta*) >= f(theta) holds on the whole grid.
    """
    if len(series.values) < 2:
        raise ValueError("need at least two samples to fit")
    lo, hi = -math.pi / 4.0, math.pi / 4.0
    grid = np.linspace(lo, hi, GRID_POINTS)
    curve = _objective(series, grid)
    best = int(np.argmax(curve))
    spacing = grid[1] - grid[0]
    cell_lo, cell_hi = max(lo, grid[best] - spacing), min(hi, grid[best] + spacing)
    # Newton on f' with k_n = n tau, P' = sum i k_n Z_n e^{i k_n theta} and
    # P'' = -sum k_n^2 Z_n e^{i k_n theta}: f'/2 = Re(conj(P) P') and
    # f''/2 = |P'|^2 + Re(conj(P) P''); a start within one cell of the
    # peak converges in a few steps
    k = np.arange(len(series.values)) * series.tau
    refined = float(grid[best])
    for _ in range(20):
        terms = series.values * np.exp(1j * k * refined)
        p, dp, d2p = terms.sum(), 1j * (k * terms).sum(), -(k * k * terms).sum()
        curvature = abs(dp) ** 2 + (p.conjugate() * d2p).real
        if curvature >= 0.0:
            break
        step = float(refined - (p.conjugate() * dp).real / curvature)
        step = min(cell_hi, max(cell_lo, step))
        if step == refined:
            break
        refined = step
    # f(refined) - f(grid) = Re(conj(P_r + P_g) (P_r - P_g)) with
    # P_r - P_g = sum 2i sin(k d/2) Z_n e^{i k m}, d the difference and m
    # the midpoint of the two points: this keeps its sign where the two f
    # values round alike, as they do within ~sqrt(eps) of the peak
    d, m = refined - grid[best], (refined + grid[best]) / 2.0
    total = (series.values * (np.exp(1j * k * refined) + np.exp(1j * k * grid[best]))).sum()
    gap = (series.values * np.exp(1j * k * m) * 2j * np.sin(k * d / 2.0)).sum()
    # the grid point wins ties so boundary maxima stay at exactly +/-pi/4
    theta = refined if (total.conjugate() * gap).real > 0.0 else float(grid[best])
    return QcelsResult(
        theta=theta,
        energy=sh.energy(theta),
        peak=float(_objective(series, np.array([theta]))[0]),
        grid=grid,
        curve=curve,
    )
