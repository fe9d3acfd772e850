"""Statistical phase estimation from overlap time series.

The pipeline rescales a Hamiltonian so its spectrum fits inside
[-pi/4, pi/4], acquires the overlap series

    Z_n = <psi| exp(-i t_n H~) |psi>,    t_n = n tau,

exactly, from sampled Hadamard tests, or from recompiled preparation
circuits, and maximizes the objective

    f(theta) = | sum_n Z_n exp(i n tau theta) |^2

whose peak location theta* converts back to an energy through
E* = h0 + h1 theta*.

``scale(h, psi)`` is the one place where psi meets H~: it holds H~ as
the eigenpairs of the symmetry cells where psi has weight, with psi's
coordinates in them, and every later step reads those.
"""

import math
import re
from dataclasses import dataclass, field

import numpy as np

from .pauli import PauliString, PauliSum, check_memory
from .recompile import SeriesCompilation
from .simulator import StateVector, derived_rng

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
    "objective_curve",
    "scale",
    "std_error",
]

# f(theta) repeats every 2 pi / tau; below this step every alias of a
# phase inside [-pi/4, pi/4] falls outside the search window.
ALIAS_SAFE_TAU = 3.9
GRID_POINTS = 20001
_MODES = ("exact", "shots", "recompiled")
_CSV_HEADER = re.compile(r"# tau=(\S+) spc=(none|[0-9]+) mode=(\S+)")
_CSV_COLUMNS = "n,t,re,im,stderr_re,stderr_im"


# ----------------------------------------------------------------------
# rescaling
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ScaledHamiltonian:
    """H = h0 I + h1 H~ with the spectrum of H~ inside [-pi/4, pi/4], and the
    state psi whose overlap series it gives.

    Attributes:
        h0: spectral mean of H (its identity coefficient), in Hartree.
        h1: scale factor (4/pi) ||H - h0 I||, in Hartree.
        psi: the state the series starts from.
        vals, vecs, rows, coords: H~ on the cells where psi has weight, one
            array each per cell size of :meth:`PauliSum.blocks` that holds
            such a cell: per held cell k of size g, its ascending
            eigenvalues ``vals[j][k]``, complex eigenvector columns
            ``vecs[j][k]`` over basis indices ``rows[j][k]``, and psi's
            coordinates V^H psi in them, ``coords[j][k]`` of shape (g, 1).
    """

    h0: float
    h1: float
    psi: StateVector = field(repr=False, compare=False)
    vals: tuple[np.ndarray, ...] = field(repr=False, compare=False)
    vecs: tuple[np.ndarray, ...] = field(repr=False, compare=False)
    rows: tuple[np.ndarray, ...] = field(repr=False, compare=False)
    coords: tuple[np.ndarray, ...] = field(repr=False, compare=False)

    def energy(self, theta: float) -> float:
        """Converts a fitted phase back to Hartree."""
        return self.h0 + self.h1 * theta

    def mean(self) -> float:
        """<psi|H~|psi> = sum |<v|psi>|^2 lambda over the eigenpairs (v, lambda)."""
        return float(sum(np.sum(vals * np.abs(coords[..., 0]) ** 2)
                         for vals, coords in zip(self.vals, self.coords)))

    def evolve(self, tau: float, n_points: int) -> np.ndarray:
        """Rows exp(-i n tau H~)|psi> for n = 0 .. n_points - 1.

        Only the cells where psi has weight evolve; the rows are zero
        elsewhere.  Each row is one product per cell size, batched over
        those cells, with n tau a Python float.
        """
        rows = np.zeros((n_points, self.psi.amplitudes.size), dtype=complex)
        for vals, vecs, at, coords in zip(self.vals, self.vecs, self.rows, self.coords):
            for n in range(n_points):
                phases = np.exp(-1j * (n * tau) * vals[:, :, None])
                rows[n, at] = (vecs @ (phases * coords))[..., 0]
        return rows


def scale(h: PauliSum, psi: StateVector) -> ScaledHamiltonian:
    """Shifts and rescales a Hamiltonian for phase estimation from ``psi``.

    h0 is the identity coefficient (equal to Tr H / 2^n) and
    h1 = (4/pi) max |eig(H - h0 I)|, so H~ = (H - h0 I)/h1 has its
    largest eigenvalue magnitude at exactly pi/4.

    H - h0 I is split once into its symmetry cells (:meth:`PauliSum.blocks`),
    with no 2^n x 2^n matrix and no rescaled Pauli sum.  The cells where
    psi has weight get one batched ``eigh`` per cell size, and psi is
    projected onto their vectors once; the others give only their
    eigenvalues, for h1, by ``eigvalsh`` on runs of consecutive cells
    (views, not copies).

    Raises:
        ValueError: H is not Hermitian, H and psi differ in width, the
            cells or psi's cell vectors exceed physical memory (raised
            before they are allocated), or H is proportional to the
            identity (h1 < 1e-12) and carries no phase to estimate.
    """
    if not h.is_hermitian():
        raise ValueError("Hamiltonian must be Hermitian")
    if psi.n_qubits != h.n_qubits:
        raise ValueError("Hamiltonian and state widths differ")
    h0 = h.identity_coefficient.real
    # the shifted sum is freed before eigh allocates the vectors
    cells = (h - PauliSum(h.n_qubits, [(PauliString(), h0)])).blocks()
    amps = [psi.amplitudes[r] for r, _ in cells]
    live = [np.flatnonzero(np.any(a != 0, axis=1)) for a in amps]
    # psi's gathered cells, their vectors' complex copy, and 96 bytes an
    # index for the amplitudes and coordinates
    n_vecs = sum(k.size * m.shape[1] ** 2 for k, (_, m) in zip(live, cells))
    check_memory((cells[0][1].itemsize + 16) * n_vecs + 96 * psi.amplitudes.size,
                 "the state's cell vectors")
    radius, held = 0.0, []
    for (rows, mats), a, k in zip(cells, amps, live):
        # the cells without psi, a run of consecutive ones at a time: views
        for lo, hi in zip([-1, *k], [*k, len(mats)]):
            if hi > lo + 1:
                spectra = np.linalg.eigvalsh(mats[lo + 1:hi])
                radius = max(radius, float(np.max(np.abs(spectra))))
        if k.size:
            # a size whose every cell is live needs no gathered copy
            vals, vecs = np.linalg.eigh(mats if k.size == len(mats) else mats[k])
            radius = max(radius, float(np.max(np.abs(vals))))
            vecs = vecs.astype(complex)
            # V^H a computed as conj(V^T conj(a)): no conjugate copy of V
            coords = (vecs.transpose(0, 2, 1) @ a[k, :, None].conj()).conj()
            held.append((vals, vecs, rows[k], coords))
    h1 = 4.0 * radius / math.pi
    if h1 < 1e-12:
        raise ValueError("Hamiltonian is proportional to the identity")
    inv = 1.0 / h1
    vals, vecs, rows, coords = zip(*held)
    return ScaledHamiltonian(h0, h1, psi, tuple(inv * v for v in vals), vecs, rows, coords)


# ----------------------------------------------------------------------
# time grid
# ----------------------------------------------------------------------
def choose_grid(sh: ScaledHamiltonian, n_points: int = 33) -> float:
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
    theta_hat = sh.mean()
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
            _CSV_COLUMNS,
        ]
        for n, z in enumerate(self.values):
            fields = (
                n * self.tau, z.real, z.imag,
                self.stderr_re[n], self.stderr_im[n],
            )
            lines.append(f"{n}," + ",".join(repr(float(x)) for x in fields))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv(cls, text: str) -> "OverlapSeries":
        """The series whose :meth:`to_csv` is ``text``, bit for bit.

        Raises ValueError on a malformed header or row, a tau that is not
        finite and positive, an unknown mode or a non-finite field.
        """
        lines = text.splitlines()
        header = _CSV_HEADER.fullmatch(lines[0]) if lines else None
        if header is None or lines[1:2] != [_CSV_COLUMNS]:
            raise ValueError("header must be '# tau=T spc=S mode=M' and the column line")
        tau = float(header[1])
        if not (math.isfinite(tau) and tau > 0.0):
            raise ValueError(f"tau must be finite and positive, got {header[1]}")
        rows = [line.split(",") for line in lines[2:]]
        if any(len(row) != 6 for row in rows):
            raise ValueError("every row needs 6 fields")
        cells = np.array([[float(x) for x in row] for row in rows]).reshape(-1, 6)
        if not np.isfinite(cells).all():
            raise ValueError("every field must be a finite number")
        spc = None if header[2] == "none" else int(header[2])
        # re and im side by side are the complex values' own bytes
        values = cells[:, 2:4].copy().view(complex)[:, 0]
        return cls(tau, values, cells[:, 4], cells[:, 5], spc, header[3])


def std_error(value: float, spc: int) -> float:
    """Sampling error sqrt((1 - value^2)/spc) of a +/-1 shot mean.

    Applied separately to the real and imaginary components of each
    measured overlap.
    """
    return math.sqrt(max(0.0, 1.0 - value * value) / spc)


def hadamard_test_states(sh: ScaledHamiltonian, tau: float, n_points: int) -> np.ndarray:
    """Rows (|0>|psi> + |1> exp(-i n tau H~)|psi>)/sqrt(2), ancilla on qubit 0.

    Measuring X (Y) on the ancilla of row n gives the real (imaginary)
    part of the overlap Z_n.  Rows are twice as long as psi's amplitudes.
    """
    states = np.empty((n_points, 2 << sh.psi.n_qubits), dtype=complex)
    states[:, 0::2] = sh.psi.amplitudes / math.sqrt(2.0)
    states[:, 1::2] = sh.evolve(tau, n_points) / math.sqrt(2.0)
    return states


# the ancilla observables X_0 and Y_0, whose means are Re and Im Z_n
_ANCILLA = (PauliString(x_mask=1), PauliString(1, 1))


def _read_ancilla(values: np.ndarray, spc: int, seed: int) -> list[np.ndarray]:
    """Shot means of <X_0> and <Y_0> whose exact means are Re and Im ``values``.

    A Hadamard-test shot reads one ancilla bit, so the number k of -1
    outcomes among ``spc`` shots of a part with mean v is
    Binomial(spc, (1 - v)/2).  Part p (0 for X, 1 for Y) draws every
    point's k at once on stream (seed, p), point n the n-th draw; its
    mean is the shot mean (spc - 2k)/spc.
    """
    parts = []
    for part, exact in enumerate((values.real, values.imag)):
        ones = derived_rng(seed, part).binomial(spc, np.clip((1.0 - exact) / 2.0, 0.0, 1.0))
        parts.append((spc - 2 * ones) / spc)
    return parts


def acquire(
    sh: ScaledHamiltonian,
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
        shots: the exact overlaps, read out as ``spc`` Hadamard-test
            shots per part (real, imaginary): one binomial count of -1
            ancilla outcomes per point and part, drawn on stream
            (seed, part) (:func:`_read_ancilla`).
        recompiled: the states the fitted ansatz of ``compilation``
            prepares (one per time point, in order, as the compiler
            simulated them to score their fidelity) stand for the
            Hadamard-test states; their exact <X_0> and <Y_0> are the
            overlaps when ``spc`` is None and are read out as in shots
            mode otherwise.

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

    if mode == "recompiled":
        if compilation is None:
            raise ValueError("recompiled mode needs a SeriesCompilation")
        if len(compilation.results) != n_points:
            raise ValueError(
                f"compilation covers {len(compilation.results)} time points,"
                f" need {n_points}"
            )
        if compilation.n_qubits != sh.psi.n_qubits + 1:
            raise ValueError("compilation register does not match system+ancilla")
        re, im = ([np.vdot(a, string.act(a)).real for a in compilation.states]
                  for string in _ANCILLA)
        values = np.array([complex(r, i) for r, i in zip(re, im)])
    else:
        values = np.array([np.vdot(sh.psi.amplitudes, row)
                           for row in sh.evolve(tau, n_points)])
    if mode == "exact" or spc is None:
        zeros = np.zeros(n_points)
        return OverlapSeries(tau, values, zeros, zeros.copy(), None, mode)
    re, im = _read_ancilla(values, spc, seed)
    values = np.array([complex(r, i) for r, i in zip(re, im)])
    errors = [[std_error(v, spc) for v in part] for part in (re, im)]
    return OverlapSeries(tau, values, *map(np.array, errors), spc, mode)


# ----------------------------------------------------------------------
# fitting
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class QcelsResult:
    """Fitted phase, its energy, and the objective at the phase."""

    theta: float
    energy: float
    peak: float


def _objective(series: OverlapSeries, thetas: np.ndarray) -> np.ndarray:
    """f = |P(z)|^2 at z = e^{i tau theta}, P(z) = sum_n Z_n z^n by Horner's rule."""
    z = np.exp(1j * series.tau * thetas)
    p = np.zeros_like(z)
    for value in series.values[::-1]:
        p = p * z + value
    return np.abs(p) ** 2


def objective_curve(series: OverlapSeries) -> tuple[np.ndarray, np.ndarray]:
    """The fit grid, :data:`GRID_POINTS` points over [-pi/4, pi/4], and f on it."""
    grid = np.linspace(-math.pi / 4.0, math.pi / 4.0, GRID_POINTS)
    return grid, _objective(series, grid)


def fit(series: OverlapSeries, sh: ScaledHamiltonian) -> QcelsResult:
    """Maximizes the phase objective and converts the peak to energy.

    The curve is f on :func:`objective_curve`'s grid, evaluated by
    Horner's rule.  Newton's method on f',
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
    grid, curve = objective_curve(series)
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
    )
