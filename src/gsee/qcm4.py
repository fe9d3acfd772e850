"""Fourth-order moment and cumulant energy estimation.

The pipeline expands the Hamiltonian powers H^n for n = 1..4, filters
strings whose ideal expectation vanishes in the input state when asked
(the ``qcm4.filter`` option, off by default), groups the strings into
fully commuting sets, diagonalizes each set with a Clifford circuit so
one Z-basis acquisition serves every member, turns moments into cumulants

    c_n = <H^n> - sum_{p=0}^{n-2} binom(n-1, p) c_{p+1} <H^{n-p-1}>,

and evaluates the fourth-order energy

    E = c1 - (c2^3 / (c2^3 - c2 c4)) (sqrt(3 c3^2 - 2 c2 c4) - c3),

falling back to c1 on eigenstate-like data where c2 vanishes.  Bootstrap
resampling of the per-circuit shot records supplies error bars.
"""

import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .circuits import Circuit, Gate
from .pauli import PauliString, PauliSum, distinct_strings, gf2_reduce, sum_multiply, z_signs
from .simulator import ShotRecord, StateVector, apply_circuit, derived_rng, sample_z

__all__ = [
    "C2_GUARD",
    "FILTER_TOL",
    "TERM_CAP",
    "BootstrapResult",
    "FilterReport",
    "MeasurementPlan",
    "MomentEstimates",
    "MomentOperators",
    "PlanCircuit",
    "bootstrap",
    "build_moments",
    "cumulants",
    "energy",
    "estimate",
    "moment_report",
    "pauli_filter",
    "plan",
]

TERM_CAP = 500_000  # terms of one expanded power
FILTER_TOL = 1e-12  # |<psi|P|psi>| at or below which pauli_filter drops P
C2_GUARD = 1e-10  # |c2| below which energy returns c1


# ----------------------------------------------------------------------
# Hamiltonian powers
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MomentOperators:
    """The operator powers H^n for n = 1..4.

    Attributes:
        powers: the four Pauli sums, index n-1 holding H^n.
        threshold: coefficient magnitude below which terms were cut.
        dropped: per-power coefficient weight removed by the cut.
    """

    powers: tuple[PauliSum, PauliSum, PauliSum, PauliSum]
    threshold: float
    dropped: tuple[float, float, float, float]

    @property
    def n_qubits(self) -> int:
        return self.powers[0].n_qubits

    @property
    def term_counts(self) -> tuple[int, int, int, int]:
        return tuple(len(p) for p in self.powers)


def build_moments(h: PauliSum, threshold: float = 0.0) -> MomentOperators:
    """Expands H^1..H^4 by repeated products, then prunes small terms.

    All four powers are constructed exactly before any truncation, so a
    nonzero threshold never compounds through the product chain.

    Raises:
        ValueError: H is not Hermitian, or a power exceeds ``TERM_CAP`` terms.
    """
    if not h.is_hermitian():
        raise ValueError("Hamiltonian must be Hermitian")
    full = [h]
    for power in (2, 3, 4):
        nxt = sum_multiply(full[-1], h)
        if len(nxt) > TERM_CAP:
            raise ValueError(
                f"moment H^{power} exceeded the {TERM_CAP}-term cap; truncate the"
                " Hamiltonian first (qcm4.threshold cuts only expanded powers)"
            )
        full.append(nxt)
    cut = [p.truncate(threshold) for p in full]
    return MomentOperators(
        powers=tuple(p for p, _ in cut),
        threshold=threshold,
        dropped=tuple(w for _, w in cut),
    )


# ----------------------------------------------------------------------
# filtering
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FilterReport:
    """Outcome of the ideal-expectation filter.

    ``audited`` keeps every dropped string with its classically computed
    expectation; the values (all of magnitude <= tol) were folded into
    the identity coefficients of the filtered powers, so exact moments
    are unchanged.
    """

    tol: float
    evaluated: int
    survivors: tuple[int, int, int, int]
    audited: tuple[tuple[PauliString, float], ...]


def pauli_filter(
    m: MomentOperators, psi: StateVector
) -> tuple[MomentOperators, FilterReport]:
    """Removes strings whose ideal expectation in ``psi`` vanishes.

    Every distinct non-identity string is evaluated once; strings with
    |<psi|P|psi>| <= ``FILTER_TOL`` leave the measurement workload, and
    their exact contribution (coefficient times recorded expectation)
    moves into the identity term of each affected power.
    """
    if m.n_qubits != psi.n_qubits:
        raise ValueError("moment operators and state widths differ")
    powers = [p.canonical() for p in m.powers]
    distinct, index = distinct_strings(powers)
    strings = [s for s, _ in distinct.items()]
    measured = np.array([s.x_mask | s.z_mask != 0 for s in strings], bool)  # all but I
    amps = psi.amplitudes
    values = np.array([np.vdot(amps, s.act(amps)).real for s in strings])
    gone = (np.abs(values) <= FILTER_TOL) & measured
    filtered, survivors = [], []
    for power, own in zip(powers, np.split(index, np.cumsum(m.term_counts)[:-1])):
        drop = gone[own]
        # the dropped terms' exact contribution, added in canonical order,
        # then into the identity's coefficient (or as one, last)
        shift = np.cumsum(np.r_[0.0, power.coeff.real[drop] * values[own[drop]]])[-1]
        kept = PauliSum.from_arrays(m.n_qubits, power.x[~drop], power.z[~drop], power.coeff[~drop])
        filtered.append(kept + PauliSum(m.n_qubits, [(PauliString(), shift)]))
        survivors.append(int(np.count_nonzero(~drop & measured[own])))
    dropped = [(s, v) for s, v, g in zip(strings, values, gone) if g]
    audited = tuple(sorted(dropped, key=lambda t: t[0].sort_key()))
    report = FilterReport(FILTER_TOL, int(measured.sum()), tuple(survivors), audited)
    return MomentOperators(tuple(filtered), m.threshold, m.dropped), report


# ----------------------------------------------------------------------
# measurement planning
# ----------------------------------------------------------------------
@dataclass(frozen=True, eq=False)
class PlanCircuit:
    """One commuting set's circuit: its Clifford U maps ``terms[k]`` to
    ``signs[k] · Z(z_masks[k])`` (``int64`` masks, ``±1.0`` signs), and
    ``coeffs[k, n-1]`` is the real coefficient of ``terms[k]`` in H^n, 0
    where H^n lacks the string."""

    clifford: Circuit
    terms: tuple[PauliString, ...]
    z_masks: np.ndarray
    signs: np.ndarray
    coeffs: np.ndarray


@dataclass(frozen=True)
class MeasurementPlan:
    """Circuits covering all four powers; ``constants[n-1]`` is H^n's identity coefficient."""

    n_qubits: int
    mode: str
    circuits: tuple[PlanCircuit, ...]
    constants: tuple[float, float, float, float]

    @property
    def n_circuits(self) -> int:
        return len(self.circuits)


def _transpose(masks: Sequence[int], width: int) -> list[int]:
    """The bit-matrix transpose: bit ``i`` of entry ``q`` is bit ``q`` of ``masks[i]``."""
    size = max(1, -(-width // 8))
    raw = np.frombuffer(
        b"".join(m.to_bytes(size, "little") for m in masks), dtype=np.uint8
    ).reshape(len(masks), size)
    bits = np.unpackbits(raw, axis=1, count=width, bitorder="little")
    packed = np.packbits(bits.T, axis=1, bitorder="little")
    return [int.from_bytes(row, "little") for row in packed.tolist()]


def _conjugate(
    x: list[int], z: list[int], parity: int, ops: Sequence[tuple]
) -> int:
    """Pushes a set of strings through Clifford generators (U P U^dag).

    The strings are held by qubit, as in the Aaronson-Gottesman tableau:
    bit ``k`` of ``x[q]`` / ``z[q]`` is string ``k``'s X / Z bit on qubit
    ``q``, so each generator updates every string in a few integer
    operations.  ``x`` and ``z`` change in place; the returned parity has
    bit ``k`` set where string ``k`` picked up a net sign of -1.
    """
    for op in ops:
        q = op[1]
        if op[0] == "h":
            parity ^= x[q] & z[q]
            x[q], z[q] = z[q], x[q]
        elif op[0] == "s":
            parity ^= x[q] & z[q]
            z[q] ^= x[q]
        else:  # cz
            b = op[2]
            parity ^= x[q] & x[b] & (z[q] ^ z[b])
            z[b] ^= x[q]
            z[q] ^= x[b]
    return parity


def _schema_gates(op: tuple) -> list[Gate]:
    half = math.pi / 2.0
    if op[0] == "h":
        return [Gate("h", (op[1],))]
    if op[0] == "s":
        return [Gate("rz", (op[1],), angle=half)]
    a, b = op[1], op[2]
    return [
        Gate("rz", (a,), angle=half),
        Gate("rz", (b,), angle=half),
        Gate("zzphase", tuple(sorted((a, b))), angle=-half),
    ]


def _diagonalizing_ops(
    strings: Sequence[PauliString], n: int
) -> tuple[list[tuple], np.ndarray, np.ndarray]:
    """Clifford generators turning a commuting set into Z strings.

    A GF(2)-independent subset of the strings (:func:`gf2_reduce`) gives
    the rows.  Gaussian elimination of their x-block selects pivot
    qubits, then each pivot row's x support is cleared (cz through a
    Hadamard pair), its own phase bit (s), its z couplings (cz, pairwise
    couplings cancel on both rows at once), and finally the lone X hops
    onto Z (h).  Held by qubit (:func:`_conjugate`), rows in bits 0..r-1
    and string k in bit r+k, rows and strings are conjugated together as
    each gate is chosen; only row bits choose gates.  Returns the gates
    and each string's Z mask and sign, as ``int64`` and ``±1.0`` arrays;
    a string left with an X or Y raises ValueError.
    """
    dependent = set(gf2_reduce(s.x_mask | (s.z_mask << n) for s in strings)[1])
    rows = [[s.x_mask, s.z_mask] for i, s in enumerate(strings) if i not in dependent]
    # reduced row echelon over the x-block; row ops only redefine the
    # generating set, no gates involved
    pivots: list[int] = []
    rank = 0
    for q in range(n):
        hit = next(
            (i for i in range(rank, len(rows)) if rows[i][0] >> q & 1), None
        )
        if hit is None:
            continue
        rows[rank], rows[hit] = rows[hit], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][0] >> q & 1:
                rows[i][0] ^= rows[rank][0]
                rows[i][1] ^= rows[rank][1]
        pivots.append(q)
        rank += 1

    x = _transpose([row[0] for row in rows] + [s.x_mask for s in strings], n)
    z = _transpose([row[1] for row in rows] + [s.z_mask for s in strings], n)
    ops: list[tuple] = []
    parity = 0

    def apply(op: tuple) -> None:
        nonlocal parity
        ops.append(op)
        parity = _conjugate(x, z, parity, (op,))

    for i, q in enumerate(pivots):
        for j in range(n):
            if j != q and x[j] >> i & 1:
                apply(("h", j))
                apply(("cz", q, j))
                apply(("h", j))
    for i, q in enumerate(pivots):
        if z[q] >> i & 1:
            apply(("s", q))
    for i, q in enumerate(pivots):
        for j in range(n):
            if j != q and z[j] >> i & 1:
                apply(("cz", q, j))
    for q in pivots:
        apply(("h", q))

    r = len(rows)
    failed = [c >> r for c in x if c >> r]
    if failed:
        bad = strings[min((c & -c).bit_length() for c in failed) - 1]
        raise ValueError(f"set member {bad.to_label()!r} failed to diagonalize;"
                         " grouping bug")
    z_masks = np.array(_transpose(z, r + len(strings))[r:], dtype=np.int64)
    return ops, z_masks, np.array([1.0 - 2.0 * (parity >> r + k & 1)
                                   for k in range(len(strings))])


def plan(m: MomentOperators, mode: str = "full") -> MeasurementPlan:
    """Builds one measurement circuit per commuting set of strings.

    Identical strings appearing in several powers are deduplicated and
    measured once.  Identity coefficients become per-power constants.
    One tableau pass per set (:func:`_diagonalizing_ops`) chooses its
    Clifford and turns every member into a Z mask with a sign, which the
    :class:`PlanCircuit` holds as arrays with the per-power coefficients.

    Raises:
        ValueError: a set member fails to conjugate to a Z string, which
            indicates an inconsistent grouping.
    """
    n = m.n_qubits
    distinct, index = distinct_strings(m.powers)
    table = np.zeros((len(distinct), 4))  # row r: string r's coefficient in each power
    table[index, np.repeat(np.arange(4), m.term_counts)] = np.concatenate(
        [p.coeff for p in m.powers]).real
    rows = np.flatnonzero(distinct.x.any(axis=1) | distinct.z.any(axis=1))  # all but I
    # each string to measure has its table row plus one as coefficient, so
    # that the commuting sets name their rows
    measured = PauliSum.from_arrays(n, distinct.x[rows], distinct.z[rows], rows + 1.0)

    circuits = []
    schema: dict[tuple, list[Gate]] = {}  # the gates of each distinct op, built once
    for group in measured.group_commuting(mode):
        strings = tuple(s for s, _ in group)
        ops, z_masks, signs = _diagonalizing_ops(strings, n)
        gates: list[Gate] = []
        for op in ops:
            if op not in schema:
                schema[op] = _schema_gates(op)
            gates.extend(schema[op])
        coeffs = table[[int(c.real) - 1 for _, c in group]]
        circuits.append(PlanCircuit(Circuit(n, gates), strings, z_masks, signs, coeffs))
    constants = tuple(p.identity_coefficient.real for p in m.powers)
    return MeasurementPlan(n, mode, tuple(circuits), constants)


# ----------------------------------------------------------------------
# estimation
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MomentEstimates:
    """Estimated <H^n> with the shot records that produced them."""

    moments: tuple[float, float, float, float]
    plan: MeasurementPlan
    records: tuple[ShotRecord, ...] | None
    spc: int | None
    seed: int

    def __getitem__(self, power: int) -> float:
        if power not in (1, 2, 3, 4):
            raise KeyError("moment powers run from 1 to 4")
        return self.moments[power - 1]


def _shot_allocation(
    measurement_plan: MeasurementPlan, spc: int, allocation: str
) -> list[int]:
    """Per-circuit shot counts summing to spc * n_circuits.

    Uniform allocation repeats ``spc``; weighted allocation splits the
    same total budget proportionally to each circuit's coefficient
    1-norm (a proxy for its contribution to the moment variance), with
    a floor of one shot per circuit.  The rounding drift lands on the
    heaviest circuit; if that leaves it without a shot, it takes shots
    back one at a time from whichever circuit has the most.
    """
    n = measurement_plan.n_circuits
    if allocation == "uniform":
        return [spc] * n
    # Python's sum, term-major with powers ascending, fixes the rounding
    weights = [sum(np.abs(c.coeffs).ravel().tolist()) for c in measurement_plan.circuits]
    total = sum(weights)
    budget = spc * n
    if total == 0.0:
        return [spc] * n
    counts = [max(1, round(budget * w / total)) for w in weights]
    heaviest = weights.index(max(weights))
    counts[heaviest] += budget - sum(counts)
    # with spc >= 1 shots per circuit, some other circuit holds two or
    # more while the heaviest holds none
    while counts[heaviest] < 1:
        counts[max(range(n), key=counts.__getitem__)] -= 1
        counts[heaviest] += 1
    return counts


def _term_table(circuit: PlanCircuit, outcomes: np.ndarray) -> np.ndarray:
    """Each term's ``sign · (-1)^{|mask & b|}`` per basis index ``b``.

    Rows follow ``outcomes`` and columns the circuit's terms, so a count
    or probability vector over the outcomes maps to the term values.
    """
    return z_signs(outcomes[:, None], circuit.z_masks) * circuit.signs


def _run_circuit(
    circuit: PlanCircuit,
    psi: StateVector,
    spc: int | None,
    seed: int,
    ci: int,
    basis: np.ndarray,
    gates: dict,
) -> tuple[ShotRecord | None, np.ndarray]:
    """One circuit's acquisition and per-term values (exact when spc is None)."""
    rotated = apply_circuit(psi, circuit.clifford, gates)
    if spc is None:
        probs = np.abs(rotated.amplitudes) ** 2
        # one contiguous dot per term: a single matrix product rounds
        # the float probabilities differently
        table = np.ascontiguousarray(_term_table(circuit, basis).T)
        return None, np.array([probs @ column for column in table])
    record = sample_z(rotated, spc, seed, (ci,))
    return record, record.counts @ _term_table(circuit, record.outcomes) / spc


def _add_terms(moments: np.ndarray, circuit: PlanCircuit, columns: np.ndarray) -> None:
    """Adds term values, a contiguous ``(n_terms, batch)`` row per term, into
    ``(batch, 4)`` moments.

    Per power, a buffer holds the moment above ``coeff * value`` of each
    term with a nonzero coefficient, in term order; ``np.add.accumulate``
    down it adds them one at a time, so every float sum is a term loop's.
    """
    buffer = np.empty((1 + len(circuit.terms), len(moments)))
    for p in range(4):
        index = np.flatnonzero(circuit.coeffs[:, p])
        rows = buffer[: len(index) + 1]
        rows[0] = moments[:, p]
        # mode "raise" would buffer the take; the indices are in range
        np.take(columns, index, axis=0, out=rows[1:], mode="clip")
        rows[1:] *= circuit.coeffs[index, p, None]
        np.add.accumulate(rows, axis=0, out=rows)
        moments[:, p] = rows[-1]


def estimate(
    measurement_plan: MeasurementPlan,
    psi: StateVector,
    spc: int | None = None,
    seed: int = 0,
    mode: str = "exact",
    allocation: str = "uniform",
) -> MomentEstimates:
    """Runs every plan circuit on ``psi`` and assembles the moments.

    Each circuit's Clifford is applied to the state, a single Z-basis
    acquisition (exact distribution or ``spc`` shots under the stream
    (seed, circuit index)) serves all of its member strings, and
    <H^n> = constants_n + sum sign a_{i,n} <Z(mask_i)>.
    """
    if measurement_plan.n_qubits != psi.n_qubits:
        raise ValueError("plan and state widths differ")
    if mode not in ("exact", "shots"):
        raise ValueError(f"unknown estimation mode {mode!r}")
    if allocation not in ("uniform", "weighted"):
        raise ValueError(f"unknown allocation {allocation!r}")
    if mode == "shots" and (spc is None or spc < 1):
        raise ValueError("shots mode needs spc >= 1")
    if mode == "shots":
        shots = _shot_allocation(measurement_plan, spc, allocation)
    else:
        shots = [None] * measurement_plan.n_circuits
    basis = np.arange(1 << psi.n_qubits)
    moments = np.array([measurement_plan.constants])
    records = []
    gates: dict = {}  # the circuits' shared gate arrays (CompiledCircuit)
    for ci, circuit in enumerate(measurement_plan.circuits):
        record, values = _run_circuit(circuit, psi, shots[ci], seed, ci, basis, gates)
        records.append(record)
        _add_terms(moments, circuit, values[:, None])
    return MomentEstimates(
        moments=tuple(moments[0].tolist()),
        plan=measurement_plan,
        records=tuple(records) if mode == "shots" else None,
        spc=spc if mode == "shots" else None,
        seed=seed,
    )


# ----------------------------------------------------------------------
# cumulants and energy
# ----------------------------------------------------------------------
def cumulants(
    moments: MomentEstimates | Sequence[float],
) -> tuple[float, float, float, float]:
    """Connected moments c1..c4 from the raw moments <H^1>..<H^4>."""
    if isinstance(moments, MomentEstimates):
        raw = moments.moments
    else:
        raw = tuple(float(x) for x in moments)
    if len(raw) != 4:
        raise ValueError("need exactly four moments")
    c: list[float] = []
    for n in range(1, 5):
        value = raw[n - 1]
        for p in range(n - 1):
            value -= math.comb(n - 1, p) * c[p] * raw[n - p - 2]
        c.append(value)
    return tuple(c)


def energy(cums: Sequence[float]) -> float:
    """Fourth-order cumulant energy estimate.

    Eigenstate-like data (|c2| < ``C2_GUARD``) returns c1, the exact
    limit of the formula.  The discriminant 3 c3^2 - 2 c2 c4 may dip
    slightly negative under shot noise and is clamped within 1e-9;
    beyond that, or on a vanishing denominator c2^3 - c2 c4, the input
    is treated as inconsistent.
    """
    c1, c2, c3, c4 = (float(x) for x in cums)
    if abs(c2) < C2_GUARD:
        return c1
    disc = 3.0 * c3 * c3 - 2.0 * c2 * c4
    if disc < -1e-9:
        raise ValueError(f"negative discriminant {disc} beyond tolerance")
    disc = max(disc, 0.0)
    denom = c2**3 - c2 * c4
    if denom == 0.0:
        raise ValueError("zero denominator in the energy formula")
    return c1 - (c2**3 / denom) * (math.sqrt(disc) - c3)


# ----------------------------------------------------------------------
# bootstrap
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class BootstrapResult:
    """Resampled energy distribution summary."""

    mean: float
    std: float
    energies: np.ndarray
    seed: int

    @property
    def resamples(self) -> int:
        return len(self.energies)

    def to_csv(self) -> str:
        lines = ["resample,energy"]
        lines.extend(f"{b},{e!r}" for b, e in enumerate(map(float, self.energies)))
        return "\n".join(lines) + "\n"


def bootstrap(
    est: MomentEstimates, resamples: int = 500, seed: int = 0
) -> BootstrapResult:
    """Bootstrap mean and std of the energy over shot-record resamples.

    Each circuit's shot histogram is resampled with replacement (one
    multinomial draw of ``spc`` shots over its observed outcomes per
    resample, stream (seed, circuit)), the moments are reassembled as in
    :func:`estimate`, and the energy formula is re-evaluated per
    resample.

    Raises:
        ValueError: exact-mode estimates carry no shot records.
    """
    if est.records is None:
        raise ValueError("bootstrap needs shot records; run estimate in"
                         " shots mode")
    if resamples < 2:
        raise ValueError("need at least two resamples")
    moments = np.tile(np.asarray(est.plan.constants), (resamples, 1))
    for ci, (circuit, record) in enumerate(zip(est.plan.circuits, est.records)):
        draws = derived_rng(seed, ci).multinomial(
            record.spc, record.counts / record.spc, size=resamples
        )
        # each array goes once the next exists: draws, values, their transpose
        values = draws @ _term_table(circuit, record.outcomes)
        del draws
        columns = np.ascontiguousarray(values.T)
        del values
        columns /= record.spc
        _add_terms(moments, circuit, columns)
    energies = np.array([energy(cumulants(row)) for row in moments])
    # variance of shifted data; exact zero when every resample agrees
    return BootstrapResult(
        mean=float(np.mean(energies)),
        std=float(np.std(energies - energies[0], ddof=1)),
        energies=energies,
        seed=seed,
    )


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------
def moment_report(
    m: MomentOperators,
    measurement_plan: MeasurementPlan,
    filter_report: FilterReport | None = None,
) -> str:
    """JSON summary: term counts, circuit count, cut and filter sizes."""
    payload = {
        "term_counts": list(m.term_counts),
        "threshold": m.threshold,
        "dropped_weights": list(m.dropped),
        "n_circuits": measurement_plan.n_circuits,
        "grouping_mode": measurement_plan.mode,
    }
    if filter_report is not None:
        payload["filter"] = {
            "tol": filter_report.tol,
            "evaluated": filter_report.evaluated,
            "survivors": list(filter_report.survivors),
            "dropped": len(filter_report.audited),
        }
    return json.dumps(payload, indent=1)
