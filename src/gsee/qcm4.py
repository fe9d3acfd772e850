"""Fourth-order moment and cumulant energy estimation.

The pipeline expands the Hamiltonian powers H^n for n = 1..4, filters
strings whose ideal expectation vanishes in the input state, groups the
survivors into fully commuting sets, diagonalizes each set with a
Clifford circuit so one Z-basis acquisition serves every member, turns
moments into cumulants

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
from .pauli import PauliString, PauliSum, gf2_reduce, sum_multiply, z_signs
from .simulator import ShotRecord, StateVector, apply_circuit, derived_rng, sample_z

__all__ = [
    "TERM_CAP",
    "BootstrapResult",
    "FilterReport",
    "MeasurementPlan",
    "MomentEstimates",
    "MomentOperators",
    "PlanCircuit",
    "PlanTerm",
    "bootstrap",
    "build_moments",
    "cumulants",
    "energy",
    "estimate",
    "moment_report",
    "pauli_filter",
    "plan",
]

TERM_CAP = 500_000


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


def build_moments(
    h: PauliSum, threshold: float = 0.0, cap: int = TERM_CAP
) -> MomentOperators:
    """Expands H^1..H^4 by repeated products, then prunes small terms.

    All four powers are constructed exactly before any truncation, so a
    nonzero threshold never compounds through the product chain.

    Raises:
        ValueError: H is not Hermitian, or a power exceeds ``cap`` terms.
    """
    if not h.is_hermitian():
        raise ValueError("Hamiltonian must be Hermitian")
    full = [h]
    for power in (2, 3, 4):
        nxt = sum_multiply(full[-1], h)
        if len(nxt) > cap:
            raise ValueError(
                f"moment H^{power} exceeded the {cap}-term cap; raise the"
                " cap or truncate the Hamiltonian first"
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
    m: MomentOperators, psi: StateVector, tol: float = 1e-12
) -> tuple[MomentOperators, FilterReport]:
    """Removes strings whose ideal expectation in ``psi`` vanishes.

    Every distinct non-identity string is evaluated once; strings with
    |<psi|P|psi>| <= tol leave the measurement workload, and their exact
    contribution (coefficient times recorded expectation) moves into the
    identity term of each affected power.
    """
    if m.n_qubits != psi.n_qubits:
        raise ValueError("moment operators and state widths differ")
    amps = psi.amplitudes
    values: dict[PauliString, float] = {}
    for power in m.powers:
        for string, _ in power.terms():
            if string != PauliString() and string not in values:
                values[string] = np.vdot(amps, string.act(amps)).real
    dropped = {s: v for s, v in values.items() if abs(v) <= tol}
    filtered = []
    survivors = []
    for power in m.powers:
        kept: dict[PauliString, complex] = {}
        shift = 0.0
        for string, coeff in power.terms():
            if string in dropped:
                shift += coeff.real * dropped[string]
            else:
                kept[string] = coeff
        kept[PauliString()] = kept.get(PauliString(), 0j) + shift
        filtered.append(PauliSum(m.n_qubits, kept))
        survivors.append(
            sum(1 for s in kept if s != PauliString())
        )
    report = FilterReport(
        tol=tol,
        evaluated=len(values),
        survivors=tuple(survivors),
        audited=tuple(
            sorted(dropped.items(), key=lambda t: t[0].sort_key())
        ),
    )
    return (
        MomentOperators(tuple(filtered), m.threshold, m.dropped),
        report,
    )


# ----------------------------------------------------------------------
# measurement planning
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PlanTerm:
    """One measured string: its diagonalized form and its consumers.

    The set's Clifford U maps the string P to U P U^dag = sign Z(mask);
    ``uses`` lists (power n, coefficient of P in H^n) pairs.
    """

    string: PauliString
    z_mask: int
    sign: int
    uses: tuple[tuple[int, float], ...]


@dataclass(frozen=True)
class PlanCircuit:
    clifford: Circuit
    terms: tuple[PlanTerm, ...]


@dataclass(frozen=True)
class MeasurementPlan:
    """Commuting-set measurement circuits covering all four powers."""

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


def _diagonalizing_ops(rows: list[list[int]], n: int) -> list[tuple]:
    """Clifford generator sequence turning commuting rows into Z strings.

    Gaussian-eliminates the x-block to select pivot qubits, then clears
    each pivot row's x support (cz through a Hadamard pair), its own
    phase bit (s), its z couplings (cz, pairwise couplings cancel on
    both rows at once), and finally hops the lone X onto Z (h).  The
    rows are conjugated by :func:`_conjugate` as each gate is chosen.
    """
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

    # bit i of x[q] / z[q] is row i's bit on qubit q
    x = _transpose([row[0] for row in rows], n)
    z = _transpose([row[1] for row in rows], n)
    ops: list[tuple] = []

    def apply(op: tuple) -> None:
        ops.append(op)
        _conjugate(x, z, 0, (op,))

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

    if any(x):
        raise ValueError("commuting set failed to diagonalize; grouping bug")
    return ops


def plan(m: MomentOperators, mode: str = "full") -> MeasurementPlan:
    """Builds one measurement circuit per commuting set of strings.

    Identical strings appearing in several powers are deduplicated and
    measured once.  Identity coefficients become per-power constants.
    All strings of a set pass through its Clifford together, held by
    qubit (:func:`_conjugate`), and come out as Z masks with signs.

    Raises:
        ValueError: a set member fails to conjugate to a Z string, which
            indicates an inconsistent grouping.
    """
    n = m.n_qubits
    uses: dict[PauliString, list[tuple[int, float]]] = {}
    constants = [0.0, 0.0, 0.0, 0.0]
    for idx, power in enumerate(m.powers):
        for string, coeff in power.terms():
            if string == PauliString():
                constants[idx] += coeff.real
            else:
                uses.setdefault(string, []).append((idx + 1, coeff.real))
    distinct = PauliSum(n, {s: 1.0 for s in uses})

    circuits = []
    for group in distinct.group_commuting(mode):
        strings = [s for s, _ in group]
        # a GF(2)-independent generating set of the symplectic vectors
        _, dependent = gf2_reduce(s.x_mask | (s.z_mask << n) for s in strings)
        skip = set(dependent)
        ops = _diagonalizing_ops(
            [[s.x_mask, s.z_mask] for i, s in enumerate(strings) if i not in skip], n
        )
        gates: list[Gate] = []
        for op in ops:
            gates.extend(_schema_gates(op))
        x = _transpose([s.x_mask for s in strings], n)
        z = _transpose([s.z_mask for s in strings], n)
        parity = _conjugate(x, z, 0, ops)
        if any(x):
            bad = strings[min((c & -c).bit_length() for c in x if c) - 1]
            raise ValueError(
                f"set member {bad.to_label()!r} failed to diagonalize;"
                " grouping bug"
            )
        terms = [
            PlanTerm(
                string=s, z_mask=zm, sign=1 - 2 * (parity >> k & 1),
                uses=tuple(uses[s]),
            )
            for k, (s, zm) in enumerate(zip(strings, _transpose(z, len(strings))))
        ]
        circuits.append(
            PlanCircuit(clifford=Circuit(n, gates), terms=tuple(terms))
        )
    return MeasurementPlan(
        n_qubits=n,
        mode=mode,
        circuits=tuple(circuits),
        constants=tuple(constants),
    )


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
    weights = [
        sum(abs(a) for t in c.terms for _, a in t.uses)
        for c in measurement_plan.circuits
    ]
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
    masks = np.array([t.z_mask for t in circuit.terms], dtype=np.int64)
    signs = np.array([t.sign for t in circuit.terms], dtype=float)
    return z_signs(outcomes[:, None], masks) * signs


def _run_circuit(
    circuit: PlanCircuit,
    psi: StateVector,
    spc: int | None,
    seed: int,
    ci: int,
    basis: np.ndarray,
) -> tuple[ShotRecord | None, np.ndarray]:
    """One circuit's acquisition and per-term values (exact when spc is None)."""
    rotated = apply_circuit(psi, circuit.clifford)
    if spc is None:
        probs = np.abs(rotated.amplitudes) ** 2
        # one contiguous dot per term: a single matrix product rounds
        # the float probabilities differently
        table = np.ascontiguousarray(_term_table(circuit, basis).T)
        return None, np.array([probs @ column for column in table])
    record = sample_z(rotated, spc, seed, (ci,))
    return record, record.counts @ _term_table(circuit, record.outcomes) / spc


def _add_terms(moments: np.ndarray, circuit: PlanCircuit, values: np.ndarray) -> None:
    """Adds ``(batch, n_terms)`` term values into ``(batch, 4)`` moments."""
    # one term and one use at a time; this order fixes every float sum
    for term, column in zip(circuit.terms, values.T):
        for power, coeff in term.uses:
            moments[:, power - 1] += coeff * column


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
    for ci, circuit in enumerate(measurement_plan.circuits):
        record, values = _run_circuit(circuit, psi, shots[ci], seed, ci, basis)
        records.append(record)
        _add_terms(moments, circuit, values[None])
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


def energy(
    cums: Sequence[float], guard: float = 1e-10
) -> float:
    """Fourth-order cumulant energy estimate.

    Eigenstate-like data (|c2| < guard) returns c1, the exact limit of
    the formula.  The discriminant 3 c3^2 - 2 c2 c4 may dip slightly
    negative under shot noise and is clamped within 1e-9; beyond that,
    or on a vanishing denominator c2^3 - c2 c4, the input is treated as
    inconsistent.
    """
    c1, c2, c3, c4 = (float(x) for x in cums)
    if abs(c2) < guard:
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
        values = draws @ _term_table(circuit, record.outcomes) / record.spc
        _add_terms(moments, circuit, values)
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
