"""tools/bits.py: a one-ulp change to one case's input flips that case alone."""

import json
import pathlib
import sys

import numpy as np
import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "tools"), str(ROOT / "bench")]

import bits  # noqa: E402
import gsee.chem  # noqa: E402
import gsee.pauli  # noqa: E402
import gsee.qcm4  # noqa: E402
import workloads  # noqa: E402


def three_cases() -> list:
    """An ``@``, a ``from_products`` and a ``jordan_wigner`` case; ``NUDGES``
    names the float input of each that the test moves by one ulp."""
    rng = np.random.default_rng(5)
    a, b = bits.random_sum(rng, 70, 12), bits.random_sum(rng, 70, 9)
    factors = [bits.random_sum(rng, 31, 3) for _ in range(2)]
    rows = np.array([[0, 1], [1, 1], [1, 0]])
    one, two, core = workloads.random_integrals(4, 0)
    return [
        ("product", {"a": a, "b": b}, bits.run_product),
        ("from_products", {"n": 31, "factors": factors, "rows": rows,
                           "weights": np.array([0.7, -1.1, 0.4])}, bits.run_from_products),
        ("jordan_wigner", {"norb": 4, "one": one, "two": two, "core": np.array([core])},
         bits.run_jordan_wigner),
    ]


NUDGES = {
    "product": lambda inputs: inputs["a"]["c"],
    "from_products": lambda inputs: inputs["weights"],
    "jordan_wigner": lambda inputs: inputs["one"],
}


@pytest.mark.parametrize("case", list(NUDGES))
def test_one_ulp_flips_exactly_that_case(case):
    base = bits.manifest(three_cases(), gsee)
    assert bits.compare(base, json.loads(json.dumps(base))) == []
    cases = three_cases()
    array = NUDGES[case](next(inputs for name, inputs, _ in cases if name == case))
    if np.iscomplexobj(array):
        array.real = np.nextafter(array.real, np.inf)
    else:
        array[...] = np.nextafter(array, np.inf)  # one ulp up, every entry
    rows = bits.compare(base, bits.manifest(cases, gsee))
    assert [row.split(":")[0] for row in rows] == [case]
    assert "values, largest relative move" in rows[0]
