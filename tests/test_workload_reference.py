"""Workload generation against its reference: the calibration and the pins.

``reference_calibrate_headroom`` is ``_calibrate_headroom``'s body as it
stood before each bisection probe became one pass over the row-best ratios:
every probe raises the whole ``n x k`` matrix to ``gamma`` and takes row
minima, for all 80 probes.  The property draws matrices with incompressible
rows (no ratio below the default's 1), rows whose ratios tie, and ratios
from 1e-6 to 1e6, picks a target anywhere in the range the bracket reaches,
and asserts the two results are equal byte for byte.

The pinned digests were recorded from the out-of-place generator the
in-place one replaced; they cover every array a workload carries, for the
four paper workloads at seeds 0-2.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import WorkloadError
from repro.workloads.matrices import _calibrate_headroom, generate_workload
from repro.workloads.spec import CEB_SPEC, DSB_SPEC, JOB_SPEC, STACK_SPEC, WorkloadSpec

LOW, HIGH = 0.02, 8.0


def reference_calibrate_headroom(matrix, target_optimal):
    """The O(n*k)-per-probe calibration: the judge of the O(n) one."""
    default = matrix[:, 0:1]
    ratios = matrix / default

    def optimal_total(gamma):
        transformed = default * np.power(ratios, gamma)
        return float(transformed.min(axis=1).sum())

    low, high = LOW, HIGH
    for _ in range(80):
        mid = 0.5 * (low + high)
        if optimal_total(mid) > target_optimal:
            low = mid
        else:
            high = mid
    gamma = 0.5 * (low + high)
    return default * np.power(ratios, gamma)


def reference_optimal_total(matrix, gamma):
    default = matrix[:, :1]
    return float((default * np.power(matrix / default, gamma)).min(axis=1).sum())


RATIO = st.one_of(
    st.sampled_from([0.25, 0.5, 0.5, 1.0, 2.0]),  # ties within and across rows
    st.floats(min_value=-6.0, max_value=6.0).map(lambda e: 10.0 ** e),
)


@st.composite
def matrices(draw):
    n = draw(st.integers(min_value=1, max_value=40))
    k = draw(st.integers(min_value=2, max_value=8))
    default = np.array(
        draw(st.lists(st.floats(1e-3, 1e3), min_size=n, max_size=n))
    )
    ratios = np.array(
        draw(st.lists(st.lists(RATIO, min_size=k - 1, max_size=k - 1), min_size=n, max_size=n))
    )
    incompressible = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    ratios[incompressible] = np.maximum(ratios[incompressible], 1.0)
    matrix = np.empty((n, k))
    matrix[:, 0] = default
    matrix[:, 1:] = default[:, None] * ratios
    return matrix


@settings(max_examples=150, deadline=None)
@given(matrix=matrices(), where=st.floats(min_value=0.0, max_value=1.0))
def test_calibration_is_byte_identical_to_the_reference(matrix, where):
    most = reference_optimal_total(matrix, LOW)
    least = reference_optimal_total(matrix, HIGH)
    target = min(max(least + where * (most - least), least), most)
    before = matrix.copy()
    got = _calibrate_headroom(matrix, target)
    assert np.array_equal(matrix, before)  # the input is not overwritten
    want = reference_calibrate_headroom(matrix, target)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@settings(max_examples=60, deadline=None)
@given(matrix=matrices(), beyond=st.floats(min_value=1e-6, max_value=0.5))
def test_targets_past_either_end_of_the_bracket_raise(matrix, beyond):
    most = reference_optimal_total(matrix, LOW)
    least = reference_optimal_total(matrix, HIGH)
    for target in (most * (1.0 + beyond), least * (1.0 - beyond)):
        with pytest.raises(WorkloadError, match="unreachable"):
            _calibrate_headroom(matrix, target)


SHAPE_120x12 = dict(name="small", n_queries=120, n_hints=12, default_total=1200.0)


@pytest.mark.parametrize("headroom, named", [(50.0, "50x"), (1.0001, "1.0001x")])
def test_an_unreachable_headroom_is_refused_not_clamped(headroom, named):
    # The bracket saturated here before: 50x read 21.70x and 1.0001x read 1.0222x.
    spec = WorkloadSpec(optimal_total=1200.0 / headroom, **SHAPE_120x12)
    with pytest.raises(WorkloadError) as caught:
        generate_workload(spec, seed=0)
    message = str(caught.value)
    assert named in message
    assert "1.02222x ... 21.6999x" in message


@pytest.mark.parametrize("headroom", [1.05, 3.0, 20.0])
def test_a_reachable_headroom_is_met(headroom):
    spec = WorkloadSpec(optimal_total=1200.0 / headroom, **SHAPE_120x12)
    assert generate_workload(spec, seed=0).headroom == pytest.approx(headroom, rel=1e-9)


def workload_digest(workload):
    digest = hashlib.sha256()
    for array in (
        workload.true_latencies,
        workload.optimizer_costs,
        workload.query_factors,
        workload.hint_factors,
    ):
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


PINNED = {
    ("ceb", 0): "919e0728a50c34fcd683719852236d2da2d75ab4d53c9668547d41db05cff466",
    ("ceb", 1): "b2b26744b52909e953dadc3d8c5e2ef53ce3fde675ddbf81b6ca5d4fa88f95a0",
    ("ceb", 2): "2fe4a684de709f4dcb71f414566e5905f2f33901a25f99eb72e19be27abd2d68",
    ("dsb", 0): "2c778642c08da713026e9c7611d531218baeae0c32abf2a9f06bd673bf72bcd2",
    ("dsb", 1): "cecf4e2fe51a9ff88cde9983b521878aa5d3b6b34af49243f7b14036fdeafbec",
    ("dsb", 2): "1929c2ea6fce514e9328051a5ab8771b8be004545a9dabc9cccdcb0dc935814c",
    ("job", 0): "71d1470b2841db86cffc7d70c89ba49ac685b53b8637dfeca91b7f2b434c9664",
    ("job", 1): "e1edfff7c6f8974339f8bb17fe6a4f2cccf79bbb1d9d4a5bd181b20411d2ad1b",
    ("job", 2): "7dff24b151a61424112b85967d2f00192e5bbd4eca8f65540cc341b4c9eaf41a",
    ("stack", 0): "259c0ed3ebba792926020e7592ab5f5072a743e142ba2ed7ced4cea351f4bb64",
    ("stack", 1): "86ea9603c9f967d82fb3314de0d03a4509c552ee0728b66890b28ecd0a2e379b",
    ("stack", 2): "a9a1dbbf1360b0e39f8ad4f5879ce8cdaef062ebbee1aaee4abc1128d5c0c3e6",
}
SPECS = {spec.name: spec for spec in (CEB_SPEC, DSB_SPEC, JOB_SPEC, STACK_SPEC)}


@pytest.mark.parametrize("name, seed", sorted(PINNED))
def test_generated_arrays_match_their_pinned_digest(name, seed):
    workload = generate_workload(SPECS[name], seed=seed)
    assert workload_digest(workload) == PINNED[(name, seed)]
