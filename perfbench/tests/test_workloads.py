"""Seeded inputs and correctness gates of the workloads."""

import pytest

import workloads


def test_inputs_depend_only_on_the_seed():
    assert workloads.trace_indices(3) == workloads.trace_indices(3)
    assert workloads.quasi_document(3) == workloads.quasi_document(3)
    assert workloads.quasi_phases(3) != workloads.quasi_phases(4)


@pytest.mark.parametrize("seed", range(20))
def test_trace_indices_are_distinct_with_a_fixed_sum(seed):
    idx = workloads.trace_indices(seed)
    assert len(set(idx)) == 3
    assert all(48 <= n <= 96 for n in idx)
    assert sum(idx) == workloads.TRACE_INDEX_SUM


def test_corrupted_reference_value_fails_one_operation(tmp_path):
    wl = workloads.Workload("compute_cos", 0, tmp_path)
    good = wl.reference[500]
    wl.reference = list(wl.reference)
    wl.reference[500] = good + 10 * workloads.EIGEN_GATE
    attempted, failures = wl.run_pass()
    assert (attempted, len(failures)) == (1, 1)
    assert "reference" in failures[0]
    # the same output passes against the stored reference
    wl.reference[500] = good
    csv_path = tmp_path / "compute_cos.csv"
    assert workloads.compute_gate(csv_path, workloads.COS_NMAX, wl.reference) is None


def test_unknown_workload_is_refused(tmp_path):
    with pytest.raises(ValueError):
        workloads.Workload("nope", 0, tmp_path)


@pytest.mark.parametrize("seed", [0, 15, 16, 41])
def test_every_quasi_seed_has_a_stored_reference(seed):
    ref_seed = seed % workloads.QUASI_REF_SEEDS
    entry = workloads.load_reference("compute_quasi")["seeds"][str(ref_seed)]
    assert entry["phases"] == workloads.quasi_phases(seed)
