"""The tracer's self-time arithmetic and its patching of the package."""

import pytest

import layers
from tracer import Span, SpanTree, Tracer, package_modules


def _nest():
    # root [0, 10]
    #   a [1, 6]
    #     b [2, 4]
    #     a [4.5, 5.5]   recursive call, as u_element for k > k'
    #   c [7, 9]
    return [Span("root", 0.0, 10.0, -1), Span("a", 1.0, 6.0, 0),
            Span("b", 2.0, 4.0, 1), Span("a", 4.5, 5.5, 1),
            Span("c", 7.0, 9.0, 0)]


def test_self_time_subtracts_direct_children():
    tree = SpanTree(_nest())
    assert tree.self_time == pytest.approx([3.0, 2.0, 2.0, 1.0, 2.0])
    assert tree.children[1] == [2, 3]


def test_recursive_call_is_not_counted_twice():
    tree = SpanTree(_nest())
    below = tree.under("root")
    assert below == [1, 2, 3, 4]
    assert tree.outermost == [True, True, True, False, True]
    # inclusive time and calls come from the outer span only
    assert tree.inclusive("a", below) == (pytest.approx(5.0), 1)
    # self time of both spans adds up to the outer span's duration
    assert tree.self_seconds("a", below) == pytest.approx(3.0)


def test_layer_metrics_average_over_passes():
    spans = [Span(layers.PASS, 0.0, 4.0, -1),
             Span("matelem.v_matrix", 1.0, 2.0, 0),
             Span(layers.PASS, 10.0, 13.0, -1),
             Span("matelem.v_matrix", 10.0, 13.0, 2),
             Span(layers.SETUP, 20.0, 21.0, -1),
             Span("cli.parse_config", 20.0, 20.5, 4)]
    got = layers.layer_metrics(SpanTree(spans), [4.0, 3.0], [3.0, 2.0])
    assert got["matelem.v_matrix.s"]["value"] == pytest.approx(2.0)
    assert got["matelem.v_matrix.calls"]["value"] == pytest.approx(1.0)
    assert got["cli.parse_config.s"]["value"] == pytest.approx(0.5)
    assert got["trace_overhead_s"]["value"] == pytest.approx(1.0)


def _bindings():
    return {(m.__name__, attr): value
            for m in package_modules("oscspec") for attr, value in vars(m).items()}


def test_traced_run_restores_every_patched_attribute():
    from oscspec import matelem, spectral
    from oscspec.model import PhasePoint

    before = _bindings()
    tracer = Tracer("oscspec", observers=layers.OBSERVERS)
    with tracer:
        assert spectral.build_matrix is not before[("oscspec.spectral", "build_matrix")]
        matelem.u_element(PhasePoint(1.0, 0.5), 1.0, 5, 2)
    with pytest.raises(ValueError), tracer:
        matelem.u_element(PhasePoint(1.0, 0.5), 1.0, -1, 2)
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert changed == []
    names = [s.name for s in tracer.spans]
    # k > k' recurses once through the patched module attribute
    assert names == ["matelem.u_element", "matelem.u_element", "matelem.u_element"]
    assert tracer.spans[1].parent == 0
    assert tracer.spans[2].error == "ValueError"


def test_wraps_functions_imported_by_name():
    from oscspec import cli, resolvent, spectral

    originals = (spectral.build_matrix, resolvent.v_matrix, cli.trace_eigenvalue)
    with Tracer("oscspec"):
        assert spectral.build_matrix.__wrapped__ is originals[0]
        assert resolvent.v_matrix.__wrapped__ is originals[1]
        assert cli.trace_eigenvalue.__wrapped__ is originals[2]

