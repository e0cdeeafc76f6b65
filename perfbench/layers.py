"""Per-module metrics of a traced run, computed from its spans.

Spans come from `tracer.Tracer`.  The benchmark opens one root span per
phase: `benchmark.setup` around input generation and parsing, and
`benchmark.pass` around each traced pass.  Setup metrics are totals over the
setup phase; every other metric is a mean per traced pass.  Seconds named
`.s` are inclusive and count only calls from outside the function, so the
recursive `u_element` call for k > k' is inside its caller's time.  Seconds
named `.self_s` exclude the time of traced callees.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

from tracer import SpanTree

SETUP = "benchmark.setup"
PASS = "benchmark.pass"

# (metric name, unit) in the order of BENCHMARK.json's per_layer list
METRICS = [(m["name"], m["unit"]) for m in json.loads(
    (Path(__file__).resolve().parents[1] / "BENCHMARK.json")
    .read_text(encoding="utf-8"))["per_layer"]]

# results the tracer keeps on spans, for the byte and ratio metrics
OBSERVERS = {
    "matelem.build_matrix": lambda table: table.entries.nbytes,
    "spectral.eigensolve": len,
    "spectral.spectrum": lambda spec: spec.trusted_max + 1,
}


def _eigensolve_split(tree: SpanTree, in_pass: list[int]) -> tuple[float, float, float]:
    """Seconds of the first and second eigensolve inside each `spectrum`
    call, and the eigenvalues all of them returned."""
    first = second = returned = 0.0
    for i in in_pass:
        if tree.spans[i].name != "spectral.spectrum":
            continue
        solves = [c for c in tree.children[i]
                  if tree.spans[c].name == "spectral.eigensolve"]
        for order, c in enumerate(solves):
            if order == 0:
                first += tree.spans[c].duration
            elif order == 1:
                second += tree.spans[c].duration
            returned += tree.spans[c].info or 0.0
    return first, second, returned


def layer_metrics(tree: SpanTree, traced_walls: list[float],
                  untraced_walls: list[float]) -> dict[str, dict]:
    """Every metric of `METRICS` as {"value", "unit"}."""
    in_pass = tree.under(PASS)
    in_setup = tree.under(SETUP)
    passes = max(1, len(tree.roots(PASS)))

    def incl(name):
        return tree.inclusive(name, in_pass)[0] / passes

    def calls(name):
        return tree.inclusive(name, in_pass)[1] / passes

    def self_s(name):
        return tree.self_seconds(name, in_pass) / passes

    def errors(name, kind):
        return sum(1 for i in in_pass if tree.spans[i].name == name
                   and tree.outermost[i] and tree.spans[i].error == kind) / passes

    def total_info(name):
        return sum(tree.spans[i].info or 0.0 for i in in_pass
                   if tree.spans[i].name == name and tree.outermost[i])

    first, second, returned = _eigensolve_split(tree, in_pass)
    certified = total_info("spectral.spectrum")
    values = {
        "spectral.eigensolve_N.s": first / passes,
        "spectral.eigensolve_2N.s": second / passes,
        "spectral.spectrum.self_s": self_s("spectral.spectrum"),
        "spectral.useful_ratio": certified / returned if returned else 0.0,
        "spectral.truncation_errors": errors("spectral.spectrum", "TruncationError"),
        "matelem.v_matrix.s": incl("matelem.v_matrix"),
        "matelem.v_matrix.calls": calls("matelem.v_matrix"),
        "matelem.build_matrix.s": incl("matelem.build_matrix"),
        "matelem.build_matrix.bytes": total_info("matelem.build_matrix") / passes,
        "matelem.u_element.self_s": self_s("matelem.u_element"),
        "matelem.u_element.calls": calls("matelem.u_element"),
        "matelem.u_element_oracle.s": incl("matelem.u_element_oracle"),
        "matelem.u_element_bessel.self_s": self_s("matelem.u_element_bessel"),
        "matelem.window_sup.s": incl("matelem.window_sup"),
        "specialfn.bessel_j_grid.s": incl("specialfn.bessel_j_grid"),
        "specialfn.bessel_j_grid.calls": calls("specialfn.bessel_j_grid"),
        "specialfn.bessel_j.s": incl("specialfn.bessel_j"),
        "specialfn.bessel_j.calls": calls("specialfn.bessel_j"),
        "resolvent.trace_eigenvalue.s": incl("resolvent.trace_eigenvalue"),
        "resolvent.rvr_norms.s": incl("resolvent.rvr_norms"),
        "resolvent.resolvent_sums.s": incl("resolvent.resolvent_sums"),
        "resolvent.trace_order_j.s": incl("resolvent.trace_order_j"),
        "resolvent.neumann_divergences": errors("resolvent.trace_eigenvalue",
                                                "NeumannDivergence"),
        "asymptotics.residual_report.s": incl("asymptotics.residual_report"),
        "asymptotics.first_order_diagonal.s": incl("asymptotics.first_order_diagonal"),
        "cli.run_compute.self_s": self_s("cli.run_compute"),
        "cli.run_verify.self_s": self_s("cli.run_verify"),
        "cli.parse_config.s": tree.inclusive("cli.parse_config", in_setup)[0],
        "model.validate.s": tree.inclusive("model.validate", in_setup)[0],
        "trace_overhead_s": (statistics.median(traced_walls)
                             - statistics.median(untraced_walls)),
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit in METRICS}
