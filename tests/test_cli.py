"""Tests for config parsing and the command-line entry points."""

import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscspec import cli, matelem, resolvent, specialfn, spectral
from oscspec.cli import main, parse_config, run_compute, run_verify
from oscspec.model import ValidationError
from test_spectral import quasi_potential

GOOD_CONFIG = {
    "alpha": 1.0,
    "c0": 0.0,
    "terms": [[1.0, 0.0, 0.5, 0.0], [-1.0, 0.0, 0.5, 0.0]],
    "nmax": 8,
    "tol": 1e-9,
    "epsilon": 0.5,
}


# JSON numbers of every size, including integers past the float range and
# the NaN/Infinity tokens Python's json module reads and writes
_numbers = st.one_of(st.floats(), st.integers(-10**400, 10**400))
_json_values = st.one_of(st.none(), st.booleans(), _numbers,
                         st.text(max_size=3),
                         st.lists(st.one_of(_numbers, st.booleans()),
                                  max_size=5))


@st.composite
def _mirrored_terms(draw):
    """Rows [a_x, a_xi, re, im] with their mirrors, so that documents get
    past the structural checks to the derived constants."""
    rows = []
    for _ in range(draw(st.integers(0, 3))):
        ax, axi, re, im = (draw(_numbers) for _ in range(4))
        rows += [[ax, axi, re, im], [-ax, -axi, re, -im]]
    return rows


_config_documents = st.fixed_dictionaries({}, optional={
    "alpha": st.one_of(_numbers, _json_values),
    "c0": _json_values,
    "terms": st.one_of(_mirrored_terms(), _json_values),
    "nmax": _json_values,
    "tol": _json_values,
    "epsilon": _json_values,
})


def quasi_document(seed):
    """GOOD_CONFIG with the potential of `quasi_potential(seed)`."""
    V = quasi_potential(seed)
    return {**GOOD_CONFIG, "c0": V.c0.real,
            "terms": [[p.a_x, p.a_xi, c.real, c.imag] for p, c in V.terms]}


def write_config(tmp_path, doc):
    p = tmp_path / "config.json"
    p.write_text(json.dumps(doc), encoding="utf-8")
    return p


class TestParseConfig:
    def test_good_config(self):
        cfg = parse_config(json.dumps(GOOD_CONFIG))
        assert cfg.potential.alpha == 1.0
        assert len(cfg.potential.terms) == 2
        assert cfg.nmax == 8
        assert cfg.convergence_tol == 1e-9
        assert cfg.epsilon == 0.5

    def test_defaults(self):
        cfg = parse_config(json.dumps({
            "alpha": 2.0,
            "terms": [[1.0, 0.0, 0.5, 0.0], [-1.0, 0.0, 0.5, 0.0]],
            "nmax": 3,
        }))
        assert cfg.potential.c0 == 0.0
        assert cfg.convergence_tol == 1e-8
        assert cfg.epsilon == 1.0  # alpha / 2

    def test_not_json(self):
        with pytest.raises(ValueError, match="not valid JSON"):
            parse_config("{alpha: 1")

    def test_not_object(self):
        with pytest.raises(ValueError, match="JSON object"):
            parse_config("[1, 2]")

    def test_collects_all_problems(self):
        bad = {"alpha": -1.0, "terms": [[1.0, 0.0]], "nmax": 0,
               "epsilon": 5.0}
        with pytest.raises(ValidationError) as info:
            parse_config(json.dumps(bad))
        msg = str(info.value)
        assert "alpha" in msg
        assert "terms[0]" in msg
        assert "nmax" in msg
        assert "epsilon" in msg

    @pytest.mark.parametrize("field, value", [
        ("alpha", True),
        ("nmax", True),
        ("c0", False),
        ("epsilon", "x"),
        ("epsilon", None),
        ("tol", -1),
        ("tol", 0),
        ("tol", "a"),
        ("tol", True),
        ("terms", [[True, 0.0, 0.5, 0.0], [-1.0, 0.0, 0.5, 0.0]]),
        ("terms", 5),
        ("terms", [[1e200, 0.0, 0.5, 0.0], [-1e200, 0.0, 0.5, 0.0]]),
        ("terms", [[1e-200, 0.0, 0.5, 0.0], [-1e-200, 0.0, 0.5, 0.0]]),
    ])
    def test_malformed_field_exit_two(self, tmp_path, capsys, field, value):
        cfg_path = write_config(tmp_path, dict(GOOD_CONFIG, **{field: value}))
        out = tmp_path / "run.csv"
        assert main(["compute", "--config", str(cfg_path),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert field in err
        assert not out.exists()

    def test_tiny_alpha_exit_two(self, tmp_path, capsys):
        # |||a||| = a_x / sqrt(alpha) = 1e150, whose cube overflows
        doc = {"alpha": 1e-300, "terms": GOOD_CONFIG["terms"], "nmax": 8}
        out = tmp_path / "run.csv"
        assert main(["compute", "--config", str(write_config(tmp_path, doc)),
                     "--out", str(out)]) == 2
        assert "outside the float range at alpha = 1e-300" in \
            capsys.readouterr().err
        assert not out.exists()

    @given(doc=_config_documents)
    @settings(max_examples=400, deadline=None)
    def test_parse_config_raises_only_value_errors(self, doc):
        try:
            parse_config(json.dumps(doc))
        except ValueError:
            pass

    def test_non_finite_rejected(self):
        with pytest.raises(ValidationError, match="alpha must be"):
            parse_config('{"alpha": NaN, "nmax": 2}')

    def test_missing_mirror_rejected(self):
        bad = dict(GOOD_CONFIG, terms=[[1.0, 0.0, 0.5, 0.0]])
        with pytest.raises(ValidationError):
            parse_config(json.dumps(bad))


class TestCompute:
    def test_zero_potential_residuals(self, tmp_path):
        cfg = parse_config(json.dumps({"alpha": 1.0, "terms": [], "nmax": 12}))
        out = tmp_path / "run.csv"
        run_compute(cfg, out)
        text = out.read_bytes().decode("utf-8")
        lines = text.split("\r\n")
        assert lines[0].startswith("n,lambda_numeric,lambda_unperturbed")
        assert lines[-1] == ""
        rows = [ln.split(",") for ln in lines[1:] if ln]
        assert rows[0][0] == "0"
        for row in rows:
            assert abs(float(row[5])) <= 1e-9
        # scaled columns blank below n = 3
        assert rows[0][6] == "" and rows[2][7] == ""
        assert rows[5][6] != ""

    def test_metadata_sidecar(self, tmp_path):
        cfg = parse_config(json.dumps(GOOD_CONFIG))
        out = tmp_path / "run.csv"
        run_compute(cfg, out)
        meta = json.loads((tmp_path / "run.csv.meta.json").read_text())
        assert meta["config"] == GOOD_CONFIG
        assert meta["trusted_max"] >= 8
        assert meta["basis_size"] > 16
        # the start size certifies: no size before it was tried
        assert meta["basis_sizes_tried"] == [meta["basis_size"]]
        assert meta["coupling_band"] >= 1
        assert 0.0 < meta["max_certified_bound"] <= GOOD_CONFIG["tol"]
        assert set(meta["stage_seconds"]) == {"assembly", "solve", "certificate"}
        assert all(t >= 0.0 for t in meta["stage_seconds"].values())
        assert meta["warnings"] == []

    @pytest.mark.parametrize("nmax, ranges", [
        (5, [(0, 1), (2, 5)]), (40, [(4, 19), (20, 40)]),
    ])
    def test_residual_maxima_in_sidecar(self, tmp_path, nmax, ranges):
        # the maxima of the CSV's scaled columns over [nmax//10, nmax//2-1]
        # and [nmax//2, nmax]; null where a range has no n >= 3
        out = tmp_path / "run.csv"
        run_compute(parse_config(json.dumps({**GOOD_CONFIG, "nmax": nmax})),
                    out)
        rows = [ln.split(",") for ln in
                out.read_bytes().decode("utf-8").split("\r\n")[1:] if ln]
        meta = json.loads((tmp_path / "run.csv.meta.json").read_text())
        maxima = meta["residual_maxima"]
        assert [(m["n_lo"], m["n_hi"]) for m in maxima] == ranges
        for m in maxima:
            for key, col in (("scaled_residual", 6), ("alt_scaled", 7)):
                vals = [abs(float(r[col])) for r in rows
                        if r[col] and m["n_lo"] <= int(r[0]) <= m["n_hi"]]
                assert m[key] == (max(vals) if vals else None)
        assert (maxima[0]["scaled_residual"] is None) == (nmax == 5)

    def test_warnings_in_sidecar(self, tmp_path):
        # 5 cos x, the potential of test_large_coefficient_warns: the
        # labelling warning is listed in the sidecar and still raised
        doc = {**GOOD_CONFIG, "nmax": 5, "tol": 1e-8,
               "terms": [[1.0, 0.0, 2.5, 0.0], [-1.0, 0.0, 2.5, 0.0]]}
        out = tmp_path / "run.csv"
        message = r"at n = \[0, 1\]: .*labelling"
        with pytest.warns(UserWarning, match=message):
            run_compute(parse_config(json.dumps(doc)), out)
        meta = json.loads((tmp_path / "run.csv.meta.json").read_text())
        assert len(meta["warnings"]) == 1
        assert re.search(message, meta["warnings"][0])

    def test_deterministic_bytes(self, tmp_path):
        cfg = parse_config(json.dumps(GOOD_CONFIG))
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        run_compute(cfg, out1)
        run_compute(cfg, out2)
        assert out1.read_bytes() == out2.read_bytes()

    def test_residuals_small_for_cosine(self, tmp_path):
        cfg = parse_config(json.dumps(GOOD_CONFIG))
        out = tmp_path / "run.csv"
        run_compute(cfg, out)
        rows = [ln.split(",") for ln in
                out.read_bytes().decode("utf-8").split("\r\n")[1:] if ln]
        # first-order prediction error at small n stays order one
        for row in rows:
            assert abs(float(row[5])) < 1.0


class TestMain:
    def test_compute_exit_zero(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, GOOD_CONFIG)
        out = tmp_path / "run.csv"
        assert main(["compute", "--config", str(cfg_path),
                     "--out", str(out)]) == 0
        assert out.exists()
        assert "wrote" in capsys.readouterr().out

    def test_compute_wide_band_exit_zero(self, tmp_path):
        # |||a||| = 20: at the start size N = 2648 the Szego term of the
        # coupling band is past the float range at small offsets, and b
        # widens past N
        doc = {"alpha": 1, "terms": [[20, 0, 0.25, 0], [-20, 0, 0.25, 0]],
               "nmax": 145}
        out = tmp_path / "run.csv"
        assert main(["compute", "--config", str(write_config(tmp_path, doc)),
                     "--out", str(out)]) == 0
        meta = json.loads(out.with_suffix(".csv.meta.json").read_text())
        assert meta["basis_size"] == 2648 and meta["coupling_band"] > 2648
        assert meta["basis_sizes_tried"] == [2648]
        assert meta["max_certified_bound"] <= 1e-8

    def test_compute_nmax_override(self, tmp_path):
        cfg_path = write_config(tmp_path, GOOD_CONFIG)
        out = tmp_path / "run.csv"
        assert main(["compute", "--config", str(cfg_path), "--out", str(out),
                     "--nmax", "4"]) == 0
        rows = [ln for ln in out.read_bytes().decode("utf-8").split("\r\n")[1:] if ln]
        assert rows[-1].split(",")[0] == "4"

    def test_bad_config_exit_two(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, {"alpha": -1.0, "nmax": 2})
        out = tmp_path / "run.csv"
        assert main(["compute", "--config", str(cfg_path),
                     "--out", str(out)]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command, flags", [
        ("compute", ["--out", "run.csv"]), ("verify", []),
        ("trace", ["--n", "4"]),
    ], ids=["compute", "verify", "trace"])
    def test_missing_config_exit_two(self, tmp_path, capsys, command, flags):
        # a config that cannot be read is bad input: exit 2 and one error
        # line, no traceback
        missing = tmp_path / "absent.json"
        flags = [str(tmp_path / f) if f.endswith(".csv") else f for f in flags]
        assert main([command, "--config", str(missing), *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "absent.json" in err
        assert "Traceback" not in err
        assert not (tmp_path / "run.csv").exists()

    def test_out_in_missing_directory_exit_two(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, GOOD_CONFIG)
        out = tmp_path / "absent" / "run.csv"
        assert main(["compute", "--config", str(cfg_path),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "run.csv" in err
        assert "Traceback" not in err
        assert not out.parent.exists()

    def test_nmax_beyond_float_range_exit_two(self, tmp_path, capsys):
        out = tmp_path / "run.csv"
        huge = 10**400
        cfg_path = write_config(tmp_path, {**GOOD_CONFIG, "nmax": huge})
        assert main(["compute", "--config", str(cfg_path),
                     "--out", str(out)]) == 2
        assert "error:" in capsys.readouterr().err
        cfg_path = write_config(tmp_path, GOOD_CONFIG)
        assert main(["compute", "--config", str(cfg_path), "--out", str(out),
                     "--nmax", str(huge)]) == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    def test_matelem_smoke(self, capsys):
        assert main(["matelem", "--ax", "1.0", "--axi", "0.5",
                     "--k", "3", "--kprime", "7"]) == 0
        out = capsys.readouterr().out
        assert "closed form" in out
        assert "quadrature" in out

    def test_matelem_route_labels(self, capsys):
        assert main(["matelem", "--ax", "1.0", "--axi", "0.5",
                     "--k", "3", "--kprime", "7"]) == 0
        labels = [line.split(":")[0]
                  for line in capsys.readouterr().out.splitlines()[:3]]
        assert labels == ["closed form ", "quadrature  ", "bessel series"]
        # the series route needs k <= k'
        assert main(["matelem", "--ax", "1.0", "--axi", "0.5",
                     "--k", "7", "--kprime", "3"]) == 0
        assert "bessel series" not in capsys.readouterr().out

    @pytest.mark.parametrize("flags, message", [
        (["--alpha", "nan"], "alpha must be a positive finite real"),
        (["--alpha", "inf"], "alpha must be a positive finite real"),
        (["--alpha", "-1"], "alpha must be a positive finite real"),
        # |||a||| = 1e150, whose cube overflows
        (["--alpha", "1e-300"], "outside the float range at alpha = 1e-300"),
        (["--ax", "1e300"], "outside the float range at alpha = 1.0"),
        # refused although k > k' skips the series route, which checks it
        (["--jmax", "-1"], "jmax must be a nonnegative integer, got -1"),
    ], ids=["alpha nan", "alpha inf", "alpha -1", "alpha 1e-300", "ax 1e300",
            "jmax -1"])
    def test_matelem_bad_input_exit_two(self, capsys, flags, message):
        # k > k' skips the series route, so nothing here can hang
        assert main(["matelem", "--ax", "1", "--axi", "0", "--k", "1",
                     "--kprime", "0", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert message in captured.err

    def test_matelem_oracle_out_of_range_exit_two(self, capsys):
        # |||a||| = 40 is past sqrt(2 * 204) = 20.2, the span of the
        # oracle's 204 nodes, where it read |closed - quadrature| = 2.9e-01
        assert main(["matelem", "--ax", "40", "--axi", "0", "--k", "0",
                     "--kprime", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: oracle quadrature")
        assert "sqrt(2 * 204) = 20.2" in captured.err

    def test_matelem_oracle_cap_before_any_route(self, capsys, monkeypatch):
        # k = k' = 2e7 is past the oracle's index cap of 300: refused
        # before the closed form, whose recurrence would run 2e7 steps
        def refuse(*args):
            raise AssertionError("a route ran")

        monkeypatch.setattr(cli, "u_element", refuse)
        monkeypatch.setattr(cli, "u_element_bessel", refuse)
        assert main(["matelem", "--ax", "1", "--axi", "0", "--k", "20000000",
                     "--kprime", "20000000"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: oracle quadrature capped at index 300\n"

    @pytest.mark.parametrize("flags, message", [
        # the series spent 1.5 s and 1.0 GB in the Bessel kernel on this
        # shift before it refused
        (["--ax", "1e5", "--k", "0", "--kprime", "0", "--jmax", "1024"],
         "oracle quadrature at k=0, k'=0 holds for |||a||| <= sqrt(2 * 200) "
         "= 20, got 1e+05"),
        (["--ax", "1", "--k", "-100", "--kprime", "0"],
         "indices must be nonnegative"),
    ], ids=["shift 1e5", "k -100"])
    def test_matelem_oracle_refuses_before_other_routes(self, capsys,
                                                        monkeypatch, flags,
                                                        message):
        def refuse(*args):
            raise AssertionError("a route ran")

        monkeypatch.setattr(cli, "u_element", refuse)
        monkeypatch.setattr(cli, "u_element_bessel", refuse)
        assert main(["matelem", "--axi", "0", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_matelem_huge_bessel_argument_exit_two(self, capsys):
        # the series argument 2 rho sqrt(k'+k+1) would be 1.4e17, which the
        # Bessel kernel refuses (tests/test_matelem.py); the oracle's shift
        # cap refuses it first
        assert main(["matelem", "--ax", "1e17", "--axi", "0", "--k", "0",
                     "--kprime", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: oracle quadrature at k=0, k'=1 holds for |||a||| <= "
            "sqrt(2 * 204) = 20.2, got 1e+17\n")

    def test_matelem_bessel_rule_over_budget_exit_two(self, capsys):
        # the series would ask for a Bessel rule over the byte budget
        # (tests/test_matelem.py); the oracle's shift cap refuses it first
        assert main(["matelem", "--ax", "1e6", "--axi", "0", "--k", "0",
                     "--kprime", "0", "--jmax", "1024"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: oracle quadrature at k=0, k'=0 holds for |||a||| <= "
            "sqrt(2 * 200) = 20, got 1e+06\n")

    @pytest.mark.parametrize("jmax", [1025, 10**4, 10**6])
    def test_matelem_jmax_past_bound_exit_two(self, capsys, monkeypatch,
                                              jmax):
        # jmax = 10^4 took 2.7 s and 986 MB for the value jmax = 48
        # prints: refused past cli._MATELEM_JMAX_MAX before any route
        def refuse(*args):
            raise AssertionError("a route ran")

        for route in ("u_element", "u_element_bessel", "u_element_oracle"):
            monkeypatch.setattr(cli, route, refuse)
        assert main(["matelem", "--ax", "1", "--axi", "0", "--k", "0",
                     "--kprime", "0", "--jmax", str(jmax)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: jmax must be at most 1024, got {jmax}\n"

    def test_matelem_jmax_at_bound(self, capsys):
        assert cli._MATELEM_JMAX_MAX == 1024
        assert main(["matelem", "--ax", "1", "--axi", "0", "--k", "0",
                     "--kprime", "0", "--jmax", "1024"]) == 0
        assert "bessel series" in capsys.readouterr().out

    def test_matelem_series_overflow_exit_two(self, capsys):
        # 2 rho = 20 against (k+k'+1)^(1/6) = 1: (r/sqrt(s))^j overflows
        # by j = 400, where the series printed (nan+nanj) with exit 0
        assert main(["matelem", "--ax", "20", "--axi", "0", "--k", "0",
                     "--kprime", "0", "--jmax", "400"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert captured.err.count("\n") == 1
        assert "2 rho <= (k'+k+1)^(1/6)" in captured.err

    @pytest.mark.parametrize("ax, axi, k, kprime, label", [
        # 2 rho = 1.118 <= 11^(1/6) = 1.491
        ("1.0", "0.5", "3", "7", ""),
        # 2 rho = 20 > 1: the partial sum read 2.51e33 against the closed
        # form's 3.72e-44
        ("20", "0", "0", "0", " (outside 2 rho <= (k+k'+1)^(1/6): partial "
                              "sum, not converged)"),
    ], ids=["in regime", "outside"])
    def test_matelem_series_regime_label(self, capsys, ax, axi, k, kprime,
                                         label):
        assert main(["matelem", "--ax", ax, "--axi", axi, "--k", k,
                     "--kprime", kprime]) == 0
        line, = (s for s in capsys.readouterr().out.splitlines()
                 if s.startswith("bessel series:"))
        assert re.fullmatch(r"bessel series: \(\S+\)" + re.escape(label),
                            line)

    def test_verify_window_suite(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, GOOD_CONFIG)
        assert main(["verify", "--config", str(cfg_path),
                     "--suite", "window"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("PASS window")

    def test_verify_window_suite_with_c0(self, tmp_path, capsys):
        # quasi seed 3 has c0 = 0.25, whose c0 I does not decay like
        # n^(-1/4): the suite reads sum c_a U_a alone, [0.5709, 0.6934,
        # 0.7171], where with c0 the sups were [0.5897, 0.5483, 2.1108]
        cfg_path = write_config(tmp_path, quasi_document(3))
        assert main(["verify", "--config", str(cfg_path),
                     "--suite", "window"]) == 0
        assert capsys.readouterr().out == (
            "PASS window: sup|V_kk'| n^(1/4) over n in (64,256,1024) = "
            "[0.5709, 0.6934, 0.7171]\n")

    def test_verify_resolvent_suite(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, GOOD_CONFIG)
        assert main(["verify", "--config", str(cfg_path),
                     "--suite", "resolvent"]) == 0
        assert "PASS resolvent" in capsys.readouterr().out

    def test_matelem_suite_rerun_builds_no_quadrature_rule(self, capsys):
        # the suite asks the oracle for 101 Gauss-Hermite sizes, and the
        # cache keeps every size the oracle can ask for
        matelem._gh_rule.cache_clear()
        config = parse_config(json.dumps(GOOD_CONFIG))
        assert run_verify(config, "matelem", seed=3)
        misses = matelem._gh_rule.cache_info().misses
        assert run_verify(config, "matelem", seed=3)
        assert matelem._gh_rule.cache_info().misses == misses

    def test_bessel_suite_is_one_kernel_call(self, capsys, monkeypatch):
        calls = []

        def spy(n, xs):
            calls.append((np.shape(n), np.shape(xs)))
            return specialfn.bessel_j_grid(n, xs)

        monkeypatch.setattr(cli, "bessel_j_grid", spy)
        assert run_verify(parse_config(json.dumps(GOOD_CONFIG)), "bessel")
        assert calls == [((51, 1), (2001,))]
        assert capsys.readouterr().out == (
            "PASS bessel: max |J_n(x)| x^(1/2) / 4 = 0.214312\n")

    def test_matelem_suite_is_one_oracle_call(self, capsys, monkeypatch):
        calls = []

        def spy(points, alpha, k, kp):
            calls.append((len(points), len(k), len(kp)))
            return matelem.u_element_oracle(points, alpha, k, kp)

        monkeypatch.setattr(cli, "u_element_oracle", spy)
        assert run_verify(parse_config(json.dumps(GOOD_CONFIG)), "matelem",
                          seed=7)
        assert calls == [(200, 200, 200)]
        assert capsys.readouterr().out == (
            "PASS matelem: max cross-route discrepancy = 3.569e-14\n")

    def test_matelem_suite_is_one_closed_form_call(self, capsys,
                                                   monkeypatch):
        calls = []

        def spy(points, alpha, k, kp):
            calls.append((len(points), len(k), len(kp)))
            return matelem.u_element(points, alpha, k, kp)

        monkeypatch.setattr(cli, "u_element", spy)
        assert run_verify(parse_config(json.dumps(GOOD_CONFIG)), "matelem",
                          seed=7)
        assert calls == [(200, 200, 200)]
        assert capsys.readouterr().out == (
            "PASS matelem: max cross-route discrepancy = 3.569e-14\n")

    def test_resolvent_suite_on_near_conjugate_config(self, tmp_path,
                                                      capsys):
        # each mirror coefficient is 9e-13 from conj(c_a), which `validate`
        # accepts; the three gaps gave V_nn an imaginary part of 2.69e-12,
        # which the first-order diagonal refused with a traceback
        doc = {"alpha": 1.0, "nmax": 10, "terms": [
            [0.01, 0, 0.5, 0], [-0.01, 0, 0.5, 9e-13],
            [0, 0.01, 0.5, 0], [0, -0.01, 0.5, 9e-13],
            [0.01, 0.01, 0.5, 0], [-0.01, -0.01, 0.5, 9e-13]]}
        assert main(["verify", "--config", str(write_config(tmp_path, doc)),
                     "--suite", "resolvent"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out == (
            "PASS resolvent: n=64: s1/ln n=0.481 s2a=4.931 gap/sqrt n=0.188; "
            "n=256: s1/ln n=0.361 s2a=4.934 gap/sqrt n=0.094; "
            "|trace_1 - diag| = 0.00e+00\n")

    @pytest.mark.parametrize("seed, worst", [
        (0, "4.340e-14"), (5, "2.737e-14"), (7, "3.569e-14"),
        (123, "3.263e-14"),
    ])
    def test_matelem_suite_output_pinned(self, capsys, seed, worst):
        # the lines the suite printed calling the oracle once per draw
        assert run_verify(parse_config(json.dumps(GOOD_CONFIG)), "matelem",
                          seed=seed)
        assert capsys.readouterr().out == (
            f"PASS matelem: max cross-route discrepancy = {worst}\n")

    def test_matelem_suite_runs_series_only_in_regime(self, capsys,
                                                      monkeypatch):
        calls = []

        def spy(p, alpha, k, kp, jmax):
            calls.append((p.a_x, p.a_xi, k, kp))
            return matelem.u_element_bessel(p, alpha, k, kp, jmax)

        # the suite's draws, replayed: the series is read only for k <= k'
        # with 2 rho = (a_x^2 + a_xi^2)^(1/2) <= (k+k'+1)^(1/6) at alpha = 1
        rng = np.random.default_rng(3)
        in_regime = []
        for _ in range(200):
            ax, axi = (float(v) for v in rng.uniform(-3.5, 3.5, size=2))
            k, kp = (int(v) for v in rng.integers(0, 51, size=2))
            if k <= kp and math.hypot(ax, axi) <= (k + kp + 1) ** (1 / 6):
                in_regime.append((ax, axi, k, kp))
        monkeypatch.setattr(cli, "u_element_bessel", spy)
        assert run_verify(parse_config(json.dumps(GOOD_CONFIG)), "matelem",
                          seed=3)
        assert in_regime
        assert calls == in_regime

    @pytest.mark.parametrize("config, seed, expected", [
        ("cos", 0,
         "PASS bessel: max |J_n(x)| x^(1/2) / 4 = 0.214312\n"
         "PASS matelem: max cross-route discrepancy = 4.340e-14\n"
         "PASS window: sup|V_kk'| n^(1/4) over n in (64,256,1024) = "
         "[0.3896, 0.6714, 0.6814]\n"
         "PASS resolvent: n=64: s1/ln n=0.860 s2a=4.931 gap/sqrt n=0.688; "
         "n=256: s1/ln n=0.750 s2a=4.934 gap/sqrt n=0.594; "
         "|trace_1 - diag| = 0.00e+00\n"),
        ("quasi", 5,
         "PASS bessel: max |J_n(x)| x^(1/2) / 4 = 0.214312\n"
         "PASS matelem: max cross-route discrepancy = 2.737e-14\n"
         "PASS window: sup|V_kk'| n^(1/4) over n in (64,256,1024) = "
         "[0.5709, 0.6934, 0.7171]\n"
         "PASS resolvent: n=64: s1/ln n=0.860 s2a=4.931 gap/sqrt n=0.688; "
         "n=256: s1/ln n=0.750 s2a=4.934 gap/sqrt n=0.594; "
         "|trace_1 - diag| = 2.78e-17\n"),
    ], ids=["cos x seed 0", "quasi seed 3 seed 5"])
    def test_verify_all_output_pinned(self, tmp_path, capsys, config, seed,
                                      expected):
        cfg_path = write_config(tmp_path, GOOD_CONFIG if config == "cos"
                                else quasi_document(3))
        assert main(["verify", "--config", str(cfg_path),
                     "--seed", str(seed)]) == 0
        assert capsys.readouterr().out == expected

    def test_compute_refuses_oversized_basis(self, tmp_path, capsys,
                                             monkeypatch):
        # complex c_a plan 56 bytes per entry: the 4 GiB budget admits
        # N <= 8757, which holds at most 8757 Ritz values, so nmax = 8757
        # is refused before any matrix is built
        built = []
        monkeypatch.setattr(spectral, "solver_blocks",
                            lambda V, N: built.append(N))
        complex_terms = [[1.0, 0.0, 0.3, 0.2], [-1.0, 0.0, 0.3, -0.2]]
        cfg_path = write_config(tmp_path, {**GOOD_CONFIG,
                                           "terms": complex_terms})
        out = tmp_path / "run.csv"
        assert main(["compute", "--config", str(cfg_path), "--out", str(out),
                     "--nmax", "8757"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: basis size 8758 plans")
        assert "budget" in err
        assert built == []
        assert not out.exists()

    def test_compute_refuses_impossible_tolerance(self, tmp_path, capsys,
                                                  monkeypatch):
        # sum |c_a| = 2e300 puts the rounding term of every bound near
        # 1e285: no basis can meet the tolerance, and none is assembled
        def refuse(V, N):
            raise AssertionError(f"basis size {N} was assembled")

        monkeypatch.setattr(spectral, "solver_blocks", refuse)
        doc = {"alpha": 1.0, "terms": [[1, 0, 1e300, 0], [-1, 0, 1e300, 0]],
               "nmax": 10}
        out = tmp_path / "run.csv"
        assert main(["compute", "--config", str(write_config(tmp_path, doc)),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert re.fullmatch(
            r"error: no basis can certify tolerance 1\.000e-08: every bound "
            r"holds the modelled rounding, 1\.\d{3}e\+285 at the smallest "
            r"basis size 11 and growing with N \(requested 10\)\n", err)
        assert not out.exists()

    @pytest.mark.parametrize("epsilon", [1e-20, 1e-300])
    @pytest.mark.parametrize("command, flags, n, smallest", [
        ("verify", ["--suite", "resolvent"], 64, "2.842170943040401e-14"),
        ("trace", ["--n", "5"], 5, "1.7763568394002505e-15"),
    ], ids=["verify", "trace"])
    def test_unresolved_epsilon_exit_two(self, tmp_path, capsys, epsilon,
                                         command, flags, n, smallest):
        # nodes alpha(2n+1) + epsilon e^(i theta) round onto the level
        # below half its float spacing: refused with no division by zero
        cfg_path = write_config(tmp_path, {**GOOD_CONFIG, "epsilon": epsilon})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([command, "--config", str(cfg_path), *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: epsilon = {epsilon!r} is below the float spacing at the "
            f"level alpha(2n+1) of n = {n}, where the contour's nodes cannot "
            f"resolve it; the smallest epsilon accepted is {smallest}\n")

    def test_trace_refuses_oversized_basis(self, tmp_path, capsys,
                                           monkeypatch):
        # n = 8000 plans N = 16780, 22 GB of dense arrays: refused before
        # any matrix is built
        built = []
        monkeypatch.setattr(resolvent, "_v_blocks",
                            lambda V, lo, hi: built.append(hi))
        cfg_path = write_config(tmp_path, GOOD_CONFIG)
        assert main(["trace", "--config", str(cfg_path), "--n", "8000"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: basis size 16780 plans")
        assert "budget" in err
        assert built == []

    def test_trace_index_beyond_float_range_exit_two(self, tmp_path, capsys,
                                                     monkeypatch):
        # a 401-digit n has no float square root; the basis is sized in
        # integers and refused by the byte guard before any matrix is built
        built = []
        monkeypatch.setattr(resolvent, "_v_blocks",
                            lambda V, lo, hi: built.append(hi))
        cfg_path = write_config(tmp_path, GOOD_CONFIG)
        n = 10**400
        assert main(["trace", "--config", str(cfg_path), "--n", str(n)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.fullmatch(
            rf"error: basis size {2 * n + 8 * 10**200 + 64} plans \d+\.\d "
            r"GiB of dense arrays, over the 4 GiB budget\n", captured.err)
        assert built == []

    def test_trace_refuses_bad_epsilon_before_assembly(self, tmp_path, capsys,
                                                       monkeypatch):
        # n = 3000 plans N = 6503, within the byte budget: the contour is
        # refused after the byte guard and before any matrix is built
        built = []
        monkeypatch.setattr(resolvent, "_v_blocks",
                            lambda V, lo, hi: built.append(hi))
        cfg_path = write_config(tmp_path, GOOD_CONFIG)
        assert main(["trace", "--config", str(cfg_path), "--n", "3000",
                     "--epsilon", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: epsilon must lie in (0, alpha)")
        assert built == []

    @pytest.mark.parametrize("flags, message", [
        (["--n", "-1"], "n must be a nonnegative integer, got -1"),
        (["--n", "10", "--jmax", "0"], "jmax must be at least 1"),
        (["--n", "100000"], "basis size 202594 plans"),
        # both the basis and epsilon are invalid: the byte guard runs first
        (["--n", "8000", "--epsilon", "2"],
         "basis size 16780 plans 21.0 GiB of dense arrays, over the 4 GiB "
         "budget"),
    ], ids=["negative n", "jmax 0", "oversized basis",
            "oversized basis and bad epsilon"])
    def test_trace_refusal_prints_nothing(self, tmp_path, capsys, flags,
                                          message):
        # every stage runs before the first line: a refusal prints only
        # the error
        cfg_path = write_config(tmp_path, GOOD_CONFIG)
        assert main(["trace", "--config", str(cfg_path), *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {message}")

    @pytest.mark.parametrize("flags, message", [
        (["--n", "10", "--jmax", "0"], "jmax must be at least 1"),
        (["--n", "-1"], "n must be a nonnegative integer, got -1"),
    ], ids=["jmax 0", "negative n"])
    def test_trace_route_refuses_before_any_stage(self, tmp_path, capsys,
                                                  monkeypatch, flags,
                                                  message):
        # trace_eigenvalue runs first and refuses its own inputs: at n = 600
        # the norms' assembly took 0.41 s before jmax = 0 was refused
        built, stages = [], []
        monkeypatch.setattr(resolvent, "_v_blocks",
                            lambda V, lo, hi: built.append(hi))
        for name in ("trace_eigenvalue", "rvr_norms", "resolvent_sums",
                     "spectrum"):
            def stage(*args, name=name, route=getattr(cli, name), **kw):
                stages.append(name)
                return route(*args, **kw)

            monkeypatch.setattr(cli, name, stage)
        cfg_path = write_config(tmp_path, GOOD_CONFIG)
        assert main(["trace", "--config", str(cfg_path), *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"
        assert stages == ["trace_eigenvalue"]
        assert built == []

    def test_trace_jmax_past_bound_exit_two(self, tmp_path, capsys,
                                            monkeypatch):
        # _rs_orders costs O(jmax^2 N): jmax = 2000 took 3.6 s at n = 72,
        # so it is refused past cli._TRACE_JMAX_MAX before any assembly
        assert cli._TRACE_JMAX_MAX == 256
        built = []
        monkeypatch.setattr(resolvent, "_v_blocks",
                            lambda V, lo, hi: built.append(hi))
        cfg_path = write_config(tmp_path, GOOD_CONFIG)
        assert main(["trace", "--config", str(cfg_path), "--n", "72",
                     "--jmax", "2000"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: jmax must be at most 256, got 2000\n"
        assert built == []

    def test_trace_index_zero(self, tmp_path, capsys):
        # the dense check certifies through index 1, the least spectrum takes
        cfg_path = write_config(tmp_path, {**GOOD_CONFIG, "terms": [
            [1.0, 0.0, 0.05, 0.0], [-1.0, 0.0, 0.05, 0.0]]})
        assert main(["trace", "--config", str(cfg_path), "--n", "0"]) == 0
        check = capsys.readouterr().out.splitlines()[-1].split()
        assert check[:3] == ["dense", "lambda_n", "="]
        assert float(check[-1]) <= 1e-10

    def test_trace_smoke(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, GOOD_CONFIG)
        # six orders: at three the series is 1.4e-5 from the dense value
        assert main(["trace", "--config", str(cfg_path), "--n", "10",
                     "--jmax", "6"]) == 0
        out = capsys.readouterr().out
        assert "Neumann contraction max ||(VR)^2|| = " in out
        gate = next(l for l in out.splitlines() if l.startswith("Neumann"))
        assert gate.endswith(" (Frobenius upper bound)")
        lines = out.splitlines()
        est = float(next(l for l in lines
                         if l.startswith("eigenvalue estimate: ")).split()[-1])
        assert est == pytest.approx(21.0, abs=1.0)
        # the dense self-check, within the cross-method threshold for cos x
        check = lines[-1].split()
        assert check[:3] == ["dense", "lambda_n", "="]
        assert check[4:7] == ["|trace", "-", "dense|"]
        assert abs(est - float(check[3])) <= 1e-6
        assert float(check[-1]) <= 1e-6
