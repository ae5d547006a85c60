"""End-to-end tests for the command line interface.

Everything goes through main(argv) in-process: stdout must carry only the
data payload, stderr only diagnostics, and the exit code must follow the
documented contract (0 ok, 1 verification failure, 2 usage, 3 quadrature
non-convergence).
"""

import json
import math

import pytest

from malmsten.cli import OutputRecord, main, parse_csv, parse_json, render_json
from malmsten.closedform import MalmstenParams, delta_closed, malmsten_c, vardi_b_constant
from malmsten.proofchain import SkippedStep


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_a(capsys):
    code, out, err = run_cli(capsys, "eval", "--which", "a", "--a", "0.5")
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "eval"
    assert doc["parameters"] == {"which": "a", "a": 0.5}
    assert doc["results"]["value"] == delta_closed(0.5)
    assert err == ""


def test_eval_b(capsys):
    code, out, _ = run_cli(capsys, "eval", "--which", "b")
    assert code == 0
    assert json.loads(out)["results"]["value"] == vardi_b_constant()


def test_eval_c(capsys):
    code, out, _ = run_cli(capsys, "eval", "--which", "c", "--a", "2.0", "--b", "3.0")
    assert code == 0
    assert json.loads(out)["results"]["value"] == malmsten_c(MalmstenParams(2.0, 3.0))


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--which", "a"],                          # missing --a
        ["eval", "--which", "b", "--a", "1.0"],            # extraneous --a
        ["eval", "--which", "c", "--a", "1.0"],            # missing --b
        ["eval", "--which", "c", "--a", "0", "--b", "1"],  # a out of domain
        ["eval", "--which", "a", "--a", "nan"],
        ["eval", "--which", "a", "--a", "inf"],
        ["eval", "--which", "z", "--a", "1.0"],            # unknown selector
        ["eval"],                                          # no selector at all
        ["eval", "--which", "a", "--a", "1", "--b", "2"],  # extraneous --b
    ],
)
def test_eval_usage_errors(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err != ""


def test_quad_reproduces_closed_form(capsys):
    code, out, _ = run_cli(capsys, "quad", "--which", "a", "--a", "1.0")
    assert code == 0
    doc = json.loads(out)
    res = doc["results"]
    assert res["converged"] is True
    assert abs(res["value"] - delta_closed(1.0)) <= 1e-10
    assert res["evaluations"] > 0
    assert res["error_estimate"] >= 0.0


def test_quad_respects_rel_tol(capsys):
    code, out, _ = run_cli(capsys, "quad", "--which", "b", "--rel-tol", "1e-9")
    assert code == 0
    res = json.loads(out)["results"]
    assert abs(res["value"] - vardi_b_constant()) <= 1e-8


def test_quad_usage_errors(capsys):
    for argv in (
        ["quad", "--which", "a", "--a", "nan"],
        ["quad", "--which", "b", "--rel-tol", "1e-15"],
        ["quad", "--which", "b", "--rel-tol", "nan"],
        ["quad", "--which", "b", "--rel-tol", "-1"],
        ["quad", "--which", "c", "--a", "1.0"],
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        assert err != ""


@pytest.mark.parametrize("value, converged, fmt",
                         [(0.5, False, "json"), (0.5, False, "csv"), (math.inf, True, "json")],
                         ids=["not_converged", "not_converged-csv", "diverged"])
def test_quad_non_convergence_exits_3(capsys, monkeypatch, value, converged, fmt):
    import malmsten.cli as cli_mod
    from malmsten.quad import QuadratureResult

    def stub(f, tol=None):
        return QuadratureResult(value=value, error_estimate=0.1, evaluations=99,
                                converged=converged)

    monkeypatch.setattr(cli_mod, "integrate_semi_infinite", stub)
    code, out, err = run_cli(capsys, "quad", "--which", "b", "--format", fmt)
    assert code == 3
    if math.isfinite(value):
        # The record is still printed so the caller can see how far it got.
        if fmt == "json":
            assert json.loads(out)["results"]["converged"] is False
        else:
            assert parse_csv(out) == [{
                "which": "b", "a": "", "b": "", "value": "0.5",
                "error_estimate": "0.10000000000000001", "evaluations": "99",
                "converged": "false"}]
        assert err == "error: quadrature did not converge within the level budget\n"
    else:
        assert out == ""
        assert err == "error: quadrature diverged (value inf)\n"


def test_commands_call_the_module_names(capsys, monkeypatch):
    # bench/tracing.py counts calls by replacing these names in the cli
    # module; eval and quad must reach each one through that name.
    import malmsten.cli as cli_mod

    names = ("delta_closed", "vardi_b_constant", "malmsten_c",
             "delta_integrand", "vardi_b_integrand", "malmsten_c_integrand")
    calls = dict.fromkeys(names, 0)

    def counting(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for name in names:
        monkeypatch.setattr(cli_mod, name, counting(name, getattr(cli_mod, name)))
    for which in (["a", "--a", "0.5"], ["b"], ["c", "--a", "2", "--b", "3"]):
        for command in ("eval", "quad"):
            assert run_cli(capsys, command, "--which", *which)[0] == 0
    assert calls == dict.fromkeys(names, 1)


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_unrenderable_value_writes_nothing(capsys, fmt):
    # The integral, about 1.1e310, overflows a double at b this small; a
    # record that cannot be serialized must not leave a partial one on
    # stdout.
    code, out, err = run_cli(capsys, "eval", "--which", "c", "--a", "1", "--b", "1e-307",
                             "--format", fmt)
    assert (code, out, err) == (2, "", "error: non-finite value inf cannot be serialized\n")


def test_programming_error_is_an_internal_error(capsys, monkeypatch):
    # A bug is not the user's mistake: anything but a ValueError (bad
    # input) or a QuadratureError is labelled as internal, still without
    # a traceback and with exit code 2.
    import malmsten.cli as cli_mod

    def broken(a):
        raise TypeError("broken closed form")

    monkeypatch.setattr(cli_mod, "delta_closed", broken)
    code, out, err = run_cli(capsys, "eval", "--which", "a", "--a", "1")
    assert (code, out, err) == (2, "", "internal error: broken closed form\n")


def test_eval_c_below_pi_over_dbl_max(capsys):
    # pi/b overflows here, but the integral does not.
    code, out, err = run_cli(capsys, "eval", "--which", "c", "--a", "1e-308", "--b", "1e-308")
    assert (code, err) == (0, "")
    assert json.loads(out)["results"]["value"] == malmsten_c(MalmstenParams(1e-308, 1e-308))
    assert math.isclose(json.loads(out)["results"]["value"], -5.2088561260197e307, rel_tol=1e-13)


def test_verify_ok(capsys):
    code, out, err = run_cli(capsys, "verify", "--grid", "0.5,1.0", "--tol", "1e-8")
    assert code == 0
    doc = json.loads(out)
    res = doc["results"]
    assert res["overall_pass"] is True
    assert res["total_evaluations"] > 0
    assert len(res["steps"]) >= 7
    for step in res["steps"]:
        assert step["pass"] is True
        assert step["abs_err"] == abs(step["lhs"] - step["rhs"])


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_verify_failure_exits_1(capsys, fmt):
    # At a = 1e-300 the p_integral quadrature does not converge, so that
    # step fails and so must the chain; the record is still printed.
    code, out, err = run_cli(capsys, "verify", "--grid", "1e-300", "--format", fmt)
    assert code == 1
    if fmt == "json":
        results = json.loads(out)["results"]
        assert results["overall_pass"] is False
        failed = [s["name"] for s in results["steps"] if s["pass"] is False]
    else:
        rows = parse_csv(out)
        assert rows and {r["pass"] for r in rows} == {"true", "false"}
        failed = [r["name"] for r in rows if r["pass"] == "false"]
    assert "p_integral" in failed
    assert err == "error: identity chain verification failed\n"


def test_verify_usage_errors(capsys):
    # The message names the flag (or, for the tolerance floor, tol).
    for argv, name in (
        (["verify", "--grid", ""], "--grid"),
        (["verify", "--grid", "abc"], "--grid"),
        (["verify", "--grid", "1.0,,2.0"], "--grid"),
        (["verify", "--grid", "nan"], "--grid"),
        (["verify", "--grid", "1.0", "--tol", "1e-15"], "tol"),
        (["verify", "--grid", "1.0", "--tol", "0"], "tol"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        assert err.startswith(f"error: {name} must be "), err


def test_verify_records_skips(capsys):
    code, out, _ = run_cli(capsys, "verify", "--grid", "0.0")
    assert code == 0
    res = json.loads(out)["results"]
    assert res["overall_pass"] is True
    assert len(res["skipped"]) >= 4
    for s in res["skipped"]:
        assert s["reason"]


def test_verify_steps_and_skips_render_as_json_objects(capsys):
    # The reports are named tuples; each must reach the JSON as an object
    # keyed by its fields, never as a list of values.
    code, out, _ = run_cli(capsys, "verify", "--grid", "0.0")
    assert code == 0
    res = json.loads(out)["results"]
    assert res["steps"] and res["skipped"]
    for step in res["steps"]:
        assert list(step) == ["name", "params", "lhs", "rhs", "abs_err", "rel_err", "tol",
                              "pass", "evaluations", "note"]
    for skipped in res["skipped"]:
        assert list(skipped) == ["name", "params", "reason"]


@pytest.mark.parametrize("value", [None, {1.0}, object(), SkippedStep("step", {}, "reason")],
                         ids=["None", "set", "object", "record"])
def test_unsupported_values_do_not_serialize(value):
    # A record renders only through its _asdict(), not as the tuple it is.
    with pytest.raises(TypeError, match=f"^cannot serialize {type(value).__name__}$"):
        render_json(OutputRecord("eval", {}, {"value": value}, 0.0))


@pytest.mark.parametrize("grid", ["1e-300", "1e-308", "5e-324"])
def test_verify_tiny_a_is_not_a_usage_error(capsys, grid):
    # a*a underflows to 0 here; the chain must report and skip, not
    # divide by zero or fail to serialize a non-finite value.
    code, out, err = run_cli(capsys, "verify", "--grid", grid)
    assert code == 1
    assert "division" not in err
    assert json.loads(out)["results"]["skipped"]


def test_table_csv(capsys):
    code, out, _ = run_cli(capsys, "table", "--a-min", "0.0", "--a-max", "2.0", "--steps", "5")
    assert code == 0
    rows = parse_csv(out)
    assert list(rows[0]) == ["a", "delta_closed", "delta_quadrature", "abs_err", "converged"]
    assert len(rows) == 5
    assert float(rows[0]["a"]) == 0.0
    assert float(rows[-1]["a"]) == 2.0
    for row in rows:
        assert float(row["abs_err"]) <= 1e-8
        assert row["converged"] == "true"
    # CSV floats carry 17 significant digits: parsing them back must be
    # bit-exact against a fresh library evaluation.
    for row in rows:
        assert float(row["delta_closed"]) == delta_closed(float(row["a"]))


def test_table_json(capsys):
    code, out, _ = run_cli(capsys, "table", "--a-min", "1.0", "--a-max", "3.0", "--steps", "3", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    rows = doc["results"]["rows"]
    assert [r["a"] for r in rows] == [1.0, 2.0, 3.0]
    for r in rows:
        assert r["abs_err"] <= 1e-8


def test_table_usage_errors(capsys):
    for argv in (
        ["table", "--a-min", "1.0", "--a-max", "0.0", "--steps", "5"],
        ["table", "--a-min", "0.0", "--a-max", "1.0", "--steps", "1"],
        ["table", "--a-min", "0.0", "--a-max", "1.0", "--steps", "0"],
        ["table", "--a-min", "nan", "--a-max", "1.0", "--steps", "5"],
        ["table", "--a-min", "0.0", "--a-max", "inf", "--steps", "5"],
        ["table", "--a-min=-1e308", "--a-max=1e308", "--steps", "3"],  # span overflows
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert out == ""
    assert "--a-min" in err and "--a-max" in err  # the overflow names both flags


def test_json_round_trip(capsys):
    code, out, _ = run_cli(capsys, "quad", "--which", "a", "--a", "0.25")
    assert code == 0
    record = parse_json(out)
    assert render_json(record) + "\n" == out
    assert parse_json(render_json(record)) == record


def test_csv_round_trip(capsys):
    code, out, _ = run_cli(capsys, "eval", "--which", "b", "--format", "csv")
    assert code == 0
    rows = parse_csv(out)
    assert list(rows[0]) == ["which", "a", "b", "value"]
    assert len(rows) == 1
    assert float(rows[0]["value"]) == vardi_b_constant()


def test_verify_csv_lists_steps(capsys):
    code, out, _ = run_cli(capsys, "verify", "--grid", "0.5", "--format", "csv")
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 9
    assert all(row["pass"] == "true" for row in rows)


def test_determinism_modulo_timing(capsys):
    argv = ["verify", "--grid", "0.5"]
    code1, out1, _ = run_cli(capsys, *argv)
    code2, out2, _ = run_cli(capsys, *argv)
    assert code1 == code2 == 0
    d1, d2 = json.loads(out1), json.loads(out2)
    d1.pop("timing_ms")
    d2.pop("timing_ms")
    assert d1 == d2


def test_timing_is_present_and_sane(capsys):
    _, out, _ = run_cli(capsys, "eval", "--which", "b")
    doc = json.loads(out)
    assert doc["timing_ms"] >= 0.0


def test_no_arguments_is_usage_error(capsys):
    code, _, err = run_cli(capsys)
    assert code == 2


def test_unknown_subcommand(capsys):
    code, _, _ = run_cli(capsys, "frobnicate")
    assert code == 2


def test_help_exits_zero(capsys):
    code, out, _ = run_cli(capsys, "--help")
    assert code == 0
    assert "eval" in out and "verify" in out
