"""Command line behavior: subcommands, exit codes, JSON mode, env seed."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from futuretube import serialize
from futuretube.actions import act_real, exp_algebra
from futuretube.cli import cli_entry

iI = 1j * np.eye(2)
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def test_phi_command(tmp_path, capsys):
    p = write_json(tmp_path / "pt.json", serialize.jsonable(np.stack([iI, iI])))
    assert cli_entry(["phi", p]) == 0
    assert "2.0" in capsys.readouterr().out

    assert cli_entry(["--json", "phi", p]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["phi"] == 2.0


def test_point_commands_print_plain_floats(tmp_path, capsys):
    # the exact text lines: a numpy scalar would print as np.float64(2.0)
    pair = write_json(tmp_path / "pair.json", serialize.jsonable(np.stack([iI, iI])))
    one = write_json(tmp_path / "one.json", serialize.jsonable(iI))
    expected = [
        (["phi", pair], "phi = 2.0\n"),
        (["moment", pair], "moment = [-0.0, -0.0, -0.0, -0.0, -0.0, -0.0]\nnorm = 0.0\n"),
        (["reduce", pair], "phi_min = 2.0\nmoment_norm = 0.0\nconverged = True in 0 iterations\n"),
        (
            ["normal-form", one],
            "u = [[[1.0, -0.0], [0.0, -0.0]], [[-0.0, -0.0], [1.0, 0.0]]]\n"
            "r = 1.0\n"
            "X = [[[0.0, 1.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 1.0]]]\n",
        ),
    ]
    for argv, out in expected:
        assert cli_entry(argv) == 0
        assert capsys.readouterr().out == out


def test_reduce_command(tmp_path, capsys):
    p = write_json(tmp_path / "pt.json", serialize.jsonable(np.array([[1j, 1.0], [0.0, 1j]])))
    assert cli_entry(["--json", "reduce", p]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert abs(doc["phi_min"] - 1.0) <= 1e-4
    assert doc["moment_norm"] <= 1e-6
    assert doc["converged"] is True


def test_moment_gram_normal_form_scan(tmp_path, capsys):
    p = write_json(tmp_path / "pt.json", serialize.jsonable(iI))
    assert cli_entry(["--json", "moment", p]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["norm"] == 0.0

    assert cli_entry(["--json", "gram", p]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["rank"] == 1 and doc["gram"][0][0] == [-1.0, 0.0]

    assert cli_entry(["--json", "normal-form", p]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["r"] == 1.0

    zero = serialize.jsonable(np.zeros((2, 2), complex))
    eye = serialize.jsonable(iI)
    seq = write_json(
        tmp_path / "seq.json",
        {"type": "curve", "components": [{"num": [zero, eye]}], "k_count": 35},
    )
    assert cli_entry(["--json", "scan", seq]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["weak_exhaustion"] is True


def test_run_command_and_exit_codes(tmp_path, capsys):
    out = tmp_path / "report.json"
    cfg = write_json(
        tmp_path / "cfg.json",
        {
            "suite": "coordinate-identities",
            "seed": 7,
            "samples": 100,
            "output_path": str(out),
        },
    )
    assert cli_entry(["run", cfg]) == 0
    saved = json.loads(out.read_text())
    assert saved["verdict"] == "pass"
    assert saved["aggregate"]["pass_count"] == 100
    capsys.readouterr()

    bad = write_json(tmp_path / "bad.json", {"suite": "does-not-exist"})
    assert cli_entry(["run", bad]) == 2
    assert cli_entry(["run", str(tmp_path / "missing.json")]) == 2
    assert cli_entry(["definitely-not-a-command"]) == 2
    assert cli_entry([]) == 2
    capsys.readouterr()


def test_env_seed_override(tmp_path, capsys, monkeypatch):
    cfg = write_json(
        tmp_path / "cfg.json",
        {"suite": "coordinate-identities", "seed": 7, "samples": 30},
    )
    monkeypatch.setenv("TUBE_SEED", "99")
    assert cli_entry(["--json", "run", cfg]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["config"]["seed"] == 99
    monkeypatch.setenv("TUBE_SEED", "not-an-int")
    assert cli_entry(["run", cfg]) == 2


def test_run_all_seed_defaults_to_the_config_seed(capsys, monkeypatch):
    from futuretube import cli
    from futuretube.suites import ExperimentConfig

    def seeds(argv):
        assert cli_entry(["--json", "run-all", *argv]) == 0
        docs = json.loads(capsys.readouterr().out)
        assert sorted(docs) == ["flow-monotone", "kempf-ness"]
        return {doc["config"]["seed"] for doc in docs.values()}

    monkeypatch.setattr(cli, "SUITE_NAMES", ("flow-monotone", "kempf-ness"))
    assert seeds([]) == {ExperimentConfig.seed} == {7}
    assert seeds(["--seed", "2"]) == {2}
    monkeypatch.setenv("TUBE_SEED", "11")
    assert seeds(["--seed", "2"]) == {11}


def test_usage_error_on_bad_point(tmp_path, capsys):
    p = write_json(tmp_path / "pt.json", {"not": "a point"})
    assert cli_entry(["phi", p]) == 2
    err = capsys.readouterr().err
    assert "error" in err


def test_non_finite_point_is_a_usage_error(tmp_path, capsys):
    nan_point = [[[0.0, 1.0], [0.0, 0.0]], [[0.0, 0.0], [float("nan"), 1.0]]]
    inf_point = [[[0.0, 1.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, float("inf")]]]
    for doc in (nan_point, inf_point):
        p = write_json(tmp_path / "pt.json", doc)
        for command in ("phi", "moment", "reduce", "normal-form"):
            assert cli_entry([command, p]) == 2, command
            assert "error" in capsys.readouterr().err

    seq = write_json(
        tmp_path / "seq.json",
        {
            "type": "translate",
            "base": serialize.jsonable(iI),
            "generator": [1.0, float("inf"), 0.0, 0.0, 0.0, 0.0],
            "times": [0.0, 1.0],
        },
    )
    assert cli_entry(["scan", seq]) == 2
    capsys.readouterr()


_HUGE_EYE = serialize.jsonable(1e308 * iI)


@pytest.mark.parametrize(
    "doc, named",
    [
        # g Z g^H overflows at t = 400, where it is about e^800 / 4
        (
            {
                "type": "translate",
                "base": serialize.jsonable(iI),
                "generator": [1.0, 0.0, 0.0, 0.0, 0.0, 0.0],
                "times": {"count": 3, "start": 0, "step": 400},
            },
            "translate point 1 is not finite",
        ),
        # 1e308 i I + 1e308 i I / k overflows at k = 1
        ({"type": "curve", "k_count": 3, "components": [{"num": [_HUGE_EYE, _HUGE_EYE]}]}, "curve point 0 is not finite"),
    ],
    ids=["translate", "curve"],
)
def test_a_sequence_whose_points_overflow_is_a_usage_error(tmp_path, doc, named):
    p = write_json(tmp_path / "seq.json", doc)
    done = subprocess.run(
        [sys.executable, "-W", "error", "-m", "futuretube.cli", "scan", p],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": SRC},
        timeout=120,
    )
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr == f"error: {named}\n"
    assert "Traceback" not in done.stderr


def test_a_finite_translate_scans_its_built_points(tmp_path, capsys):
    # the same bytes as the list of the points the translate document
    # names, exp(t xi) . base for t = 0, 0.5, 1, 1.5
    base = np.stack([iI, 2.0 * iI])
    xi = np.array([1.0, 0.0, 0.3, 0.0, 0.2, 0.0])
    doc = {
        "type": "translate",
        "base": serialize.jsonable(base),
        "generator": xi.tolist(),
        "times": {"count": 4, "start": 0, "step": 0.5},
    }
    points = [serialize.jsonable(act_real(exp_algebra(xi, t), base)) for t in (0.0, 0.5, 1.0, 1.5)]
    outputs = []
    for d in (doc, {"type": "list", "points": points}):
        assert cli_entry(["--json", "scan", write_json(tmp_path / "seq.json", d)]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert len(json.loads(outputs[0])["records"]) == 4



def test_phi_of_huge_point_is_a_usage_error(tmp_path, capsys):
    p = write_json(tmp_path / "pt.json", serialize.jsonable(np.stack([1e308 * iI, 1e308 * iI])))
    assert cli_entry(["phi", p]) == 2
    assert "error" in capsys.readouterr().err

def test_reduce_exits_1_without_convergence(tmp_path, capsys, monkeypatch):
    from futuretube import reduction

    monkeypatch.setattr(reduction, "_MAX_ITERS", 1)
    p = write_json(tmp_path / "pt.json", serialize.jsonable(np.array([[1j, 1.0], [0.0, 1j]])))
    assert cli_entry(["--json", "reduce", p]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["converged"] is False and doc["iterations"] == 1


def test_moment_of_overflowing_point_is_a_usage_error(tmp_path, capsys):
    big = np.stack([1e155 * iI + 1e154 * np.array([[1.0, 2.0], [3.0, 0.0]]), 1e155 * iI])
    p = write_json(tmp_path / "pt.json", serialize.jsonable(big))
    assert cli_entry(["moment", p]) == 2
    assert "error" in capsys.readouterr().err


def test_unconverged_reductions_fail_their_records(tmp_path, capsys, monkeypatch):
    from futuretube import reduction

    monkeypatch.setattr(reduction, "_MAX_ITERS", 1)
    # levi-identity's first record is the fixed n=1 unit, which needs no reduction
    for suite, first, field in (("lagrangian", 0, "max_omega"), ("levi-identity", 1, "deviation")):
        p = write_json(tmp_path / f"{suite}.json", {"suite": suite, "samples": 2})
        assert cli_entry(["--json", "run", p]) == 1
        records = json.loads(capsys.readouterr().out)["records"][first:]
        assert len(records) == 2
        assert all(r["verdict"] == "fail" and r[field] is None for r in records)


def test_gram_of_overflowing_point_names_the_overflow(tmp_path, capsys):
    big = np.stack([1e155 * iI + 1e154 * np.array([[1.0, 2.0], [3.0, 0.0]]), 1e155 * iI])
    p = write_json(tmp_path / "pt.json", serialize.jsonable(big))
    assert cli_entry(["gram", p]) == 2
    err = capsys.readouterr().err
    assert "overflow" in err
    assert "SVD" not in err


_ZERO, _EYE = serialize.jsonable(np.zeros((2, 2), complex)), serialize.jsonable(iI)
_TRANSLATE = {
    "type": "translate",
    "base": serialize.jsonable(iI),
    "generator": [1.0, 0.0, 0.0, 0.0, 0.0, 0.0],
}


@pytest.mark.parametrize(
    "command, doc",
    [
        ("scan", {"type": "curve", "components": [{"num": [_ZERO, _EYE]}], "k_count": 3, "k_start": 0}),
        ("scan", {"type": "curve", "components": [{"num": [_ZERO, _EYE], "den": 2.0}], "k_count": 3}),
        ("scan", {"type": "curve", "components": [{"num": 1.0}], "k_count": 3}),
        ("scan", {**_TRANSLATE, "times": [None]}),
        ("scan", {**_TRANSLATE, "times": {"start": None, "count": 2}}),
        ("run", {"suite": "flow-monotone", "tolerances": [1]}),
        ("run", {"suite": "flow-monotone", "tolerances": {"slack": None}}),
        ("run", {"suite": "flow-monotone", "seed": None}),
        ("run", {"suite": "flow-monotone", "n": [1]}),
        ("run", {"suite": ["flow-monotone"]}),
        # a bool, a NaN string or an int beyond the float range is not a number
        ("scan", {**_TRANSLATE, "times": {"count": True}}),
        ("scan", {"type": "curve", "components": [{"num": [_ZERO, _EYE]}], "k_count": True, "k_start": True}),
        ("scan", {"type": "curve", "components": [{"num": [_ZERO, _EYE]}], "k_count": 3, "k_start": True}),
        ("phi", [[[0.0, True], [0.0, 0.0]], [[0.0, 0.0], [0.0, 1.0]]]),
        ("phi", [[[0.0, 10**400], [0.0, 0.0]], [[0.0, 0.0], [0.0, 1.0]]]),
        ("run", {"suite": "flow-monotone", "tolerances": {"slack": True}}),
        ("run", {"suite": "flow-monotone", "tolerances": {"slack": "nan"}}),
        # a negative tolerance is out of range
        ("run", {"suite": "coordinate-identities", "samples": 2, "tolerances": {"det_identity": -1}}),
        ("run", {"suite": "flow-monotone", "samples": 2, "tolerances": {"slack": -1e-3}}),
        # a report that could not be written
        ("run", {"suite": "flow-monotone", "samples": 2, "output_path": "no-such-directory/x.json"}),
    ],
)
def test_malformed_documents_are_usage_errors(tmp_path, capsys, command, doc):
    p = write_json(tmp_path / "doc.json", doc)
    assert cli_entry([command, p]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "fields",
    [
        {"samples": 2.9, "n": 2.5, "seed": 7.5},
        {"seed": 7.5},
        {"seed": 7.0},
        {"seed": True},
        {"n": 2.5},
        {"n": True},
        {"samples": 2.9},
        {"samples": False},
        {"seed": "7"},
    ],
)
def test_config_counts_and_seed_must_be_integers(tmp_path, capsys, fields):
    cfg = write_json(tmp_path / "cfg.json", {"suite": "flow-monotone", "samples": 2, **fields})
    assert cli_entry(["run", cfg]) == 2
    err = capsys.readouterr().err
    assert "must be an integer" in err


def test_output_path_must_be_a_string_before_the_suite_runs(tmp_path, capsys, monkeypatch):
    from futuretube import suites

    def not_run(*args, **kwargs):
        raise AssertionError("the suite ran before its config was checked")

    monkeypatch.setattr(suites, "flow_monotonicity", not_run)
    for path in (7, ["report.json"], {"path": "report.json"}):
        cfg = write_json(tmp_path / "cfg.json", {"suite": "flow-monotone", "output_path": path})
        assert cli_entry(["run", cfg]) == 2
        assert "output_path must be a path string" in capsys.readouterr().err
    cfg = write_json(tmp_path / "cfg.json", {"suite": "flow-monotone", "output_path": ""})
    assert cli_entry(["run", cfg]) == 2
    assert "output_path must not be empty" in capsys.readouterr().err


def test_output_path_in_a_missing_directory_fails_before_the_suite_runs(
    tmp_path, capsys, monkeypatch
):
    from futuretube import suites

    def not_run(*args, **kwargs):
        raise AssertionError("the suite ran before its output directory was checked")

    monkeypatch.setattr(suites.SUITES["flow-monotone"], "runner", not_run)
    missing = tmp_path / "missing" / "x.json"
    doc = {"suite": "flow-monotone", "samples": 2, "output_path": str(missing)}
    cfg = write_json(tmp_path / "cfg.json", doc)
    assert cli_entry(["run", cfg]) == 2
    assert "does not exist" in capsys.readouterr().err
    assert not missing.parent.exists()


def _run(tmp_path, capsys, command, Z):
    p = write_json(tmp_path / "pt.json", serialize.jsonable(Z))
    code = cli_entry([command, p])
    out, err = capsys.readouterr()
    return code, out, err


def test_negative_definite_point_is_a_usage_error(tmp_path, capsys):
    for Z in (-iI[None], np.stack([-iI, iI])):
        for command in ("phi", "moment"):
            code, out, err = _run(tmp_path, capsys, command, Z)
            assert code == 2 and out == ""
            assert "error:" in err and "outside the tube" in err
        code, out, err = _run(tmp_path, capsys, "reduce", Z)
        assert code == 2 and out == "" and "error: orbit_minimize starts from a tube point" in err


def test_tiny_tube_points_are_usage_errors(tmp_path, capsys):
    for x, phi_code in ((1e-161, 2), (1e-170, 2), (1e-100, 0)):
        for command, want in (("phi", phi_code), ("moment", 2), ("reduce", 2)):
            code, out, err = _run(tmp_path, capsys, command, x * iI[None])
            assert code == want, (x, command)
            assert ("error:" in err) == (want == 2)
    assert _run(tmp_path, capsys, "phi", 1e-100 * iI[None])[1] == "phi = 1e+200\n"
    # det Im = 1e-120 evaluates as before
    assert _run(tmp_path, capsys, "phi", 1e-60 * iI[None])[1] == "phi = 1e+120\n"
    assert _run(tmp_path, capsys, "moment", 1e-60 * iI[None])[1].endswith("norm = 0.0\n")
    code, out, _ = _run(tmp_path, capsys, "reduce", 1e-60 * iI[None])
    assert code == 0 and "converged = True" in out


def test_overflowing_tube_point_names_the_overflow(tmp_path, capsys):
    found = np.stack([1e155 * iI + np.array([[0.0, 1e154 + 2e154j], [3e154, 0.0]]), 1e155 * iI])
    assert _run(tmp_path, capsys, "phi", found)[:2] == (0, "phi = 2.0204081632653e-310\n")
    for command in ("moment", "reduce"):
        code, out, err = _run(tmp_path, capsys, command, found)
        assert code == 2 and out == ""
        assert "error: det Im overflows" in err
