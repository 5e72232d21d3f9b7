import json
import math
import os
import random
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from hyperwalk import (
    EvolutionEngine,
    Level,
    basis_state,
    evolve,
    export_graph,
    format_node,
    is_symmetric,
    parse_node,
    spectrum,
    time_average,
)
import hyperwalk
from hyperwalk import formatting
from hyperwalk.cli import _parse_pi_fraction, build_parser, main
from hyperwalk.formatting import format_float
from hyperwalk.measure import node_time_average
from hyperwalk.spectral import ClassTable, basis_start_classes, probability

from helpers import (assert_same_text, is_adjacent, peak_kib, product_state_amplitudes, reference_csv, reference_dumps_json,
                     start_measured)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_spectrum_command(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--L", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "hyperwalk/1"
    assert [e["eigenvalue"] for e in doc["entries"]] == [0, 2, 4]
    assert [e["multiplicity"] for e in doc["entries"]] == [1, 2, 1]


def test_spectrum_csv(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--L", "0", "--format", "csv")
    assert code == 0
    assert out == "eigenvalue,multiplicity,card\n0,1,1\n2,1,0\n"


def test_spectrum_rejects_negative_level(capsys):
    code, _, err = run_cli(capsys, "spectrum", "--L", "-1")
    assert code == 2
    assert "error" in err


def test_evolve_quarter_period_from_vacuum(capsys):
    code, out, _ = run_cli(capsys, "evolve", "--L", "0", "--t", "1.5707963267948966", "--initial", "")
    assert code == 0
    doc = json.loads(out)
    assert doc["initial"] == "{}"
    assert abs(doc["probs"][1] - 1.0) < 1e-12
    assert abs(doc["probs"][0]) < 1e-12


def test_evolve_zero_time_is_one_hot(capsys):
    code, out, _ = run_cli(capsys, "evolve", "--L", "2", "--t", "0", "--initial", "0,2")
    assert code == 0
    doc = json.loads(out)
    probs = doc["probs"]
    assert probs[0b101] == pytest.approx(1.0, abs=1e-12)
    assert sum(probs) == pytest.approx(1.0, abs=1e-12)


def test_evolve_amplitude_pairs(capsys):
    code, out, _ = run_cli(
        capsys, "evolve", "--L", "0", "--t-pi-fraction", "1/4", "--amplitudes"
    )
    assert code == 0
    doc = json.loads(out)
    assert len(doc["amps"]) == 2
    re, im = doc["amps"][0]
    t = math.pi / 4
    assert re == pytest.approx(math.cos(t) ** 2, abs=1e-15)
    assert im == pytest.approx(math.sin(t) * math.cos(t), abs=1e-15)


def test_evolve_pi_fraction_equals_decimal_quarter_period(capsys):
    _, out_frac, _ = run_cli(capsys, "evolve", "--L", "3", "--t-pi-fraction", "1/2")
    _, out_dec, _ = run_cli(capsys, "evolve", "--L", "3", "--t", repr(math.pi / 2))
    assert out_frac == out_dec


def test_evolve_requires_a_time(capsys):
    code, _, _ = run_cli(capsys, "evolve", "--L", "1")
    assert code == 2


def test_evolve_rejects_bad_pi_fraction(capsys):
    code, _, err = run_cli(capsys, "evolve", "--L", "1", "--t-pi-fraction", "1/0")
    assert code == 2
    assert "denominator" in err


def test_evolve_csv_output(capsys):
    code, out, _ = run_cli(capsys, "evolve", "--L", "1", "--t", "0", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "node,probability"
    assert lines[1] == '"{}",1'
    assert len(lines) == 5


def test_time_average_values_and_symmetry_report(capsys):
    code, out, _ = run_cli(capsys, "time-average", "--L", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["probs"][0] == pytest.approx(0.375, abs=1e-12)
    assert doc["probs"][3] == pytest.approx(0.375, abs=1e-12)
    assert doc["symmetric"] is True
    assert doc["symmetry_max_deviation"] <= 1e-12


def test_time_average_is_exact_from_any_node(capsys):
    # 5/16 = 5!!/6!! at the start node and its complement
    for initial, start in (("", 0b000), ("0", 0b001)):
        code, out, _ = run_cli(capsys, "time-average", "--L", "2", "--initial", initial)
        assert code == 0
        doc = json.loads(out)
        assert doc["method"] == "krawtchouk"
        assert doc["probs"][start] == doc["probs"][start ^ 0b111] == 0.3125
        assert doc["symmetry_max_deviation"] == 0


def test_time_average_csv_includes_symmetry_comment(capsys):
    code, out, _ = run_cli(capsys, "time-average", "--L", "1", "--format", "csv")
    assert code == 0
    assert out.splitlines()[-1].startswith("# symmetry_max_deviation,")


def test_pst_complement_target(capsys):
    code, out, _ = run_cli(capsys, "pst", "--L", "3", "--from", "0,2")
    assert code == 0
    doc = json.loads(out)
    assert doc["best_target"] == "{1,3}"
    assert doc["best_fidelity"] == pytest.approx(1.0, abs=1e-12)
    assert doc["is_pst"] is True
    total = sum(f * f for f in doc["fidelities"])
    assert total == pytest.approx(1.0, abs=1e-10)


def test_pst_full_period_returns_home(capsys):
    code, out, _ = run_cli(
        capsys, "pst", "--L", "3", "--from", "", "--t0", "3.14159265358979"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["best_target"] == "{}"
    assert doc["best_fidelity"] == pytest.approx(1.0, abs=1e-12)


def test_pst_csv(capsys):
    code, out, _ = run_cli(capsys, "pst", "--L", "1", "--from", "0", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "node,fidelity"


def test_graph_formats(capsys):
    code, out, _ = run_cli(capsys, "graph", "--L", "0")
    assert code == 0
    assert out == 'graph "hypercube_L0" {\n  "{}" -- "{0}";\n}\n'
    code, out, _ = run_cli(capsys, "graph", "--L", "1", "--format", "json")
    doc = json.loads(out)
    assert doc["schema"] == "hyperwalk/1"
    assert doc["vertices"] == 4
    code, out, _ = run_cli(capsys, "graph", "--L", "2", "--format", "edge-list")
    assert len(out.splitlines()) == 12


_UNRECOGNIZED = "unrecognized arguments: --engine "
_TOL = "argument --tol: tolerance must be finite and >= 0, got "
_FRACTION = "error: expected an integer fraction like '1/2', got {!r}\n"
REFUSED = [
    # removed options and choices
    (["evolve", "--t", "1", "--engine", "product"], _UNRECOGNIZED + "product"),
    (["evolve", "--t", "1", "--engine", "dense"], _UNRECOGNIZED + "dense"),
    (["time-average", "--engine", "dense"], _UNRECOGNIZED + "dense"),
    (["pst", "--engine", "product"], _UNRECOGNIZED + "product"),
    (["pst", "--engine", "spectral"], _UNRECOGNIZED + "spectral"),
    (["time-average", "--engine", "spectral"], _UNRECOGNIZED + "spectral"),
    (["evolve", "--t", "0.4", "--engine", "spectral", "--format", "json", "--amplitudes"], _UNRECOGNIZED + "spectral"),
    (["evolve", "--t", "0.4", "--engine", "spectral", "--format", "csv", "--amplitudes"], _UNRECOGNIZED + "spectral"),
    (["time-average", "--method", "krawtchouk"], "unrecognized arguments: --method krawtchouk"),
    (["time-average", "--method", "quadrature"], "unrecognized arguments: --method quadrature"),
    (["time-average", "--tol", "1e-9"], "unrecognized arguments: --tol 1e-9"),
    # values the walk cannot serve
    *[(["pst", f"--tol={tol}"], _TOL + repr(tol)) for tol in ("nan", "-1", "inf")],
    *[([command, f"{flag}={t}"], f"error: time must be finite, got {t}\n")
      for command, flag, t in (("evolve", "--t", "inf"), ("evolve", "--t", "nan"), ("evolve", "--t", "-inf"), ("pst", "--t0", "nan"), ("pst", "--t0", "inf"))],
    *[([command, flag, p], _FRACTION.format(p)) for command, flag in (("evolve", "--t-pi-fraction"), ("pst", "--t0-pi-fraction")) for p in ("1/", "3/", "1_0/3", "- 1/2")],
    *[([command, flag, node], f"error: malformed element {node!r} in node string {node!r}\n")
      for command, flag, node in (("time-average", "--initial", "1_0"), ("time-average", "--initial", "+1"), ("pst", "--from", "٣"))],
    # numbers written other than in ASCII digits, or with a sign or "_" that int() and float() take
    *[(["spectrum", "--L", value], f"argument --L: invalid int value: {value!r}") for value in ("\u0663", "1_0", "+2", "-0")],
    *[(["evolve", "--t", value], f"argument --t: invalid float value: {value!r}") for value in ("\u0660.\u0667", "1_0.5")],
    (["pst", "--tol", "\u0661e-3"], "argument --tol: invalid tolerance value: '\u0661e-3'"),
    # "--opt=--": the argparse of Python 3.10 and 3.11 reads an empty list
    # past the option's type and choices, which main refuses; 3.12.10's hands
    # '--' to the type, the choices or the handler, which name it
    *[(argv, "'--'") for argv in (["pst", "--tol=--"], ["evolve", "--t=--"],
      ["evolve", "--t", "1", "--initial=--"], ["pst", "--t0-pi-fraction=--"], ["graph", "--format=--"])],
    # a denominator beyond the float range
    *[([command, flag, p], f"error: pi fraction {p!r:.60} has a denominator beyond the float range\n")
      for command, flag in (("evolve", "--t-pi-fraction"), ("pst", "--t0-pi-fraction")) for p in ("1/1" + "0" * 400, "-7/3" + "0" * 309)],
]


@pytest.mark.parametrize("argv, message", REFUSED, ids=[" ".join(argv) for argv, _ in REFUSED])
def test_refused_arguments_exit_2(tmp_path, capsys, argv, message):
    target = tmp_path / "never.out"
    code, out, err = run_cli(capsys, argv[0], "--L", "3", *argv[1:], "--out", str(target))
    assert code == 2
    assert out == ""
    assert message in err
    assert not target.exists()


@pytest.mark.parametrize("t", ["1e+308", "-1e+308", "1.7976931348623157e+308", "-1.7976931348623157e+308"])
def test_times_up_to_the_largest_float_are_served(capsys, t):
    # the probabilities and fidelities of the product state at the exact t
    want = product_state_amplitudes(3, 0b0101, float(t))
    code, out, err = run_cli(capsys, "evolve", "--L", "3", f"--t={t}", "--initial", "0,2", "--amplitudes")
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert np.abs(np.array(doc["probs"]) - np.abs(want) ** 2).max() <= 1e-15
    assert np.abs(np.array(doc["amps"]) @ [1, 1j] - want).max() <= 1e-15
    code, out, err = run_cli(capsys, "pst", "--L", "3", "--from", "0,2", f"--t0={t}")
    assert (code, err) == (0, "")
    assert np.abs(np.array(json.loads(out)["fidelities"]) - np.abs(want)).max() <= 1e-15


@pytest.mark.parametrize("command", ["spectrum", "evolve", "time-average", "pst", "graph"])
def test_help_names_the_shared_options(capsys, command):
    code, out, _ = run_cli(capsys, command, "--help")
    assert code == 0
    assert out.startswith(f"usage: hyperwalk {command}")
    for option in ("--L", "--out", "--format"):
        assert option in out, option


def test_unknown_flag_exits_2(capsys):
    code, _, _ = run_cli(capsys, "spectrum", "--L", "1", "--frequency", "9")
    assert code == 2


def test_byte_identical_reruns(capsys):
    _, first, _ = run_cli(capsys, "evolve", "--L", "4", "--t", "0.731")
    _, second, _ = run_cli(capsys, "evolve", "--L", "4", "--t", "0.731")
    assert_same_text(first, second)


def test_out_file(tmp_path, capsys):
    target = tmp_path / "spectrum.json"
    code, out, _ = run_cli(capsys, "spectrum", "--L", "1", "--out", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["L"] == 1


@pytest.mark.parametrize("target", ["missing/spectrum.json", "."])
def test_unopenable_out_exits_2(tmp_path, capsys, target):
    path = tmp_path / target
    code, out, err = run_cli(capsys, "spectrum", "--L", "1", "--out", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.endswith(f"{str(path)!r}\n") and "Traceback" not in err
    assert not (tmp_path / "missing").exists()


def test_an_empty_out_exits_2(capsys):
    # an empty path names no file: it is refused, not read as stdout
    code, out, err = run_cli(capsys, "spectrum", "--L", "1", "--out", "")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_a_closed_stdout_exits_2():
    # started with fd 1 closed, the interpreter sets sys.stdout to None
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(Path(hyperwalk.__file__).parents[1]), env.get("PYTHONPATH", "")])
    argv = ["sh", "-c", 'exec "$@" >&-', "sh", sys.executable, "-m", "hyperwalk.cli", "spectrum", "--L", "1"]
    proc = subprocess.run(argv, stderr=subprocess.PIPE, env=env, text=True)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == "error: stdout is closed\n"


# a hyperwalk-worded refusal echoes at most a 60-character prefix of each
# input, HYPERWALK_L_MAX included (an empty cap is the default, 24)
LONG_REFUSED = {
    "node": (["pst", "--L", "1", "--from", "0" * 5000 + "1/2"], "", "error: malformed element '000"),
    "element": (["evolve", "--L", "1", "--t", "1", "--initial", "0" * 5000 + "9"], "", "error: element 9 out of range [0, 1]"),
    "long element": (["evolve", "--L", "1", "--t", "1", "--initial", "0" * 700 + "9" + "0" * 4299], "", "error: element 9000"),
    "fraction": (["evolve", "--L", "1", "--t-pi-fraction", "x" + "0" * 5000], "", "error: expected an integer fraction like"),
    "zero denominator": (["evolve", "--L", "1", "--t-pi-fraction", "1/" + "0" * 5000], "", "error: zero denominator in pi"),
    "float range": (["pst", "--L", "1", "--t0-pi-fraction", "0" * 4596 + "1/1" + "0" * 400], "", "error: pi fraction '000"),
    "tol": (["pst", "--L", "1", "--tol=-" + "0" * 5000 + "1"], "", "error: argument --tol: tolerance must be finite"),
    "L": (["spectrum", "--L", "0" * 700 + "9" + "0" * 4299], "", "error: L must be in [0, 24], got 9000"),
    "cap": (["spectrum", "--L", "1"], "x" * 5000, "error: HYPERWALK_L_MAX must be a nonnegative integer, got 'xxx"),
}


@pytest.mark.parametrize("argv, cap, message", LONG_REFUSED.values(), ids=list(LONG_REFUSED))
def test_refusals_echo_a_bounded_prefix_of_long_inputs(capsys, monkeypatch, argv, cap, message):
    monkeypatch.setenv("HYPERWALK_L_MAX", cap)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert message in err and len(err.encode()) <= 512, len(err)


def test_env_cap_override(capsys, monkeypatch):
    monkeypatch.setenv("HYPERWALK_L_MAX", "3")
    code, _, err = run_cli(capsys, "spectrum", "--L", "4")
    assert code == 2
    assert "[0, 3]" in err


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "hyperwalk.cli", "spectrum", "--L", "0"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["entries"][0]["eigenvalue"] == 0


@pytest.mark.parametrize(
    "args",
    [["evolve", "--L", "16", "--t", "0.7"], ["time-average", "--L", "16", "--format", "csv"]],
    ids=["evolve", "time-average-csv"],
)
def test_a_reader_that_closes_the_pipe_ends_the_run_quietly(args):
    # the output is megabytes, far more than a pipe buffers, so the writes
    # after the reader has gone fail with a broken pipe
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(Path(hyperwalk.__file__).parents[1]), env.get("PYTHONPATH", "")])
    argv = [sys.executable, "-m", "hyperwalk.cli", *args]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        assert len(proc.stdout.read(10)) == 10
        proc.stdout.close()
        err = proc.stderr.read()
    assert (proc.wait(), err) == (1, b"")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize(
    "args, to_stdout",
    [(["evolve", "--L", "3", "--t", "1", "--out", "/dev/full"], False), (["spectrum", "--L", "1"], True)],
    ids=["out", "stdout"],
)
def test_a_failed_write_is_reported_without_a_traceback(args, to_stdout):
    # /dev/full opens, and every write to it fails with ENOSPC
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(Path(hyperwalk.__file__).parents[1]), env.get("PYTHONPATH", "")])
    argv = [sys.executable, "-m", "hyperwalk.cli", *args]
    with open("/dev/full", "w") as full:
        proc = subprocess.run(argv, stdout=full if to_stdout else subprocess.PIPE, stderr=subprocess.PIPE, env=env, text=True)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr
    assert "No space left on device" in proc.stderr


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize(
    "args, redirect, code",
    [
        (["evolve", "--L", "1", "--t", "inf"], "", 2),
        (["spectrum", "--L", "1", "--out", "/nonexistent/x"], "", 2),
        (["spectrum", "--L", "1"], " > /dev/full", 1),
    ],
    ids=["refused", "unopenable-out", "failed-write"],
)
def test_a_closed_stderr_keeps_the_exit_code(args, redirect, code):
    # started with fd 2 closed, sys.stderr is a stream on no file: the
    # error: line is dropped and the code stays, not 1 for an uncaught
    # error or 120 for a failed flush at exit
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(Path(hyperwalk.__file__).parents[1]), env.get("PYTHONPATH", "")])
    argv = ["sh", "-c", f'exec "$@" 2>&-{redirect}', "sh", sys.executable, "-m", "hyperwalk.cli", *args]
    proc = subprocess.run(argv, stdout=subprocess.PIPE, env=env)
    assert (proc.returncode, proc.stdout) == (code, b"")


# --- byte identity with the per-element reference writers -----------------


def _document(doc: dict) -> str:
    return reference_dumps_json({"schema": "hyperwalk/1", **doc}) + "\n"


def _expected_evolve(L, t, node, amplitudes, fmt):
    lv = Level(L)
    amps = evolve(EvolutionEngine(lv), basis_state(lv, node), t).amps
    probs = amps.real * amps.real + amps.imag * amps.imag
    if fmt == "csv":
        if amplitudes:
            return reference_csv("node,probability,amp_re,amp_im", [probs, amps.real, amps.imag])
        return reference_csv("node,probability", [probs])
    doc = {"L": L, "engine": "spectral", "initial": format_node(node), "t": t}
    doc["probs"] = [float(p) for p in probs]
    if amplitudes:
        doc["amps"] = [[float(a.real), float(a.imag)] for a in amps]
    return _document(doc)


def _expected_time_average(L, node, fmt):
    dist = time_average(basis_state(Level(L), node), method="krawtchouk")
    report = is_symmetric(dist)
    if fmt == "csv":
        deviation = reference_dumps_json(report.max_deviation)
        return reference_csv("node,probability", [dist.probs]) + f"# symmetry_max_deviation,{deviation}\n"
    doc = {"L": L, "method": "krawtchouk", "initial": format_node(node)}
    doc["probs"] = [float(p) for p in dist.probs]
    doc["symmetry_max_deviation"] = report.max_deviation
    doc["symmetric"] = report.symmetric
    return _document(doc)


def _expected_pst(L, source, t0, fmt):
    lv = Level(L)
    amps = evolve(EvolutionEngine(lv), basis_state(lv, source), t0).amps
    fidelities = np.hypot(amps.real, amps.imag)
    if fmt == "csv":
        return reference_csv("node,fidelity", [fidelities])
    best = int(np.argmax(fidelities))
    doc = {"L": L, "from": format_node(source), "t0": t0, "engine": "spectral"}
    doc["best_target"] = format_node(best)
    doc["best_fidelity"] = float(fidelities[best])
    doc["is_pst"] = float(fidelities[best]) >= 1.0 - 1e-10
    doc["fidelities"] = [float(f) for f in fidelities]
    return _document(doc)


BYTE_CASES = []
for L, node in ((0, 1), (5, 0b100101), (12, 0b1010)):
    for fmt in ("json", "csv"):
        for t in (0.731, -2.5, 123456789.25):
            for amplitudes in (False, True):
                argv = ["evolve", "--L", str(L), "--t", repr(t), "--initial", format_node(node)]
                argv += ["--format", fmt] + ["--amplitudes"] * amplitudes
                BYTE_CASES.append((argv, (_expected_evolve, L, t, node, amplitudes, fmt)))
        for start in (0, node):
            argv = ["time-average", "--L", str(L), "--initial", format_node(start), "--format", fmt]
            BYTE_CASES.append((argv, (_expected_time_average, L, start, fmt)))
        for t0 in (math.pi / 2, 0.9):
            argv = ["pst", "--L", str(L), "--from", format_node(node), "--t0", repr(t0), "--format", fmt]
            BYTE_CASES.append((argv, (_expected_pst, L, node, t0, fmt)))
# lo = 0 at L = 0, and the largest level the per-element writers check in a
# few seconds a case; the empty, the full and a mixed node
for L, nodes in ((0, (0, 1)), (17, (0, (1 << 18) - 1, 0b101100111000101011))):
    for node in nodes:
        for fmt in ("json", "csv") if L == 0 else ("json",):
            argv = ["evolve", "--L", str(L), "--t", "0.731", "--initial", format_node(node), "--format", fmt]
            argv += ["--amplitudes"] * (L == 0)
            BYTE_CASES.append((argv, (_expected_evolve, L, 0.731, node, L == 0, fmt)))
            argv = ["pst", "--L", str(L), "--from", format_node(node), "--t0", "0.9", "--format", fmt]
            BYTE_CASES.append((argv, (_expected_pst, L, node, 0.9, fmt)))
        for fmt in ("json", "csv"):
            argv = ["time-average", "--L", str(L), "--initial", format_node(node), "--format", fmt]
            BYTE_CASES.append((argv, (_expected_time_average, L, node, fmt)))
for fmt in ("json", "csv"):
    # multiples of pi, where many probabilities round to zero or tie, and a large t
    for time in (["--t-pi-fraction", "1/2"], ["--t-pi-fraction", "1/4"], ["--t-pi-fraction", "1000000001/2"], ["--t", "1e15"]):
        t = _parse_pi_fraction(time[1]) if time[0] == "--t-pi-fraction" else float(time[1])
        for amplitudes in (False, True):
            argv = ["evolve", "--L", "5", *time, "--initial", "{0,2,5}", "--format", fmt] + ["--amplitudes"] * amplitudes
            BYTE_CASES.append((argv, (_expected_evolve, 5, t, 0b100101, amplitudes, fmt)))
    # best_target breaks ties: one maximum at t0 = 0; at pi/4 all 2**(L+1)
    # fidelities are equal in exact arithmetic
    for L in (3, 8):
        for t0 in (0.0, math.pi / 4):
            argv = ["pst", "--L", str(L), "--from", "{1,3}", "--t0", repr(t0), "--format", fmt]
            BYTE_CASES.append((argv, (_expected_pst, L, 0b1010, t0, fmt)))


@pytest.mark.parametrize("argv, expected", BYTE_CASES, ids=[" ".join(c[0]) for c in BYTE_CASES])
def test_output_matches_the_reference_writer(capsys, argv, expected):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    builder, *params = expected
    assert_same_text(out, builder(*params))


@pytest.mark.parametrize("L", [0, 3, 11])
def test_spectrum_and_graph_json_match_the_reference_writer(capsys, L):
    _, out, _ = run_cli(capsys, "spectrum", "--L", str(L))
    assert_same_text(out, _document(spectrum(Level(L)).to_json_dict()))
    _, out, _ = run_cli(capsys, "graph", "--L", str(L), "--format", "json")
    dim = Level(L).dim
    pairs = [[a, b] for a in range(dim) for b in range(a + 1, dim) if is_adjacent(a, b)]
    assert_same_text(out, _document({"L": L, "vertices": dim, "edges": pairs}))


@pytest.mark.parametrize("L", [0, 3, 5])
def test_graph_json_is_the_library_export(capsys, L):
    _, out, _ = run_cli(capsys, "graph", "--L", str(L), "--format", "json")
    assert out == export_graph(Level(L), "json")


@pytest.mark.parametrize("fmt", ["json", "dot", "edge-list"])
def test_graph_export_above_the_cap_is_refused(tmp_path, capsys, monkeypatch, fmt):
    def refuse(*args):
        raise AssertionError("edges built despite the export cap")

    monkeypatch.setattr(formatting, "edges", refuse)
    target = tmp_path / "never.out"
    code, out, err = run_cli(capsys, "graph", "--L", "12", "--format", fmt, "--out", str(target))
    assert code == 2
    assert out == ""
    assert err == "error: graph with 8192 vertices too large for export (cap 4096)\n"
    assert not target.exists()


def test_out_file_matches_stdout(tmp_path, capsys):
    argv = ["evolve", "--L", "12", "--t", "0.3", "--amplitudes"]
    _, out, _ = run_cli(capsys, *argv)
    target = tmp_path / "evolve.json"
    assert run_cli(capsys, *argv, "--out", str(target))[0] == 0
    assert_same_text(target.read_text(encoding="utf-8"), out)


def test_rejected_level_creates_no_out_file(tmp_path, capsys):
    target = tmp_path / "never.json"
    code, _, err = run_cli(capsys, "evolve", "--L", "30", "--t", "1", "--out", str(target))
    assert code == 2
    assert "[0, 24]" in err
    assert not target.exists()


PEAK_CASES = [
    ["evolve", "--t", "0.7", "--initial", "0,2", "--format", fmt, *amplitudes]
    for fmt in ("json", "csv")
    for amplitudes in ([], ["--amplitudes"])
] + [
    [cmd, *start, "--format", fmt]
    for cmd, start in (
        ("time-average", ["--initial", "0,2"]),
        ("time-average", []),
        ("pst", ["--from", "0,2"]),
    )
    for fmt in ("json", "csv")
]


def _traced_peak(argv: list[str], L: int, out) -> int:
    tracemalloc.start()
    try:
        assert main([argv[0], "--L", str(L), *argv[1:], "--out", str(out)]) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("argv", PEAK_CASES, ids=[" ".join(a) for a in PEAK_CASES])
def test_peak_does_not_grow_with_the_level(tmp_path, argv):
    # from L = 17 to L = 20 one complex node array grows by 28 MiB; the
    # writers hold one CSV chunk of at most CHUNK_BYTES, or one JSON grid row
    # per distance class, and the grid rows grow as the square root of the
    # nodes.  The worst case at L = 20 read 0.82 MB (JSON evolve --amplitudes),
    # the CSV cases 0.49-0.71 MB: 1 MiB leaves over a fifth above the worst
    small = _traced_peak(argv, 17, tmp_path / "out")
    large = _traced_peak(argv, 20, tmp_path / "out")
    assert large - small <= 4 << 20, (small, large)
    assert large <= 1 << 20, large


def test_node_starts_gather_nothing_node_sized(tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("node-sized array built on a CLI path")

    # hyperwalk._numpy keeps numpy's names once read, so a cached unique is
    # replaced too; patched first, so that undo restores numpy's own
    monkeypatch.setattr("hyperwalk._numpy.unique", refuse, raising=False)
    monkeypatch.setattr(np, "unique", refuse)
    monkeypatch.setattr(ClassTable, "materialize", refuse)
    for argv in (
        ["evolve", "--t", "0.7", "--initial", "0,5"],
        ["evolve", "--t", "0.7", "--initial", "0,5", "--amplitudes"],
        ["pst", "--from", "1,2"],
        ["time-average", "--initial", "3"],
    ):
        for fmt in ("json", "csv"):
            code, _, err = run_cli(capsys, argv[0], "--L", "12", *argv[1:], "--format", fmt, "--out", str(tmp_path / "out"))
            assert (code, err) == (0, ""), argv


def test_evolve_at_the_level_cap_streams_in_little_memory():
    # L = 24: 2**25 probabilities, about 770 MB of JSON, read as it streams;
    # the bound is on the CLI process's own peak
    L, t, node = 24, 0.7, 0b100001
    args = ["evolve", "--L", str(L), "--t", repr(t), "--initial", "0,5"]
    head, tail, count = b"", b"", 0
    with start_measured("from hyperwalk.cli import main; raise SystemExit(main())", *args,
                        stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        while chunk := proc.stdout.read(1 << 20):
            if len(head) < 1 << 17:
                head += chunk[: (1 << 17) - len(head)]
            tail = (tail + chunk)[-(1 << 17) :]
            count += len(chunk)
        err = proc.stderr.read()
    assert proc.wait() == 0, err
    assert peak_kib(err) <= 256 << 10, err

    # node g holds |a0**(m-d) * a1**d|**2, rounded as re² + im², at distance
    # d = popcount(g ^ node)
    table = np.array([a.real * a.real + a.imag * a.imag for a in basis_start_classes(Level(L), node, t).table])
    prefix = f'{{"schema":"hyperwalk/1","L":{L},"engine":"spectral","initial":"{{0,5}}","t":{format_float(t)},"probs":['
    cells = sum(math.comb(L + 1, d) * (len(format_float(p)) + 1) for d, p in enumerate(table))
    assert count == len(prefix) + cells - 1 + len("]}\n")
    assert head.startswith(prefix.encode()) and tail.endswith(b"]}\n")
    first = [float(x) for x in head[len(prefix) :].split(b",")[:4096]]
    last = [float(x) for x in tail[: -len("]}\n")].split(b",")[-4096:]]
    ends = np.r_[0:4096, (1 << (L + 1)) - 4096 : 1 << (L + 1)].astype(np.uint64)
    assert np.array_equal(np.array(first + last), table[np.bitwise_count(ends ^ np.uint64(node))])


@pytest.mark.parametrize("raw", ["abc", "-3", "1_0", "+3", "-0", "\u0663"])
def test_malformed_env_cap_exits_2(capsys, monkeypatch, raw):
    monkeypatch.setenv("HYPERWALK_L_MAX", raw)
    code, _, err = run_cli(capsys, "spectrum", "--L", "1")
    assert code == 2
    assert "HYPERWALK_L_MAX must be a nonnegative integer" in err


def test_pi_fraction_is_reduced_exactly_over_periods(capsys):
    _, far, _ = run_cli(capsys, "evolve", "--L", "3", "--t-pi-fraction", "1000000001/2")
    _, near, _ = run_cli(capsys, "evolve", "--L", "3", "--t-pi-fraction", "1/2")
    assert far == near
    assert json.loads(far)["t"] == math.pi / 2
    _, negative, _ = run_cli(capsys, "evolve", "--L", "3", "--t-pi-fraction=-3/-2")
    assert negative == near


@pytest.mark.parametrize("argv", [["evolve", "--L", "1", "--t-pi-fraction"], ["pst", "--L", "1", "--from", "1", "--t0-pi-fraction"]])
def test_a_pi_fraction_whose_pi_times_p_overflows_is_served(capsys, argv):
    # p mod q = 9e307 is a float but pi times it is not, and the time is 0.9 pi
    huge = run_cli(capsys, *argv, "9" + "0" * 307 + "/1" + "0" * 308)
    assert huge == run_cli(capsys, *argv, "9/10")
    assert huge[0] == 0, huge[2]


# int() reads at most sys.get_int_max_str_digits() digits (4300 by default; 0 is no limit)
_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.parametrize(
    "long, short",
    [
        (["--t", "0.7", "--initial", "0" * 5000 + "1"], ["--t", "0.7", "--initial", "1"]),
        (["--L", "0" * 5000 + "1", "--t", "0.7"], ["--L", "1", "--t", "0.7"]),
        (["--t-pi-fraction", "0" * 5000 + "1/2"], ["--t-pi-fraction", "1/2"]),
        (["--t-pi-fraction", "-" + "0" * 5000 + "3/" + "0" * 5000 + "4"], ["--t-pi-fraction", "-3/4"]),
    ],
    ids=["initial", "L", "fraction", "signed fraction"],
)
def test_leading_zeros_do_not_count_against_the_digit_limit(capsys, long, short):
    served = run_cli(capsys, "evolve", "--L", "1", *long, "--amplitudes")
    assert served == run_cli(capsys, "evolve", "--L", "1", *short, "--amplitudes")
    assert served[0] == 0, served[2]


@pytest.mark.skipif(not _DIGIT_LIMIT, reason="int() reads any number of digits here")
@pytest.mark.parametrize(
    "argv",
    [
        ["--t-pi-fraction", "1" + "0" * _DIGIT_LIMIT + "/3"],
        ["--t-pi-fraction", "1/3" + "0" * _DIGIT_LIMIT],
        ["--t", "0.7", "--initial", "0" * 50 + "1" + "0" * _DIGIT_LIMIT],
        ["--L", "1" + "0" * _DIGIT_LIMIT, "--t", "0.7"],
    ],
    ids=["numerator", "denominator", "initial", "L"],
)
def test_digits_beyond_the_limit_are_refused_by_their_count(capsys, argv):
    code, out, err = run_cli(capsys, "evolve", "--L", "1", *argv)
    assert (code, out) == (2, "")
    assert err == f"error: an integer of {_DIGIT_LIMIT + 1} digits is beyond int()'s digit limit\n"


@pytest.mark.parametrize(
    "command, option, value",
    [
        ("evolve", "--t", "-1e5"),
        ("evolve", "--t", "-2.5"),
        ("evolve", "--t-pi-fraction", "-1/2"),
        ("evolve", "--t-pi-fraction", "-3/-2"),
        ("pst", "--t0", "-1e-3"),
        ("pst", "--t0", "-.5"),
        ("pst", "--t0-pi-fraction", "-1/4"),
    ],
)
def test_negative_times_parse_as_separate_arguments(capsys, command, option, value):
    separate = run_cli(capsys, command, "--L", "3", option, value, "--format", "csv")
    joined = run_cli(capsys, command, "--L", "3", f"{option}={value}", "--format", "csv")
    assert separate[0] == 0, separate[2]
    assert separate == joined


def test_pst_holds_at_a_large_pi_fraction(capsys):
    code, out, _ = run_cli(capsys, "pst", "--L", "4", "--from", "1,3", "--t0-pi-fraction", "1000000001/2")
    assert code == 0
    doc = json.loads(out)
    assert doc["is_pst"] is True
    assert doc["best_target"] == "{0,2,4}"
    assert abs(doc["best_fidelity"] - 1.0) < 1e-12


HOSTILE = ["", " ", "\n", "nan", "inf", "-inf", "1e400", "1e308", "9" * 5000, "1/1" + "0" * 400, "3/2/1", "1/0",
           "{", "}", "{{1}}", ",", "1,1", "\0", "\u0663", "\u00e9", "0x10", "1_0", "+1", "-0", "-", "--", "--t", "json",
           "0" * 5000 + "1", "0" * 5000 + "1/2", "1" + "0" * 4400, "1/3" + "0" * 4400]
# the hostile atoms some option takes: whitespace is the empty node, a float
# may carry a sign and 1e308 is a finite --tol; leading zeros are dropped, so
# 0...01 is 1 and 0...01/2 a time; without Python's limit on digits a
# numerator of 5000 digits or of 4401 is a whole number of periods
TAKEN = {"", " ", "\n", "1e308", "9" * 5000, "+1", "-0", "json", "0" * 5000 + "1", "0" * 5000 + "1/2", "1" + "0" * 4400}
LEVELS = ["0", "1", "2", "3", "4"]
TIMES, FRACTIONS, NODES = ["0", "0.7", "-2.5", "1e-3"], ["1/2", "-3/-2", "3"], ["0", "1,3", "{0,2}", "{}", "\u2205", "5"]
OPTIONS = {
    "spectrum": {"--format": ["json", "csv"]},
    "evolve": {"--t": TIMES, "--t-pi-fraction": FRACTIONS, "--initial": NODES, "--amplitudes": None, "--format": ["json", "csv"]},
    "time-average": {"--initial": NODES, "--format": ["json", "csv"]},
    "pst": {"--from": NODES, "--t0": TIMES, "--t0-pi-fraction": FRACTIONS, "--tol": ["0", "1e-3"], "--format": ["json", "csv"]},
    "graph": {"--format": ["dot", "json", "edge-list"]},
}


# the printed probabilities of a served run sum to 1 within this, summed
# exactly: the worst of the 147 such runs is 4.44e-16 (evolve --L 3 --t -2.5),
# and the bound leaves a margin of 2.25
SUM_TOL = 1e-15
# a refusal's stderr is at most this many bytes plus twice its longest input,
# which argparse's usage message may echo (an invalid value or choice);
# the worst measured is 249 bytes above twice the longest, an argparse usage message
STDERR_BASE = 512


def _library_columns(argv, L):
    """The columns a served evolve, time-average or pst run prints, a cell per
    node: format_float of the library's class-table entry at its distance."""
    args, level = build_parser().parse_args(argv), Level(L)
    if args.command == "time-average":
        table = node_time_average(level, parse_node(args.initial, level))
        columns = {"probability": table.table}
    elif args.command == "evolve":
        t = args.t if args.t_pi_fraction is None else _parse_pi_fraction(args.t_pi_fraction)
        table = basis_start_classes(level, parse_node(args.initial, level), t)
        columns = {"probability": [probability(a) for a in table.table]}
        if args.amplitudes:
            columns.update(amp_re=[a.real for a in table.table], amp_im=[a.imag for a in table.table])
    else:
        t0 = args.t0 if args.t0_pi_fraction is None else _parse_pi_fraction(args.t0_pi_fraction)
        table = basis_start_classes(level, parse_node(args.source, level), t0)
        columns = {"fidelity": [abs(a) for a in table.table]}
    distance = [(g ^ table.sigma).bit_count() for g in range(level.dim)]
    return {name: [format_float(entries[d]) for d in distance] for name, entries in columns.items()}


def _printed_columns(out, fmt):
    """The per-node columns of a CSV or JSON document, each cell as printed."""
    if fmt == "csv":
        header, *rows = [line for line in out.splitlines() if not line.startswith("#")]
        cells = zip(*[row.rpartition('",')[2].split(",") for row in rows])
        return dict(zip(header.split(",")[1:], map(list, cells)))
    doc = json.loads(out, parse_float=str, parse_int=str)
    columns = {"probability": doc.get("probs"), "fidelity": doc.get("fidelities")}
    if "amps" in doc:
        columns.update(amp_re=[re for re, _ in doc["amps"]], amp_im=[im for _, im in doc["amps"]])
    return {name: cells for name, cells in columns.items() if cells is not None}


def test_fuzzed_arguments_exit_0_or_2(capsys, monkeypatch):
    # seeded argvs and HYPERWALK_L_MAX values, each atom hostile one time in
    # eight; an accepted L is at most 4, and an accepted run took no hostile
    # atom outside TAKEN.  A served table prints the library's class table
    # cell by cell, and its probabilities sum to 1.  A refusal past the parser
    # that L does not decide reruns at L = 24 under tracemalloc: it is refused
    # before anything node-sized is built
    rng, hostile, reruns = random.Random(8), [], []

    def atom(valid):
        if rng.random() < 1 / 8:
            hostile.append(rng.choice(HOSTILE))
            return hostile[-1]
        return rng.choice(valid)

    for _ in range(1000):
        cap = atom(["", "24", "3"]).replace("\0", "")  # an environment value holds no NUL
        monkeypatch.setenv("HYPERWALK_L_MAX", cap)
        command, hostile[:] = rng.choice(list(OPTIONS)), []
        argv = [command, "--L", atom(LEVELS)]
        for option in rng.sample(list(OPTIONS[command]), rng.randint(0, len(OPTIONS[command]))):
            if OPTIONS[command][option] is None:
                argv.append(option)
            else:
                value = atom(OPTIONS[command][option])
                argv += rng.choice([[option, value], [f"{option}={value}"]])
        code, out, err = run_cli(capsys, *argv)
        assert code in (0, 2) and (code == 0) == (err == ""), (argv, cap, err)
        if code == 2:
            usage = err.startswith("usage: hyperwalk") and ": error: " in err
            assert out == "" and (usage or err.startswith("error: ") and err.count("\n") == 1), (argv, cap, err)
            longest = max(len(text.encode()) for text in [*argv, cap])
            assert len(err.encode()) <= STDERR_BASE + 2 * longest, (argv, cap, len(err))
            if not usage and argv[2] in LEVELS and not re.search("out of range|L must be in", err):
                reruns.append((argv[:2] + ["24"] + argv[3:], "" if cap == "3" else cap))
            continue
        assert cap in ("", "24", "3", "0" * 5000 + "1") and set(hostile) <= TAKEN, (argv, cap)
        L = int(argv[2].lstrip("0") or "0")
        formats = [a.partition("=")[2] or argv[i + 1] for i, a in enumerate(argv) if a.startswith("--format")]
        fmt = (formats or OPTIONS[command]["--format"][:1])[-1]  # the default first
        if fmt == "csv":
            rows = [line for line in out.splitlines()[1:] if not line.startswith("#")]
            assert len(rows) == (L + 2 if command == "spectrum" else 2 << L), argv
        elif fmt == "json":
            assert json.loads(out)["L"] == L, argv
        if command in ("evolve", "time-average", "pst") and L <= 10:
            printed = _printed_columns(out, fmt)
            assert printed == _library_columns(argv, L), argv
            if "probability" in printed:
                total = math.fsum(map(float, printed["probability"]))
                assert abs(total - 1.0) <= SUM_TOL, (argv, total)
    tracemalloc.start()
    try:
        for argv, cap in reruns:
            monkeypatch.setenv("HYPERWALK_L_MAX", cap)
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            assert run_cli(capsys, *argv)[0] == 2, (argv, cap)
            assert tracemalloc.get_traced_memory()[1] - before <= 1 << 20, (argv, cap)
    finally:
        tracemalloc.stop()
