import json
import re
import shlex
import struct
from pathlib import Path

import numpy as np
import pytest

from avfield import __version__
from avfield import cli
from avfield.cli import (
    EXIT_CONFIG,
    EXIT_INVARIANT,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_UNCONVERGED,
    main,
)
from avfield import solver, stateio
from avfield.errors import AvfieldError, FormatError, NumericalFailureError
from avfield.functional import EnergyBreakdown, FunctionalParams
from avfield.grid import GridSpec, WaveFunction, gaussian_state
from avfield.kernels import TrapPotential
from avfield.solver import SolverConfig, SolveResult
from avfield.stateio import load_state, save_state


@pytest.fixture
def spec():
    return GridSpec(n=32, half_width=4.0)


def test_state_round_trip_bit_exact(tmp_path, spec):
    rng = np.random.default_rng(0)
    vals = rng.normal(size=(32, 32)) + 1j * rng.normal(size=(32, 32))
    u = WaveFunction(spec, vals)
    path = tmp_path / "u.state"
    save_state(path, u, beta=1.25, R=0.1)
    loaded, header = load_state(path)
    assert loaded.values.tobytes() == u.values.tobytes()
    assert header.beta == 1.25 and header.R == 0.1
    assert header.n == 32 and header.half_width == 4.0


def test_saved_file_is_header_then_little_endian_payload(tmp_path, spec):
    rng = np.random.default_rng(3)
    vals = rng.normal(size=(32, 32)) + 1j * rng.normal(size=(32, 32))
    for u in (WaveFunction(spec, vals), WaveFunction(spec, np.asfortranarray(vals))):
        path = tmp_path / "u.state"
        save_state(path, u, beta=0.75, R=0.2)
        header = struct.pack("<4sIQddd", b"AFGS", 1, 32, 4.0, 0.75, 0.2)
        assert path.read_bytes() == header + u.values.astype("<c16").tobytes()


def test_state_header_only(tmp_path, spec):
    path = tmp_path / "u.state"
    save_state(path, gaussian_state(spec), beta=0.5, R=0.0)
    h = load_state(path)[1]
    assert h.n == 32 and h.beta == 0.5


def test_corrupted_magic_rejected(tmp_path, spec):
    path = tmp_path / "u.state"
    save_state(path, gaussian_state(spec), beta=0.0, R=0.0)
    raw = bytearray(path.read_bytes())
    raw[:4] = b"NOPE"
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError):
        load_state(path)


def test_truncated_payload_rejected(tmp_path, spec):
    path = tmp_path / "u.state"
    save_state(path, gaussian_state(spec), beta=0.0, R=0.0)
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(FormatError):
        load_state(path)


def test_grid_mismatch_rejected_not_resampled(tmp_path, spec):
    path = tmp_path / "u.state"
    save_state(path, gaussian_state(spec), beta=0.0, R=0.0)
    with pytest.raises(FormatError):
        load_state(path, expected=GridSpec(n=64, half_width=4.0))
    with pytest.raises(FormatError):
        load_state(path, expected=GridSpec(n=32, half_width=8.0))


@pytest.mark.parametrize("step", ["fsync", "replace"])
def test_failed_write_keeps_the_old_state(tmp_path, spec, monkeypatch, step):
    path = tmp_path / "u.state"
    save_state(path, gaussian_state(spec), beta=0.5, R=0.1)
    old = path.read_bytes()

    def fail(*args):
        raise OSError(f"planted {step} failure")

    monkeypatch.setattr(stateio.os, step, fail)
    with pytest.raises(OSError, match=f"planted {step} failure"):
        save_state(path, gaussian_state(spec, vortex=True), beta=1.0, R=0.2)
    # no temp file is left and the old target is untouched
    assert [p.name for p in tmp_path.iterdir()] == ["u.state"]
    assert path.read_bytes() == old


def test_unsupported_version_rejected(tmp_path, spec):
    path = tmp_path / "u.state"
    save_state(path, gaussian_state(spec), beta=0.0, R=0.0)
    raw = bytearray(path.read_bytes())
    raw[4:8] = struct.pack("<I", 2)
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="unsupported version 2$"):
        load_state(path)


def run(args):
    return main(args)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_payload_rejected(tmp_path, bad):
    # written by hand: magic, version 1, n, L, beta, R, then (re, im) pairs
    n = 16
    header = struct.pack("<4sIQddd", b"AFGS", 1, n, 4.0, 1.0, 0.1)
    payload = np.full(n * n, 0.25 + 0.5j, dtype="<c16")
    path = tmp_path / "u.state"
    path.write_bytes(header + payload.tobytes())
    assert load_state(path)[0].values[0, 0] == 0.25 + 0.5j
    payload.imag[37] = bad
    path.write_bytes(header + payload.tobytes())
    with pytest.raises(FormatError, match="non-finite"):
        load_state(path)


@pytest.mark.parametrize(
    "n, L, refusal",
    [(8, 4.0, "power of two >= 16, got 8"), (16, 0.0, "got 0.0"), (16, np.nan, "got nan")],
    ids=["n8", "L0", "Lnan"],
)
def test_header_with_a_refused_grid_is_malformed(tmp_path, capsys, n, L, refusal):
    # a payload of the n * n samples the header names, so only the grid is wrong
    header = struct.pack("<4sIQddd", b"AFGS", 1, n, L, 1.0, 0.1)
    path = tmp_path / "u.state"
    path.write_bytes(header + np.full(n * n, 0.25, dtype="<c16").tobytes())
    with pytest.raises(FormatError, match=re.escape(f"{path}: header grid refused:")) as exc:
        load_state(path)
    assert refusal in str(exc.value)
    assert run(["energy", str(path), "--N", "2"]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"error: {exc.value}\n"


def test_solve_command_oscillator(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = run(
        [
            "solve",
            "--beta", "0",
            "--trap", "harmonic",
            "--grid", "64",
            "--box", "8",
            "--state-out", str(tmp_path / "u.state"),
            "--history-out", str(tmp_path / "hist.csv"),
            "--out", str(out),
        ]
    )
    assert code == EXIT_OK
    report = json.loads(out.read_text())
    assert report["breakdown"]["total"] == pytest.approx(2.0, abs=1e-3)
    assert report["converged"] is True
    assert report["config"]["version"] == __version__
    assert (tmp_path / "hist.csv").read_text().startswith("iteration,energy")


@pytest.mark.parametrize("command", ["solve", "sweep", "sweep-s", "energy"])
def test_harmonic_trap_refuses_power_law_settings(command, tmp_path, spec, capsys, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("solved before checking the trap")

    state = tmp_path / "u.state"
    save_state(state, gaussian_state(spec), beta=0.0, R=0.1)
    argv = {
        "solve": ["solve", "--beta", "0", "--grid", "32", "--tol-grad", "1e-4"],
        "sweep": ["sweep", "--axis", "beta", "--values", "0", "--grid", "32"],
        "sweep-s": ["sweep", "--axis", "s", "--values", "2,4", "--beta", "0", "--grid", "32",
                    "--tol-grad", "1e-4"],
        "energy": ["energy", str(state), "--N", "2"],
    }[command] + ["--out", str(tmp_path / "report")]
    refused = [["--trap-s", "4"], ["--trap-c", "2"], ["--trap", "harmonic", "--trap-s", "4"]]
    # the defaults, spelled out, are the harmonic trap
    accepted = ["--trap-c", "1", "--trap-s", "2"]
    if command == "sweep-s":
        # the s = 4 row is refused as solve's --trap-s 4 is, before any row is solved
        refused, accepted = [[], *refused], ["--trap", "power"]
    monkeypatch.setattr(cli, "minimize", never)
    monkeypatch.setattr(solver, "minimize", never)
    for trap in refused:
        assert run(argv + trap) == EXIT_CONFIG
        assert capsys.readouterr().err == "error: --trap-c and --trap-s need --trap power\n"
    monkeypatch.undo()
    assert run(argv + accepted) == EXIT_OK


def test_solve_report_lists_level_iterations(tmp_path):
    out = tmp_path / "report.json"
    # the gaussian start is the beta = 0 ground state on both levels
    assert run(["solve", "--beta", "0", "--grid", "128", "--out", str(out)]) == EXIT_OK
    report = json.loads(out.read_text())
    assert report["level_iterations"] == [0, 0]
    assert report["iterations"] == 0


def test_solve_warm_restart_via_file(tmp_path):
    state = tmp_path / "u.state"
    common = ["--beta", "0.3", "--R", "0.1", "--grid", "128", "--box", "8",
              "--tol-grad", "1e-4"]
    first = tmp_path / "first.json"
    assert run(["solve", *common, "--state-out", str(state), "--out", str(first)]) == EXIT_OK
    second = tmp_path / "second.json"
    assert run(["solve", *common, "--state-in", str(state), "--out", str(second)]) == EXIT_OK
    r1 = json.loads(first.read_text())
    r2 = json.loads(second.read_text())
    # the cold solve starts on n = 64, the warm one on the file's grid only
    assert len(r1["level_iterations"]) == 2
    assert r2["level_iterations"] == [r2["iterations"]]
    assert r2["iterations"] <= 5
    assert r2["breakdown"]["total"] == pytest.approx(r1["breakdown"]["total"], abs=1e-8)


def test_solve_invalid_grid_exits_config(capsys):
    assert run(["solve", "--beta", "0", "--grid", "100"]) == EXIT_CONFIG
    assert "power of two" in capsys.readouterr().err


def test_state_in_excludes_seed(tmp_path, capsys):
    # a warm start reads no seed, so asking for both is refused
    state = tmp_path / "u.state"
    save_state(state, gaussian_state(GridSpec(n=32, half_width=8.0)), beta=0.0, R=0.0)
    argv = ["solve", "--beta", "0", "--grid", "32", "--seed", "1", "--state-in", str(state)]
    assert run(argv) == EXIT_CONFIG
    assert "argument --state-in: not allowed with argument --seed" in capsys.readouterr().err


def test_a_solve_whose_last_iterate_converges_exits_0(tmp_path, capsys):
    # the unbounded solve converges after exactly 9 iterations
    out = tmp_path / "report.json"
    argv = ["solve", "--beta", "1", "--R", "0.1", "--grid", "64", "--max-iters", "9",
            "--tol-grad", "1e-5", "--out", str(out)]
    assert run(argv) == EXIT_OK
    report = json.loads(out.read_text())
    assert report["converged"] is True and report["iterations"] == 9
    assert capsys.readouterr().err == ""


def test_solve_report_records_the_start_used(tmp_path):
    state, cold, warm = tmp_path / "u.state", tmp_path / "cold.json", tmp_path / "warm.json"
    common = ["solve", "--beta", "0", "--grid", "32", "--box", "8"]
    argv = [*common, "--seed", "5", "--tol-grad", "1e-3", "--state-out", str(state)]
    assert run([*argv, "--out", str(cold)]) == EXIT_OK
    assert run([*common, "--state-in", str(state), "--out", str(warm)]) == EXIT_OK
    cold_config = json.loads(cold.read_text())["config"]
    assert cold_config["seed"] == 5 and "init" not in cold_config
    assert json.loads(warm.read_text())["config"]["seed"] is None


def test_seed_picks_the_random_start(tmp_path):
    # with no iterations the saved state is the start itself; the unseeded
    # call follows a seeded one in the same process, which shares one parser.
    # The Gaussian start meets tol_grad (gradient 1.406e-07), the seeded do not
    spec = GridSpec(n=32, half_width=8.0)
    starts = {}
    for seed, code in ((3, EXIT_UNCONVERGED), (None, EXIT_OK), (4, EXIT_UNCONVERGED)):
        state, report = tmp_path / f"{seed}.state", tmp_path / "report.json"
        argv = ["solve", "--beta", "0", "--grid", "32", "--max-iters", "0",
                "--state-out", str(state), "--out", str(report)]
        assert run(argv + ([] if seed is None else ["--seed", str(seed)])) == code
        assert json.loads(report.read_text())["config"]["seed"] == seed
        starts[seed] = load_state(state)[0].values
        want = solver.initial_state(spec, SolverConfig(seed=seed)).values
        assert np.array_equal(starts[seed], want)
    # no seed is the Gaussian start, up to its 1e-10 symmetry-breaking packet
    assert np.max(np.abs(starts[None] - gaussian_state(spec).values)) < 1e-9
    assert np.max(np.abs(starts[3] - starts[4])) > 1e-2
    assert np.max(np.abs(starts[3] - starts[None])) > 1e-2


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--beta", "0", "--grid", "32"],
        ["sweep", "--axis", "beta", "--values", "0", "--grid", "32"],
        ["verify", "kernels", "--samples", "10"],
    ],
    ids=["solve", "sweep", "verify"],
)
def test_negative_seed_is_a_usage_error(argv, capsys):
    assert run([*argv, "--seed", "-1"]) == EXIT_CONFIG
    assert "--seed: must be at least 0, got -1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--tol-grad", "nan"], "tol_grad must be positive, got nan"),
        (["--max-iters", "-3"], "max_iters must be >= 0, got -3"),
        (["--R", "nan"], "smearing radius must be finite and >= 0, got nan"),
        (["--R", "inf"], "smearing radius must be finite and >= 0, got inf"),
        (["--box", "nan"], "half_width must be finite and > 0, got nan"),
        (["--box", "inf"], "half_width must be finite and > 0, got inf"),
        (["--beta", "nan"], "beta must be finite, got nan"),
        (["--beta", "inf"], "beta must be finite, got inf"),
        (["--trap", "power", "--trap-c", "nan"],
         "trap requires finite c > 0 and s > 0, got c=nan, s=2.0"),
        (["--trap", "power", "--trap-s", "inf"],
         "trap requires finite c > 0 and s > 0, got c=1.0, s=inf"),
    ],
    ids=["tol-grad-nan", "max-iters-negative", "R-nan", "R-inf", "box-nan", "box-inf",
         "beta-nan", "beta-inf", "trap-c-nan", "trap-s-inf"],
)
def test_solve_refuses_bad_numbers(flags, message, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert run(["solve", "--beta", "1", "--grid", "32", *flags, "--out", str(out)]) == EXIT_CONFIG
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "axis, values, message",
    [
        ("beta", "1,nan", "beta must be finite, got nan"),
        ("R", "0.1,-1", "smearing radius must be finite and >= 0, got -1.0"),
        ("R", "0.1,nan", "smearing radius must be finite and >= 0, got nan"),
    ],
    ids=["beta-nan", "R-negative", "R-nan"],
)
def test_sweep_refuses_a_non_finite_beta_before_solving(
    axis, values, message, tmp_path, capsys, monkeypatch
):
    def never(*args, **kwargs):
        raise AssertionError("solved before checking every row")

    monkeypatch.setattr(cli, "minimize", never)
    monkeypatch.setattr(solver, "minimize", never)
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--axis", axis, "--values", values, "--grid", "32", "--out", str(out)]
    assert run(argv) == EXIT_CONFIG
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_readme_examples_parse():
    # each ``avfield ...`` line of the README's sh blocks, continuations
    # joined, is a valid command line; nothing is run
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```sh\n(.*?)```", text, re.S)
    lines = [ln.strip() for b in blocks for ln in b.replace("\\\n", " ").splitlines()]
    examples = [shlex.split(ln)[1:] for ln in lines if ln.startswith("avfield ")]
    assert len(examples) >= 7
    parser = cli.build_parser()
    for argv in examples:
        parser.parse_args(argv)


@pytest.mark.parametrize(
    "argv",
    [
        ["energy", "{missing}", "--N", "2"],
        ["solve", "--beta", "0", "--grid", "32", "--state-in", "{missing}"],
        ["solve", "--beta", "0", "--grid", "32", "--out", "{missing}/report.json"],
    ],
    ids=["energy", "state-in", "out"],
)
def test_unreadable_or_unwritable_file_exits_config(tmp_path, capsys, argv):
    missing = str(tmp_path / "missing")
    assert run([a.format(missing=missing) for a in argv]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--beta", "0", "--grid", "32", "--out", "{missing}/report.json"],
        ["solve", "--beta", "0", "--grid", "32", "--state-out", "{missing}/u.state"],
        ["solve", "--beta", "0", "--grid", "32", "--history-out", "{missing}/h.csv"],
        ["sweep", "--axis", "beta", "--values", "0", "--grid", "32",
         "--out", "{missing}/sweep.csv"],
        ["verify", "geometry", "--samples", "200000", "--out", "{missing}/r.json"],
        ["energy", "{state}", "--N", "2", "--out", "{missing}/e.json"],
    ],
    ids=["out", "state-out", "history-out", "sweep-out", "verify-out", "energy-out"],
)
def test_missing_output_directory_refused_before_solving(tmp_path, capsys, monkeypatch, argv):
    def never(*args, **kwargs):
        raise AssertionError("worked before checking the output paths")

    monkeypatch.setattr(cli, "minimize", never)
    monkeypatch.setattr(cli, "sweep", never)
    monkeypatch.setattr(cli, "product_state_energy", never)
    for suite in cli.verify.SUITES:
        monkeypatch.setitem(cli.verify.SUITES, suite, never)
    state = tmp_path / "u.state"
    save_state(state, gaussian_state(GridSpec(n=32, half_width=4.0)), 1.0, 0.5)
    missing = str(tmp_path / "missing")
    assert run([a.format(missing=missing, state=state) for a in argv]) == EXIT_CONFIG
    assert "its directory does not exist" in capsys.readouterr().err


def solved(**result) -> SolveResult:
    """A sweep row as ``solver.sweep`` returns it, with planted numbers."""
    u = gaussian_state(GridSpec(n=32, half_width=4.0))
    return SolveResult(u=u, breakdown=EnergyBreakdown(1.25, -0.1, 0.3, 2.0),
                       boundary_mass=0.0, **result)


def test_sweep_command_csv(tmp_path, monkeypatch):
    out = tmp_path / "sweep.csv"
    code = run(
        ["sweep", "--axis", "beta", "--values", "0,0.2", "--grid", "64",
         "--box", "8", "--tol-grad", "1e-4", "--out", str(out)]
    )
    assert code == EXIT_OK
    lines = out.read_text().strip().splitlines()
    assert lines[0] == (
        "axis_value,total,kinetic,mixed,quartic,potential,converged,grad_norm,iterations"
    )
    assert len(lines) == 3
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[1]) == pytest.approx(2.0, abs=1e-6)
    # the exact bytes of a solved and a failed row
    rows = [solved(converged=True, grad_norm=1e-6, iterations=7),
            NumericalFailureError("planted")]
    monkeypatch.setattr(cli, "sweep", lambda *a: rows)
    run(["sweep", "--axis", "beta", "--values", "0.5,0.6", "--out", str(out)])
    assert out.read_bytes() == (
        b"axis_value,total,kinetic,mixed,quartic,potential,converged,grad_norm,iterations\r\n"
        b"0.5,3.45,1.25,-0.1,0.3,2.0,True,1e-06,7\r\n"
        b"0.6,,,,,,False,nan,0\r\n"
    )


@pytest.mark.parametrize(
    "axis, values, trap, problem",
    [
        ("beta", [0.5, 1.0], [], lambda v: FunctionalParams(beta=v, R=0.2, trap=TrapPotential())),
        ("R", [0.2, 0.1], [], lambda v: FunctionalParams(beta=0.5, R=v, trap=TrapPotential())),
        ("s", [2.0, 4.0], ["--trap", "power"],
         lambda v: FunctionalParams(beta=0.5, R=0.2, trap=TrapPotential(s=v))),
    ],
    ids=["beta", "R", "s"],
)
def test_sweep_axis_sets_its_parameter(tmp_path, axis, values, trap, problem):
    # each CLI row is the row of a warm-started sweep over the problems built here
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--axis", axis, "--values", ",".join(map(repr, values)), "--beta", "0.5",
            "--R", "0.2", *trap, "--grid", "32", "--tol-grad", "1e-4", "--out", str(out)]
    assert run(argv) == EXIT_OK
    rows = solver.sweep([problem(v) for v in values], GridSpec(n=32, half_width=8.0),
                        SolverConfig(tol_grad=1e-4))
    assert [line.split(",")[:2] for line in out.read_text().splitlines()[1:]] == [
        [repr(v), repr(row.breakdown.total)] for v, row in zip(values, rows)
    ]


def test_unconverged_solve_and_sweep_report_on_stderr(tmp_path, capsys):
    out = tmp_path / "report.json"
    common = ["--beta", "0.5", "--R", "0.2", "--grid", "32", "--box", "8",
              "--tol-grad", "1e-8", "--max-iters", "2"]
    assert run(["solve", *common, "--out", str(out)]) == EXIT_UNCONVERGED
    err = capsys.readouterr().err
    assert "not converged after 2 iterations" in err
    assert any("not converged" in w for w in json.loads(out.read_text())["warnings"])

    code = run(["sweep", "--axis", "beta", "--values", "0.5,0.6", *common[2:],
                "--out", str(tmp_path / "sweep.csv")])
    assert code == EXIT_UNCONVERGED
    lines = capsys.readouterr().err.splitlines()
    assert [line.split(" not converged")[0] for line in lines] == [
        "warning: beta=0.5", "warning: beta=0.6"
    ]


def test_sweep_row_error_exit_code_outranks_unconverged(tmp_path, monkeypatch, capsys):
    failed = NumericalFailureError("non-finite energy")
    unconverged = solved(converged=False, grad_norm=1e-3, iterations=2)
    monkeypatch.setattr(cli, "sweep", lambda *a: [unconverged, failed])
    argv = ["sweep", "--axis", "beta", "--values", "0.5,0.6", "--grid", "32",
            "--out", str(tmp_path / "sweep.csv")]
    assert run(argv) == EXIT_NUMERICAL
    monkeypatch.setattr(cli, "sweep", lambda *a: [unconverged])
    assert run(argv) == EXIT_UNCONVERGED
    assert "beta=0.6 not converged: non-finite energy" in capsys.readouterr().err


def test_sweep_empty_values(capsys):
    for values in (" ", "0.1,abc"):
        assert run(["sweep", "--axis", "beta", "--values", values]) == EXIT_CONFIG
        assert "error: argument --values" in capsys.readouterr().err


def test_stalled_line_search_is_a_numerical_failure(tmp_path, monkeypatch, capsys):
    def stalled(*args, **kwargs):
        raise NumericalFailureError("no Armijo step")

    monkeypatch.setattr(cli, "minimize", stalled)
    assert run(["solve", "--beta", "0", "--grid", "32"]) == EXIT_NUMERICAL
    assert capsys.readouterr().err == "numerical failure: no Armijo step\n"
    # a sweep keeps going past a stalled row and flags it
    monkeypatch.setattr(solver, "minimize", stalled)
    argv = ["sweep", "--axis", "beta", "--values", "0.5,0.6", "--grid", "32",
            "--out", str(tmp_path / "sweep.csv")]
    assert run(argv) == EXIT_NUMERICAL
    assert capsys.readouterr().err.count("not converged: no Armijo step") == 2


def test_sweep_has_no_particle_number_axis(capsys):
    # N does not enter the functional, so an N sweep would repeat one solve
    assert run(["sweep", "--axis", "N", "--values", "2,3"]) == EXIT_CONFIG
    assert "invalid choice: 'N'" in capsys.readouterr().err


def test_energy_command(tmp_path):
    spec = GridSpec(n=64, half_width=8.0)
    state = tmp_path / "u.state"
    save_state(state, gaussian_state(spec), beta=1.0, R=0.2)
    out = tmp_path / "energy.json"
    assert run(["energy", str(state), "--N", "2", "--out", str(out)]) == EXIT_OK
    report = json.loads(out.read_text())
    assert report["breakdown"]["three_body"] == 0.0
    assert report["gap"] > 0.0
    # stored R=0 must surface the divergent-pair-term domain error
    save_state(state, gaussian_state(spec), beta=1.0, R=0.0)
    assert run(["energy", str(state), "--N", "10"]) == EXIT_CONFIG


def test_energy_corrupted_file(tmp_path):
    bad = tmp_path / "bad.state"
    bad.write_bytes(b"garbage")
    assert run(["energy", str(bad), "--N", "2"]) == EXIT_CONFIG


def test_verify_suites_pass(tmp_path):
    for suite, samples in (
        ("kernels", "500"),
        ("geometry", "20000"),
        ("functional-inequalities", "10"),
        ("manybody-identities", "5"),
    ):
        out = tmp_path / f"{suite}.json"
        code = run(["verify", suite, "--samples", samples, "--out", str(out)])
        assert code == EXIT_OK, suite
        report = json.loads(out.read_text())
        assert report["ok"] is True
        assert all(c["ok"] for c in report["checks"])


def test_verify_deterministic(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    run(["verify", "geometry", "--samples", "5000", "--seed", "9", "--out", str(a)])
    run(["verify", "geometry", "--samples", "5000", "--seed", "9", "--out", str(b)])
    ra = json.loads(a.read_text())
    rb = json.loads(b.read_text())
    del ra["config"]["out"], rb["config"]["out"]  # only the path differs
    assert ra == rb


@pytest.mark.parametrize("samples", ["0", "-5"])
@pytest.mark.parametrize("suite", sorted(cli.verify.SUITES))
def test_verify_rejects_fewer_than_one_sample(tmp_path, capsys, suite, samples):
    out = tmp_path / "report.json"
    assert run(["verify", suite, "--samples", samples, "--out", str(out)]) == EXIT_CONFIG
    assert f"--samples: must be at least 1, got {samples}" in capsys.readouterr().err
    assert not out.exists()


def reject_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("suite", sorted(cli.verify.SUITES))
def test_verify_reports_are_strict_json(tmp_path, suite):
    for samples in ("1", "3"):
        out = tmp_path / "report.json"
        assert run(["verify", suite, "--samples", samples, "--out", str(out)]) in (
            EXIT_OK, EXIT_INVARIANT)
        json.loads(out.read_text(), parse_constant=reject_constant)


def test_exit_code_constants():
    assert (EXIT_OK, EXIT_CONFIG, EXIT_NUMERICAL, EXIT_INVARIANT, EXIT_UNCONVERGED) == (
        0, 1, 2, 3, 4
    )


@pytest.mark.parametrize("error", AvfieldError.__subclasses__(), ids=lambda e: e.__name__)
def test_every_library_error_has_an_exit_code(error, monkeypatch, capsys):
    # a command that raises any of the package's errors exits 1 or 2 with
    # one line on stderr, not with a traceback
    def raising(*args, **kwargs):
        raise error("planted")

    monkeypatch.setattr(cli, "minimize", raising)
    code = run(["solve", "--beta", "0", "--grid", "32"])
    assert (code, capsys.readouterr().err) in {
        (EXIT_CONFIG, "error: planted\n"), (EXIT_NUMERICAL, "numerical failure: planted\n")
    }


# suite -> (--samples, report entries besides the checks, {check: measured values})
# at seed 42; a changed draw order or check formula moves the values
VERIFY_REFERENCE = {
    "kernels": ("300", {}, {
        "piecewise_w": {"max_abs_err": 0.0},
        "lp_scaling": {"max_rel_err": 3.0148596088423166e-16},
        "grad_sup_bound": {"max_R_sup": 0.9999386375353921},
    }),
    "functional-inequalities": ("6", {"states": 6}, {
        "diamagnetic": {"worst_margin": 0.09422328089091758},
        "density_lower_bound": {"worst_margin": 0.29311369858710523},
    }),
    "manybody-identities": ("4", {"states": 4}, {
        "mixed_crosscheck": {"worst_rel": 5.682762300016326e-14},
        "gap_nonnegative": {"worst_scaled_gap": 0.09230184480382997},
    }),
}


@pytest.mark.parametrize("suite", sorted(VERIFY_REFERENCE))
def test_verify_report_pinned(tmp_path, suite):
    samples, entries, checks = VERIFY_REFERENCE[suite]
    out = tmp_path / "report.json"
    assert run(["verify", suite, "--samples", samples, "--seed", "42",
                "--out", str(out)]) == EXIT_OK
    report = json.loads(out.read_text())
    assert report["suite"] == suite
    for key, value in entries.items():
        assert report[key] == value
    assert [c["name"] for c in report["checks"]] == list(checks)
    for got in report["checks"]:
        want = checks[got["name"]]
        assert set(got) == {"name", "ok", *want}
        assert got["ok"] is True
        for key, value in want.items():
            assert got[key] == pytest.approx(value, rel=1e-12, abs=0)


def test_verify_geometry_calls_through_the_geometry_module(tmp_path, monkeypatch):
    from avfield import geometry

    calls = []

    def wrap(name):
        real = getattr(geometry, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(geometry, name, wrapper)

    wrap("counterexample_probe")
    wrap("regime_triangles")
    wrap("batch_cyclic_sum")
    monkeypatch.setattr(geometry, "PROBE_CHUNK", 200)
    out = tmp_path / "geometry.json"
    assert run(["verify", "geometry", "--samples", "500", "--out", str(out)]) == EXIT_OK
    # the regularized and the convex-profile probe, each summing its three
    # chunks by the traced name, then one batch per regime summed the same way
    probe = ["counterexample_probe"] + ["batch_cyclic_sum"] * 3
    regime = ["regime_triangles", "batch_cyclic_sum"]
    assert calls == probe * 2 + regime * 5
