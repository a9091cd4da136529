from pathlib import Path

import numpy as np
import pytest

from conftest import COARSE_NEGATIVE_NORM, VERIFY_FAST
from krflow.cli import (
    _flow_config,
    _manifold,
    _potential,
    _suite_config,
    _summary_lines,
    default_config_path,
    load_config,
    main,
)
from krflow.flow import TRACE_COLUMNS, FlowConfig, FlowRecord, FlowTrace
from krflow.geometry import RadialPotential
from krflow.verification import DEFAULT_TOLERANCES, SuiteConfig

ROOT = Path(__file__).resolve().parents[1]
SHIPPED_CONFIGS = sorted([*(ROOT / "src" / "krflow" / "configs").glob("*.ini"),
                          *(ROOT / "perfbench" / "configs").glob("*.ini")])

FLOW_SMALL = """
[run]
n = 1
grid_size = 128

[potential]
coeffs = 0.0, 0.2

[flow]
t_max = 0.5
record_every = 200
"""


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_default_config_is_bundled():
    assert default_config_path().is_file()


def test_verify_fast_config_passes(tmp_path, capsys):
    config = _write(tmp_path, "verify.ini", VERIFY_FAST)
    assert main(["verify", "--config", config]) == 0
    out = capsys.readouterr().out
    assert "residual_constancy_background,PASS" in out


def test_verify_writes_report_file(tmp_path, capsys):
    report_path = tmp_path / "report.txt"
    config = _write(tmp_path, "verify.ini",
                    VERIFY_FAST + f"\n[output]\nreport = {report_path}\n")
    assert main(["verify", "--config", config]) == 0
    captured = capsys.readouterr().out
    assert report_path.read_text() == captured


def test_verify_unsupported_dimension(tmp_path):
    config = _write(tmp_path, "bad.ini", "[run]\nn = 4\ngrid_size = 128\n")
    assert main(["verify", "--config", config]) == 2


def test_verify_unknown_key(tmp_path):
    config = _write(tmp_path, "bad.ini", "[run]\nn = 1\ngridsize = 128\n")
    assert main(["verify", "--config", config]) == 2


def test_verify_unknown_section(tmp_path):
    config = _write(tmp_path, "bad.ini", "[runner]\nn = 1\n")
    assert main(["verify", "--config", config]) == 2


def test_verify_missing_file(tmp_path):
    assert main(["verify", "--config", str(tmp_path / "absent.ini")]) == 2


@pytest.mark.parametrize("key, value", [("samples", 3), ("samples", 5), ("fd_pairs", 0),
                                        ("flow_grid", 15), ("flow_grid", 129),
                                        ("flow_record_every", 0)])
def test_verify_rejects_too_few_samples_or_pairs(tmp_path, capsys, key, value):
    config = _write(tmp_path, "bad.ini",
                    f"[run]\nn = 1\ngrid_size = 128\n\n[suite]\n{key} = {value}\n")
    assert main(["verify", "--config", config]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("configuration error: ") and key in captured.err


@pytest.mark.parametrize("key, value", [("fd_dt", "0"), ("fd_dt", "-1e-4"), ("fd_dt", "nan"),
                                        ("fd_dt", "inf"), ("flow_t_max", "inf"),
                                        ("flow_t_max", "nan")])
def test_verify_rejects_unusable_fd_step_or_flow_horizon(tmp_path, capsys, key, value):
    # a zero finite-difference step would print NaN entries, and an infinite
    # flow horizon would run the suite's flow until it diverges
    config = _write(tmp_path, "bad.ini",
                    f"[run]\nn = 1\ngrid_size = 128\n\n[suite]\n{key} = {value}\n")
    assert main(["verify", "--config", config]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"configuration error: {key} must be positive and finite")


def test_verify_mutation_config_fails(tmp_path, capsys):
    config = _write(tmp_path, "mutated.ini",
                    VERIFY_FAST + "\n[mutation]\nb1_offset = 0.1\n")
    assert main(["verify", "--config", config]) == 1
    out = capsys.readouterr().out
    assert "der_e1,FAIL" in out


VERIFY_COARSE = """
[run]
n = 2
grid_size = 32

[suite]
samples = 6
fd_pairs = 1
flow_grid = 64
flow_t_max = 0.05
"""


@pytest.mark.parametrize("override, status", [("", "FAIL"),
                                              ("[tolerances]\nj_expressions_agree = 1e-3\n",
                                               "PASS")])
def test_verify_reports_j_forms_disagreement(tmp_path, capsys, override, status):
    # on a 32-panel grid J's two forms differ by about 2e-5 relative: the
    # suite grades that under j_expressions_agree (and its override) and
    # prints every entry instead of aborting on the first J evaluation
    config = _write(tmp_path, "coarse.ini", VERIFY_COARSE + override)
    assert main(["verify", "--config", config]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    lines = captured.out.splitlines()
    assert len(lines) == len(DEFAULT_TOLERANCES)
    assert lines[0].startswith(f"j_expressions_agree,{status},")


@pytest.mark.parametrize("entry", ("dt_safety = 0.9", "representation = nodal",
                                   "fit_degree = 8", "[suite]\nrho = 0.3",
                                   "[suite]\ndegree = 8",
                                   "[suite]\nreference_coeffs = 0.0, 0.2, 0.1"))
def test_flow_removed_keys_are_unknown(tmp_path, capsys, entry):
    config = _write(tmp_path, "flow.ini", FLOW_SMALL + entry + "\n")
    assert main(["flow", "--config", config, "--out", str(tmp_path / "trace.csv")]) == 2
    assert "unknown key" in capsys.readouterr().err
    assert not (tmp_path / "trace.csv").exists()


@pytest.mark.parametrize("value", ("inf", "nan", "0"))
def test_flow_rejects_unusable_horizon(tmp_path, capsys, value):
    config = _write(tmp_path, "flow.ini", FLOW_SMALL.replace("t_max = 0.5", f"t_max = {value}"))
    assert main(["flow", "--config", config, "--out", str(tmp_path / "trace.csv")]) == 2
    assert capsys.readouterr().err.startswith(
        "configuration error: t_max must be positive and finite")
    assert not (tmp_path / "trace.csv").exists()


@pytest.mark.parametrize("path", SHIPPED_CONFIGS,
                         ids=lambda path: str(path.relative_to(ROOT)))
def test_shipped_configs_load(path):
    # every bundled and benchmark config passes the schema and builds the
    # run it names (by its file name's prefix) without running it
    parser = load_config(str(path))
    manifold = _manifold(parser)
    assert manifold.n == parser.getint("run", "n")
    kind = path.name.split("_")[0]
    if kind == "flow":
        config = _flow_config(parser, manifold)
        assert isinstance(config, FlowConfig)
        assert config.t_max == parser.getfloat("flow", "t_max")
    elif kind == "verify":
        config = _suite_config(parser, manifold)
        assert isinstance(config, SuiteConfig)
        assert (config.n, config.grid_size) == (manifold.n, manifold.grid.size)
    else:
        assert kind == "eval"
        assert isinstance(_potential(parser, manifold), RadialPotential)


def test_flow_trace_format_and_exit(tmp_path):
    config = _write(tmp_path, "flow.ini", FLOW_SMALL)
    out_path = tmp_path / "trace.csv"
    assert main(["flow", "--config", config, "--out", str(out_path)]) == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == ",".join(TRACE_COLUMNS)
    data = [ln for ln in lines[1:] if not ln.startswith("#")]
    summary = [ln for ln in lines[1:] if ln.startswith("#")]
    assert len(data) >= 2
    for ln in data:
        fields = ln.split(",")
        assert len(fields) == len(TRACE_COLUMNS)
        [float(v) for v in fields]
    assert any("c_omega" in ln for ln in summary)
    assert any("inequality_margin" in ln and "PASS" in ln for ln in summary)
    # records parse as a valid csv table for numpy as well
    table = np.genfromtxt(str(out_path), delimiter=",", names=True, comments="#")
    assert table.dtype.names == tuple(TRACE_COLUMNS)


def _summary_trace(rows, c_omega):
    records = [FlowRecord(t=t, nu=nu, e1=e1, dirichlet=d, residual=e1 - 2.0 * nu - d,
                          scal_min=1.0, scal_max=3.0, futaki=0.0, min_ahat=0.5, min_bhat=1.0)
               for t, nu, e1, d in rows]
    return FlowTrace(records=records, c_omega=c_omega, accepted=12,
                     rejections=[(0.125, 0.25, 0.5, -0.25)] * 3)


def test_flow_summary_text_unchanged():
    # the summary reads its tolerances from DEFAULT_TOLERANCES; the text is
    # byte for byte what the hard-coded 1e-5, 1e-8 and -1e-8 printed
    passing = _summary_trace([(0.0, 0.5, 0.75, 0.125), (0.25, 0.375, 0.5, 0.125)], -0.375)
    assert "\n".join(_summary_lines(passing)) + "\n" == (
        "# c_omega = -0.375\n"
        "# max_residual_deviation = 0 (tolerance 1.375e-05): PASS\n"
        "# nu_monotone_violation = 0 (tolerance 1e-08): PASS\n"
        "# inequality_margin = 0.125 (floor -1e-08): PASS\n"
        "# steps_accepted = 12, steps_rejected = 3\n")
    failing = _summary_trace([(0.0, 0.5, 0.75, 0.125), (0.25, 0.625, 1.0, 1.5)], 0.0)
    assert "\n".join(_summary_lines(failing)) + "\n" == (
        "# c_omega = 0\n"
        "# max_residual_deviation = 1.75 (tolerance 1.0000000000000001e-05): FAIL\n"
        "# nu_monotone_violation = 0.083333333333333329 (tolerance 1e-08): FAIL\n"
        "# inequality_margin = -0.25 (floor -1e-08): FAIL\n"
        "# steps_accepted = 12, steps_rejected = 3\n")


def _flow_summary(tmp_path, text):
    """(exit code, summary lines by their label) of ``krflow flow`` on ``text``."""
    config = _write(tmp_path, "flow.ini", text)
    out_path = tmp_path / "trace.csv"
    code = main(["flow", "--config", config, "--out", str(out_path)])
    lines = [ln for ln in out_path.read_text().splitlines() if ln.startswith("# ")]
    return code, {ln[2:].split(" = ")[0]: ln for ln in lines}


def test_flow_honours_residual_tolerance(tmp_path):
    # the [tolerances] section reaches flow's summary; the residual gate
    # only prints, the exit status follows the inequality gate alone
    code, summary = _flow_summary(
        tmp_path, FLOW_SMALL + "\n[tolerances]\nflow_residual_constant = 1e-30\n")
    assert code == 0
    assert summary["max_residual_deviation"].endswith(f"(tolerance {1e-30:.17g}): FAIL")
    assert summary["nu_monotone_violation"].endswith(": PASS")
    assert summary["inequality_margin"].endswith(": PASS")


def test_flow_summary_prints_override_tolerances_in_full(tmp_path):
    # the shortest round-trip form: no digit of an override is lost
    _, summary = _flow_summary(tmp_path, FLOW_SMALL + (
        "\n[tolerances]\nflow_nu_monotone = 1.23456789e-8\nflow_inequality = 2.5e-9\n"))
    assert "(tolerance 1.23456789e-08)" in summary["nu_monotone_violation"]
    assert "(floor -2.5e-09)" in summary["inequality_margin"]


# at n = 1 on 32 panels against the bent reference, the discrete inequality
# margin falls to -6.6e-7 by t = 5: below the default floor -1e-8
FLOW_COARSE_BENT = """
[run]
n = 1
grid_size = 32

[reference]
coeffs = 0.0, 0.2, 0.1

[potential]
coeffs = 0.0, -0.1, 0.1

[flow]
t_max = 5.0
record_every = 200
"""


@pytest.mark.parametrize("override, floor, status, exit_code", [
    ("", "-1e-08", "FAIL", 1),
    ("\n[tolerances]\nflow_inequality = 1e-6\n", "-1e-06", "PASS", 0)])
def test_flow_inequality_tolerance_decides_exit(tmp_path, override, floor, status, exit_code):
    code, summary = _flow_summary(tmp_path, FLOW_COARSE_BENT + override)
    assert code == exit_code
    assert summary["inequality_margin"].endswith(f"(floor {floor}): {status}")


def test_flow_outputs_are_reproducible(tmp_path):
    config = _write(tmp_path, "flow.ini", FLOW_SMALL)
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["flow", "--config", config, "--out", str(out_a)]) == 0
    assert main(["flow", "--config", config, "--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_flow_random_potential(tmp_path):
    config = _write(tmp_path, "flow.ini", """
[run]
n = 1
grid_size = 128

[potential]
random = true
seed = 4
rho = 0.2

[flow]
t_max = 0.1
record_every = 100
""")
    out_path = tmp_path / "trace.csv"
    assert main(["flow", "--config", config, "--out", str(out_path)]) == 0


def test_eval_zero_potential(tmp_path, capsys):
    config = _write(tmp_path, "eval.ini", "[run]\nn = 1\ngrid_size = 128\n")
    assert main(["eval", "--config", config, "--phi", "0"]) == 0
    out = capsys.readouterr().out
    values = dict(line.split(",") for line in out.strip().splitlines())
    for key in ("j", "j_mixed", "nu", "e1", "dirichlet", "residual", "futaki"):
        assert float(values[key]) == 0.0


def test_eval_rejects_inadmissible(tmp_path, capsys):
    config = _write(tmp_path, "eval.ini", "[run]\nn = 1\ngrid_size = 128\n")
    assert main(["eval", "--config", config, "--phi", "0,-10"]) == 1
    err = capsys.readouterr().err
    assert "NotInPotentialSpace" in err


def test_eval_reports_a_divergent_reference_as_an_error(tmp_path, capsys):
    # an admissible reference whose Ricci potential cannot be normalized on
    # its grid is a typed error (exit 1), not a configuration error
    coeffs = ", ".join(repr(c) for c in COARSE_NEGATIVE_NORM)
    config = _write(tmp_path, "eval.ini",
                    f"[run]\nn = 2\ngrid_size = 16\n\n[reference]\ncoeffs = {coeffs}\n")
    assert main(["eval", "--config", config, "--phi", "0"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "normalizing integral" in err


def test_eval_residual_matches_constant(tmp_path, capsys):
    # with a perturbed reference the residual at any potential matches the
    # residual at zero (the reference constant)
    base = """
[run]
n = 2
grid_size = 512

[reference]
coeffs = 0.0, 0.2, 0.1
"""
    config = _write(tmp_path, "eval.ini", base)
    assert main(["eval", "--config", config, "--phi", "0"]) == 0
    zero_out = dict(line.split(",") for line in
                    capsys.readouterr().out.strip().splitlines())
    assert main(["eval", "--config", config, "--phi", "0,0.3"]) == 0
    tilt_out = dict(line.split(",") for line in
                    capsys.readouterr().out.strip().splitlines())
    c = float(zero_out["residual"])
    assert c < 0.0
    assert float(tilt_out["residual"]) == pytest.approx(c, abs=1e-6 * (1 + abs(c)))


def test_eval_zero_reference_spellings_agree(tmp_path, capsys):
    # an absent [reference], an empty coeffs and coeffs = 0 all give the zero
    # potential, whose reference is Fubini-Study
    outputs = []
    for section in ("", "\n[reference]\ncoeffs =\n", "\n[reference]\ncoeffs = 0\n"):
        config = _write(tmp_path, "eval.ini", "[run]\nn = 2\ngrid_size = 128\n" + section)
        assert main(["eval", "--config", config, "--phi", "0,0.2,0.05"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] == outputs[2]


def test_eval_output_reproducible(tmp_path, capsys):
    config = _write(tmp_path, "eval.ini", "[run]\nn = 1\ngrid_size = 256\n")
    assert main(["eval", "--config", config, "--phi", "0,0.2,0.05"]) == 0
    first = capsys.readouterr().out
    assert main(["eval", "--config", config, "--phi", "0,0.2,0.05"]) == 0
    second = capsys.readouterr().out
    assert first == second


def test_verify_unknown_tolerance_key(tmp_path):
    config = _write(tmp_path, "bad.ini",
                    "[run]\nn = 1\ngrid_size = 128\n\n[tolerances]\nbogus = 1.0\n")
    assert main(["verify", "--config", config]) == 2


@pytest.mark.parametrize("command", ("verify", "flow"))
@pytest.mark.parametrize("value", ("-1e-7", "nan", "inf"))
def test_tolerance_override_must_be_finite_and_nonnegative(tmp_path, capsys, command, value):
    # a negative floor would print "floor 1e-07" beside a larger margin and
    # still fail the clamped inequality gate: such overrides are config errors
    config = _write(tmp_path, "bad.ini",
                    FLOW_SMALL + f"\n[tolerances]\nflow_inequality = {value}\n")
    out = ["--out", str(tmp_path / "trace.csv")] if command == "flow" else []
    assert main([command, "--config", config, *out]) == 2
    assert "tolerance flow_inequality must be finite and >= 0" in capsys.readouterr().err
    assert not (tmp_path / "trace.csv").exists()
