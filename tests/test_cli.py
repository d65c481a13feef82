import math

import pytest

from galimech.cli import main
from galimech.verify import CHECKS

HEADER = "step,t,x,y,z,px,py,pz,energy,shell_residual"

FREE = """\
# free particle on dyadic data
mass = 1.0
potential.kind = zero
x0 = 0, 1, 0, 0
v0 = 0.5, 0, 0
dt = 0.125
steps = 10
"""

# One full period of the unit oscillator, to the resolution of dt.
HARMONIC = """\
mass = 1.0
potential.kind = harmonic
potential.kappa = 1.0
x0 = 0, 1, 0, 0
v0 = 0, 0, 0
dt = 1e-3
steps = 6284
"""

LEGENDRE_BASE = """\
mass = 1.0
potential.kind = zero
x0 = 0, 0, 0, 0
v0 = 0.6, 0, 0
dt = 0.001
steps = 1
"""


def write(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def rows(path):
    lines = path.read_text().splitlines()
    assert lines[0] == HEADER
    return [line.split(",") for line in lines[1:]]


def test_simulate_free_particle(tmp_path):
    out = tmp_path / "free.csv"
    assert main(["simulate", "--config", write(tmp_path, FREE),
                 "--out", str(out)]) == 0
    table = rows(out)
    assert len(table) == 11
    assert [r[0] for r in table] == [str(n) for n in range(11)]
    assert all(len(r) == 10 for r in table)
    energy0 = float(table[0][8])
    assert all(abs(float(r[8]) - energy0) <= 1e-12 for r in table)
    assert all(abs(float(r[9])) <= 1e-6 for r in table)
    # Straight line at dyadic rates: the endpoint is exact.
    assert float(table[10][2]) == 1.0 + 0.5 * 1.25


def test_simulate_is_deterministic(tmp_path):
    cfg = write(tmp_path, FREE)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["simulate", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["simulate", "--config", cfg, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_simulate_closes_the_oscillator_period(tmp_path):
    out = tmp_path / "orbit.csv"
    assert main(["simulate", "--config", write(tmp_path, HARMONIC),
                 "--out", str(out)]) == 0
    table = rows(out)
    assert len(table) == 6285
    first, last = table[0], table[-1]
    for col in (2, 3, 4):
        assert abs(float(last[col]) - float(first[col])) <= 1e-5
    assert all(abs(float(r[9])) <= 1e-6 for r in table)


def test_missing_mass_names_the_key(tmp_path, capsys):
    cfg = write(tmp_path, FREE.replace("mass = 1.0\n", ""))
    assert main(["simulate", "--config", cfg,
                 "--out", str(tmp_path / "x.csv")]) == 2
    assert "mass" in capsys.readouterr().err


@pytest.mark.parametrize("mangle", [
    lambda text: text + "unknown_key = 3\n",
    lambda text: text + "dt = 0.5\n",
    lambda text: text + "p0 = 1, 0, 0\n",
    lambda text: text.replace("potential.kind = zero",
                              "potential.kind = cubic"),
    lambda text: text.replace("dt = 0.125", "dt = -1"),
    lambda text: text + "potential.kappa = 1.0\n",
    lambda text: text + "seed = 3\n",
])
def test_malformed_configs_exit_2(tmp_path, mangle):
    cfg = write(tmp_path, mangle(FREE))
    assert main(["simulate", "--config", cfg,
                 "--out", str(tmp_path / "x.csv")]) == 2


def test_missing_config_file_exits_2(tmp_path):
    assert main(["simulate", "--config", str(tmp_path / "absent.cfg"),
                 "--out", str(tmp_path / "x.csv")]) == 2


def test_divergence_exits_3(tmp_path):
    cfg = write(tmp_path, HARMONIC.replace("dt = 1e-3", "dt = 10")
                .replace("steps = 6284", "steps = 500"))
    assert main(["simulate", "--config", cfg,
                 "--out", str(tmp_path / "x.csv")]) == 3


def test_boost_zero_is_exact(tmp_path):
    out = tmp_path / "pair.txt"
    assert main(["boost", "--config", write(tmp_path, FREE),
                 "--boost", "0,0,0", "--out", str(out)]) == 0
    assert out.read_text().splitlines()[-1] == "max_event_discrepancy=0"


def test_boost_output_layout(tmp_path):
    out = tmp_path / "pair.txt"
    assert main(["boost", "--config", write(tmp_path, FREE),
                 "--boost", "0.25,0,0", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 27
    assert lines[0] == HEADER and lines[13] == HEADER
    assert lines[12] == "" and lines[25] == ""
    assert lines[26].startswith("max_event_discrepancy=")
    assert float(lines[26].split("=")[1]) <= 1e-6


def test_boost_covariance_on_the_oscillator(tmp_path):
    out = tmp_path / "pair.txt"
    assert main(["boost", "--config", write(tmp_path, HARMONIC),
                 "--boost", "0.7,0,0", "--out", str(out)]) == 0
    value = float(out.read_text().splitlines()[-1].split("=")[1])
    assert value <= 1e-6


def test_corrupted_momentum_map_is_caught(tmp_path, capsys):
    out = tmp_path / "pair.txt"
    assert main(["boost", "--config", write(tmp_path, FREE),
                 "--boost", "0.25,0,0", "--out", str(out),
                 "--corrupt-momentum", "0.01"]) == 1
    value = float(out.read_text().splitlines()[-1].split("=")[1])
    assert value > 1e-6


def test_boost_rejects_malformed_vector(tmp_path):
    assert main(["boost", "--config", write(tmp_path, FREE),
                 "--boost", "0.25,0", "--out", str(tmp_path / "x.txt")]) == 2


def test_legendre_worked_example(tmp_path, capsys):
    assert main(["legendre", "--config", write(tmp_path, LEGENDRE_BASE)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "momentum = -0.17999999999999999,0.59999999999999998,0,0"
    assert lines[1].startswith("class_momentum = ")
    residual = float(lines[2].split(" = ")[1])
    assert abs(residual) <= 1e-12
    closure = float(lines[3].split(" = ")[1])
    assert abs(closure) <= 1e-12


def test_legendre_at_rest_reads_the_potential(tmp_path, capsys):
    cfg = write(tmp_path, HARMONIC.replace("steps = 6284", "steps = 1"))
    assert main(["legendre", "--config", cfg]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "momentum = -0.5,0,0,0"


def test_legendre_class_is_config_independent(tmp_path, capsys):
    """Same motion written against two frames, all inputs dyadic."""
    shared = ("mass = 1.0\n"
              "potential.kind = uniform\n"
              "potential.k = 0.25, -0.5, 0.125, 0.375\n"
              "x0 = 0.25, -0.5, 0.75, 0.125\n"
              "dt = 0.001\n"
              "steps = 1\n")
    cfg_a = write(tmp_path, shared + "frame = 0.5, -1, 0.25\n"
                  "v0 = 0.75, -0.5, 0.25\n", "a.cfg")
    cfg_b = write(tmp_path, shared + "frame = -0.5, 1, 1.25\n"
                  "v0 = 1.75, -2.5, -0.75\n", "b.cfg")
    assert main(["legendre", "--config", cfg_a]) == 0
    line_a = capsys.readouterr().out.splitlines()[1]
    assert main(["legendre", "--config", cfg_b]) == 0
    line_b = capsys.readouterr().out.splitlines()[1]
    assert line_a.startswith("class_momentum = ")
    assert line_a == line_b


def test_legendre_requires_a_velocity(tmp_path, capsys):
    cfg = write(tmp_path, FREE.replace("v0 = 0.5, 0, 0", "p0 = 0.5, 0, 0"))
    assert main(["legendre", "--config", cfg]) == 2
    assert "v0" in capsys.readouterr().err


def test_legendre_honours_the_tolerance_gate(tmp_path):
    cfg = write(tmp_path, LEGENDRE_BASE + "tol = 1e-30\n")
    assert main(["legendre", "--config", cfg]) == 1


def test_verify_single_trial(capsys):
    assert main(["verify", "--trials", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(CHECKS)
    assert all(line.endswith("PASS") for line in lines)


def test_verify_unreachable_tolerance_fails(capsys):
    assert main(["verify", "--trials", "1", "--tol", "1e-16"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert any(line.endswith("FAIL") for line in lines)


def test_verify_rejects_zero_trials():
    assert main(["verify", "--trials", "0"]) == 2


def test_no_subcommand_exits_2():
    assert main([]) == 2


def test_energy_column_tracks_the_oscillator(tmp_path):
    """Phase check: after a quarter period the energy is purely kinetic."""
    cfg = write(tmp_path, HARMONIC.replace("steps = 6284", "steps = 1571"))
    out = tmp_path / "orbit.csv"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    table = rows(out)
    quarter = table[-1]
    assert abs(float(quarter[2])) <= 1e-3
    assert float(quarter[8]) == pytest.approx(0.5, abs=1e-6)
    assert abs(float(quarter[5]) + math.sin(float(quarter[1]))) <= 1e-6
