"""The oracles accept the program's real output and reject perturbed output."""

import pytest

import galimech.cli

from inputs import make_case
from oracles import OracleError, check_oscillator, check_registry, check_slope


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    work = tmp_path_factory.mktemp("cases")
    produced = {}
    for workload in ("simulate-oscillator", "boost-drifting-slope"):
        case = make_case(workload, 11, work)
        assert galimech.cli.main(case.argv) == 0
        with open(case.out, encoding="utf-8") as handle:
            produced[workload] = case, handle.read()
    return produced


def _perturb(text, row, column, factor):
    lines = text.split("\n")
    header = lines[0].split(",")
    parts = lines[row + 1].split(",")
    i = header.index(column)
    parts[i] = repr(float(parts[i]) * factor)
    lines[row + 1] = ",".join(parts)
    return "\n".join(lines)


def test_oscillator_oracle_accepts_output_and_counts_steps(outputs):
    case, text = outputs["simulate-oscillator"]
    assert check_oscillator(case, text) == case.params["steps"]


@pytest.mark.parametrize("column", ["x", "pz", "t"])
def test_oscillator_oracle_rejects_perturbed_csv(outputs, column):
    case, text = outputs["simulate-oscillator"]
    with pytest.raises(OracleError):
        check_oscillator(case, _perturb(text, 5000, column, 1 + 1e-7))


def test_oscillator_oracle_reads_columns_by_name(outputs):
    case, text = outputs["simulate-oscillator"]
    # Drop the diagnostic columns and reverse the order of the rest.
    rows = [line.split(",") for line in text.strip().split("\n")]
    keep = [rows[0].index(c) for c in ("pz", "py", "px", "z", "y", "x", "t")]
    reordered = "\n".join(",".join(row[i] for i in keep) for row in rows)
    assert check_oscillator(case, reordered) == case.params["steps"]


def test_slope_oracle_checks_both_sections_and_discrepancy(outputs):
    case, text = outputs["boost-drifting-slope"]
    assert check_slope(case, text) == 2 * case.params["steps"]
    second = text.index("\n\n") + 2
    perturbed = text[:second] + _perturb(text[second:], 100, "y", 1 + 1e-7)
    with pytest.raises(OracleError):
        check_slope(case, perturbed)
    head, _ = text.rsplit("max_event_discrepancy=", 1)
    with pytest.raises(OracleError):
        check_slope(case, head + "max_event_discrepancy=1e-3\n")


def test_registry_oracle_requires_every_suite_to_pass():
    passing = ("a-suite  trials=1000  max_error=1.0e-16 tol=1.0e-12 PASS\n"
               "b-suite  trials=3     max_error=0.0e+00 tol=1.0e-06 PASS\n")
    assert check_registry(None, passing) == 1003
    with pytest.raises(OracleError):
        check_registry(None, passing.replace("PASS\nb", "FAIL\nb"))
    with pytest.raises(OracleError):
        check_registry(None, "")
