"""Golden rows of the realization and Potts runners, compared as CSV text.

tests/data/experiment_rows.json maps each run below to the CSV that
ExperimentReport.write renders for it, header included.  Comparing the text
makes NaN cells compare equal and pins every float to its repr.  The two
over-budget runs lower NFG_DUAL_BUDGET below the model's state count, so
their exact and error cells are NaN while the BP estimates are still reported.

Record the file again with `PYTHONPATH=src python tests/test_experiment_rows.py`.
"""

import json
import os
import tempfile
from pathlib import Path

import pytest

from nfgdual.experiments import (
    run_fig_ising_fully,
    run_fig_ising_halfnormal,
    run_fig_potts_frustrated,
)
from nfgdual.oracle import BUDGET_ENV_VAR

DATA = Path(__file__).parent / "data" / "experiment_rows.json"

RUNS = {
    "halfnormal": lambda: run_fig_ising_halfnormal(
        seed=5, rows=3, cols=3, sigma2_values=[0.25, 1.05], realizations=3),
    "halfnormal_over_budget": lambda: run_fig_ising_halfnormal(
        seed=5, rows=3, cols=3, sigma2_values=[0.25], realizations=2),
    "fully": lambda: run_fig_ising_fully(
        seed=6, n=5, beta_x_values=[0.35, 0.85], realizations=3),
    "potts_frustrated": lambda: run_fig_potts_frustrated(
        quick=True, beta_ferr_values=[0.45, 1.35]),
    "potts_frustrated_over_budget": lambda: run_fig_potts_frustrated(
        quick=True, beta_ferr_values=[0.45]),
}
BUDGETS = {"halfnormal_over_budget": "100", "potts_frustrated_over_budget": "100"}


def csv_text(report) -> str:
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "rows.csv")
        report.write(path)
        return Path(path).read_text(encoding="utf-8")


@pytest.mark.parametrize("name", sorted(RUNS))
def test_rows_match_recorded(name, monkeypatch):
    if name in BUDGETS:
        monkeypatch.setenv(BUDGET_ENV_VAR, BUDGETS[name])
    assert csv_text(RUNS[name]()) == json.loads(DATA.read_text())[name]


if __name__ == "__main__":
    recorded = {}
    for name, run in sorted(RUNS.items()):
        os.environ.pop(BUDGET_ENV_VAR, None)
        if name in BUDGETS:
            os.environ[BUDGET_ENV_VAR] = BUDGETS[name]
        recorded[name] = csv_text(run())
    DATA.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n", encoding="utf-8")
