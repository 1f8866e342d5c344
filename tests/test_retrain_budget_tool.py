"""The re-training budget tool runs end to end and compares a length with itself exactly.

`tools/retrain_budget.py` re-trains every start once with the reference
simplex length and once per asked length.  The reference length, asked
for again, must give the same final costs and the same number of density
cost evaluations, or the tool's comparison measures noise.  The run is
Toffoli at m = 2, one grid point and two starts, in well under a second.
"""

import importlib.util
import json
import sys
from pathlib import Path

from spingate import optimize

TOOL = Path(__file__).resolve().parents[1] / "tools" / "retrain_budget.py"


def test_reference_length_against_itself_gives_no_difference(monkeypatch, capsys):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave tools/ as it is
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")  # the tool sets it on import
    spec = importlib.util.spec_from_file_location("retrain_budget", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    before = optimize.RETRAIN_SIMPLEX_ITERS

    assert tool.main(["--seeds", "10", "--targets", "toffoli:2", "--grid", "0.01",
                      "--restarts", "2", "--lengths", str(tool.REFERENCE_ITERS), "10"]) == 0

    same, short = (json.loads(line) for line in capsys.readouterr().out.splitlines())
    assert optimize.RETRAIN_SIMPLEX_ITERS == before
    assert same["length"] == same["reference_length"] == tool.REFERENCE_ITERS
    assert (same["n_starts"], same["above"], same["below"]) == (2, 0, 0)
    assert same["above_starts"] == [] and same["mean_cost_difference"] == 0.0
    assert same["density_evals"] == same["reference_density_evals"] > 0
    # a shorter simplex phase asks for fewer density costs
    assert short["length"] == 10 and short["n_starts"] == 2
    assert short["density_evals"] < short["reference_density_evals"]
    assert short["above"] == len(short["above_starts"])
