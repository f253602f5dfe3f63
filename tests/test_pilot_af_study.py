"""The numbers scripts/pilot_af_study.py prints at its defaults: a 16 x 16
grid with pilots on every second subcarrier of every symbol."""

import importlib.util
import math
from pathlib import Path

import pytest

from cdce.grids import Dims

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "pilot_af_study.py"
_spec = importlib.util.spec_from_file_location("pilot_af_study", SCRIPT)
pilot_af_study = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pilot_af_study)


@pytest.mark.parametrize(
    "kind,bins,ratio",
    [("all_ones", 2, math.inf), ("walsh", 8, 8.00), ("zadoff_chu", 231, 3.17)],
)
def test_study_at_the_script_defaults(kind, bins, ratio):
    row = pilot_af_study.study(Dims(16, 16, cp_len=0), 2, 1, kind)
    assert row["sequence"] == kind
    assert row["n_pilots"] == 128
    assert row["bins_for_90pct"] == bins
    # the script prints the ratio to two decimals
    if math.isinf(ratio):
        assert row["af_ratio"] == math.inf and row["af_max_sidelobe"] == 0.0
    else:
        assert f"{row['af_ratio']:.2f}" == f"{ratio:.2f}"
