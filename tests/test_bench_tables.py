"""Table emitters, reduction math, and internal consistency of the
paper's published numbers (Tables XI–XIV)."""
import pytest

from repro.bench.tables import (
    METHOD_ORDER,
    PAPER_TABLE11,
    PAPER_TABLE12,
    PAPER_TABLE13,
    PAPER_TABLE14,
    emit_reduction_table,
    emit_time_table,
    mean_times,
    reductions,
)
from repro.core.methods import RunStats


class TestReductions:
    def test_formula(self):
        times = {"UA-GPNM": 50.0, "UA-GPNM-NoPar": 100.0, "EH-GPNM": 200.0, "INC-GPNM": 400.0}
        red = reductions(times)
        assert red == {"INC-GPNM": 87.5, "EH-GPNM": 75.0, "UA-GPNM-NoPar": 50.0}

    @pytest.mark.parametrize("dataset", list(PAPER_TABLE11))
    def test_paper_table12_consistent_with_table11(self, dataset):
        """The paper's own Table XII must be derivable from its Table XI
        (sanity that we transcribed both correctly). The paper's Youtube
        row is internally inconsistent by up to 2.5 points (17.38%
        derivable vs 14.91% printed) — presumably per-run averaging —
        so the tolerance is loose there."""
        tol = 2.6 if dataset == "Youtube" else 0.3
        red = reductions(PAPER_TABLE11[dataset])
        for method, pct in PAPER_TABLE12[dataset].items():
            assert red[method] == pytest.approx(pct, abs=tol)

    @pytest.mark.parametrize("scale", list(PAPER_TABLE13))
    def test_paper_table14_consistent_with_table13(self, scale):
        red = reductions(PAPER_TABLE13[scale])
        for method, pct in PAPER_TABLE14[scale].items():
            assert red[method] == pytest.approx(pct, abs=0.25)

    @pytest.mark.parametrize("dataset", list(PAPER_TABLE11))
    def test_paper_method_ordering(self, dataset):
        """UA < NoPar < EH < INC in every row of the paper's Table XI."""
        t = PAPER_TABLE11[dataset]
        assert t["UA-GPNM"] < t["UA-GPNM-NoPar"] < t["EH-GPNM"] < t["INC-GPNM"]


class TestEmitters:
    ROWS = {
        "demo": {"UA-GPNM": 1.0, "UA-GPNM-NoPar": 2.0, "EH-GPNM": 3.0, "INC-GPNM": 4.0}
    }

    def test_time_table_contains_all_methods(self):
        md = emit_time_table("T", self.ROWS)
        for m in METHOD_ORDER:
            assert m in md
        assert "1.00s" in md and "4.00s" in md

    def test_time_table_includes_paper_row(self):
        """The paper row carries the paper's own name, not the measured key."""
        md = emit_time_table("T", self.ROWS, {"demo": ("email-EU-core", self.ROWS["demo"])})
        assert "(paper: email-EU-core)" in md
        assert "(paper: demo)" not in md

    def test_reduction_table_labels_paper_row_with_paper_name(self):
        md = emit_reduction_table("T", self.ROWS, {"demo": ("(6, 200)", PAPER_TABLE14["(6, 200)"])})
        assert "(paper: (6, 200))" in md
        assert "47.85% less" in md

    def test_reduction_table(self):
        md = emit_reduction_table("T", self.ROWS)
        assert "75.00% less" in md  # vs INC-GPNM
        assert "50.00% less" in md  # vs UA-GPNM-NoPar wait: (2-1)/2

    def test_mean_times(self):
        def st(t):
            s = RunStats(method="m")
            s.phase_seconds = {"x": t}
            return s

        runs = [{"A": st(1.0)}, {"A": st(3.0)}]
        assert mean_times(runs) == {"A": 2.0}


class TestRunStats:
    def test_phase_accumulates(self):
        s = RunStats(method="m")
        with s.phase("a"):
            pass
        with s.phase("a"):
            pass
        assert "a" in s.phase_seconds
        assert s.total_seconds >= 0
