"""Emitters for the paper's evaluation tables (XI–XIV) + published numbers.

Each ``emit_*`` function renders measured rows in the same layout the
paper reports, side by side with the published numbers, so a reader can
diff the *shape* (ordering of methods, rough reduction factors). Absolute
seconds are not comparable — the paper ran C++ on a 256 GB Xeon server
over million-node SNAP graphs, this repo runs PySpark on laptop-scale
synthetic analogues (DESIGN.md §3).
"""
from __future__ import annotations

from repro.core.methods import RunStats

METHOD_ORDER = ["UA-GPNM", "UA-GPNM-NoPar", "EH-GPNM", "INC-GPNM"]

#: Table XI — average query processing time (seconds) per dataset.
PAPER_TABLE11: dict[str, dict[str, float]] = {
    "email-EU-core": {"UA-GPNM": 3.31, "UA-GPNM-NoPar": 3.98, "EH-GPNM": 5.25, "INC-GPNM": 8.27},
    "DBLP": {"UA-GPNM": 210.34, "UA-GPNM-NoPar": 262.71, "EH-GPNM": 322.38, "INC-GPNM": 501.25},
    "Amazon": {"UA-GPNM": 225.48, "UA-GPNM-NoPar": 278.37, "EH-GPNM": 346.15, "INC-GPNM": 536.85},
    "Youtube": {"UA-GPNM": 497.70, "UA-GPNM-NoPar": 602.41, "EH-GPNM": 753.03, "INC-GPNM": 1185.23},
    "LiveJournal": {"UA-GPNM": 1567.48, "UA-GPNM-NoPar": 1911.56, "EH-GPNM": 2449.19, "INC-GPNM": 3765.27},
}

#: Table XII — paper's reported % reduction of UA-GPNM vs the others.
PAPER_TABLE12: dict[str, dict[str, float]] = {
    "email-EU-core": {"INC-GPNM": 59.98, "EH-GPNM": 36.95, "UA-GPNM-NoPar": 16.83},
    "DBLP": {"INC-GPNM": 58.04, "EH-GPNM": 34.75, "UA-GPNM-NoPar": 19.77},
    "Amazon": {"INC-GPNM": 58.00, "EH-GPNM": 34.86, "UA-GPNM-NoPar": 18.99},
    "Youtube": {"INC-GPNM": 58.60, "EH-GPNM": 33.91, "UA-GPNM-NoPar": 14.91},
    "LiveJournal": {"INC-GPNM": 58.37, "EH-GPNM": 36.01, "UA-GPNM-NoPar": 18.00},
}

#: Table XIII — average query time (s) by scale of ΔG = (|V_P|, |ΔG_D|).
PAPER_TABLE13: dict[str, dict[str, float]] = {
    "(6, 200)": {"UA-GPNM": 371.64, "UA-GPNM-NoPar": 423.46, "EH-GPNM": 503.03, "INC-GPNM": 712.67},
    "(7, 400)": {"UA-GPNM": 439.23, "UA-GPNM-NoPar": 513.71, "EH-GPNM": 643.29, "INC-GPNM": 956.63},
    "(8, 600)": {"UA-GPNM": 510.02, "UA-GPNM-NoPar": 606.03, "EH-GPNM": 774.87, "INC-GPNM": 1182.12},
    "(9, 800)": {"UA-GPNM": 571.69, "UA-GPNM-NoPar": 700.35, "EH-GPNM": 907.19, "INC-GPNM": 1417.40},
    "(10, 1000)": {"UA-GPNM": 636.42, "UA-GPNM-NoPar": 786.02, "EH-GPNM": 1038.96, "INC-GPNM": 1625.27},
}

#: Table XIV — paper's % reductions by scale of ΔG.
PAPER_TABLE14: dict[str, dict[str, float]] = {
    "(6, 200)": {"INC-GPNM": 47.85, "EH-GPNM": 26.12, "UA-GPNM-NoPar": 12.24},
    "(7, 400)": {"INC-GPNM": 54.09, "EH-GPNM": 31.72, "UA-GPNM-NoPar": 14.50},
    "(8, 600)": {"INC-GPNM": 56.86, "EH-GPNM": 34.18, "UA-GPNM-NoPar": 15.84},
    "(9, 800)": {"INC-GPNM": 59.67, "EH-GPNM": 36.98, "UA-GPNM-NoPar": 18.37},
    "(10, 1000)": {"INC-GPNM": 60.84, "EH-GPNM": 38.74, "UA-GPNM-NoPar": 19.03},
}


def reductions(times: dict[str, float]) -> dict[str, float]:
    """Table XII/XIV rows: % time saved by UA-GPNM vs each other method."""
    ua = times["UA-GPNM"]
    return {
        m: 100.0 * (times[m] - ua) / times[m]
        for m in ("INC-GPNM", "EH-GPNM", "UA-GPNM-NoPar")
    }


def mean_times(stats_runs: list[dict[str, RunStats]]) -> dict[str, float]:
    """Average total seconds per method across repeated runs."""
    out: dict[str, float] = {}
    for m in stats_runs[0]:
        out[m] = sum(r[m].total_seconds for r in stats_runs) / len(stats_runs)
    return out


#: Paper rows to print under measured rows: measured row key →
#: (the paper's own name for the row, its published numbers).
PaperRows = dict[str, tuple[str, dict[str, float]]]


def _fmt_row(cells: list[str], widths: list[int]) -> str:
    return "| " + " | ".join(c.ljust(w) for c, w in zip(cells, widths)) + " |"


def emit_time_table(
    title: str,
    rows: dict[str, dict[str, float]],
    paper: PaperRows | None = None,
    row_label: str = "Dataset",
) -> str:
    """Markdown: measured seconds per method (optionally with paper's row)."""
    header = [row_label] + METHOD_ORDER
    lines = [f"### {title}", ""]
    widths = [max(18, len(h)) for h in header]
    lines.append(_fmt_row(header, widths))
    lines.append(_fmt_row(["---"] * len(header), widths))
    for key, times in rows.items():
        lines.append(
            _fmt_row([key] + [f"{times[m]:.2f}s" for m in METHOD_ORDER], widths)
        )
        if paper and key in paper:
            name, published = paper[key]
            lines.append(
                _fmt_row(
                    [f"  (paper: {name})"]
                    + [f"{published[m]:.2f}s" for m in METHOD_ORDER],
                    widths,
                )
            )
    return "\n".join(lines)


def emit_reduction_table(
    title: str,
    rows: dict[str, dict[str, float]],
    paper: PaperRows | None = None,
    row_label: str = "Dataset",
) -> str:
    """Markdown: % reduction of UA-GPNM vs each comparison method."""
    comps = ["INC-GPNM", "EH-GPNM", "UA-GPNM-NoPar"]
    header = [row_label] + [f"vs {c}" for c in comps]
    widths = [max(18, len(h)) for h in header]
    lines = [f"### {title}", "", _fmt_row(header, widths), _fmt_row(["---"] * len(header), widths)]
    for key, times in rows.items():
        red = reductions(times)
        lines.append(
            _fmt_row([key] + [f"{red[c]:.2f}% less" for c in comps], widths)
        )
        if paper and key in paper:
            name, published = paper[key]
            lines.append(
                _fmt_row(
                    [f"  (paper: {name})"]
                    + [f"{published[c]:.2f}% less" for c in comps],
                    widths,
                )
            )
    return "\n".join(lines)
