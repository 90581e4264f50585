"""Per-figure harnesses: one module per evaluation figure of the paper.

Each module exposes ``run(config) -> FigureResult``; the registry below
maps figure ids to the runners (used by ``python -m repro figures``
and the benchmark suite).
"""

from repro.experiments.figures import (
    degradation,
    fig5_placement,
    fig6_tomo,
    fig7_ndedge,
    fig8_specificity,
    fig9_diag_vs_spec,
    fig10_bgpigp,
    fig11_blocked,
    fig12_lg,
)
from repro.experiments.figures.base import FigureConfig, FigureResult, Series

FIGURES = {
    "5": fig5_placement.run,
    "6": fig6_tomo.run,
    "7": fig7_ndedge.run,
    "8": fig8_specificity.run,
    "9": fig9_diag_vs_spec.run,
    "10": fig10_bgpigp.run,
    "11": fig11_blocked.run,
    "12": fig12_lg.run,
    "degradation": degradation.run,
}


def figure_sort_key(figure_id: str):
    """Numeric figures first in numeric order, named harnesses after."""
    return (0, int(figure_id), "") if figure_id.isdigit() else (1, 0, figure_id)


__all__ = [
    "FIGURES",
    "FigureConfig",
    "FigureResult",
    "Series",
    "figure_sort_key",
    "degradation",
    "fig5_placement",
    "fig6_tomo",
    "fig7_ndedge",
    "fig8_specificity",
    "fig9_diag_vs_spec",
    "fig10_bgpigp",
    "fig11_blocked",
    "fig12_lg",
]
