"""Run statistics with the metric definitions used for comparisons:
counts of distinct nonconstant resultants / discriminants / coefficients
introduced, cells constructed, their dimensions, and the maximal degree
in a polynomial's main variable seen during construction."""

from __future__ import annotations

from .polynomial import MPoly


class RunStats:
    def __init__(self):
        self.cells_constructed = 0
        self.cell_dimensions: list[int] = []
        self.max_main_degree = 0
        # distinct nonconstant projection polynomials by kind
        self.polys: dict[str, set[MPoly]] = {"res": set(), "disc": set(), "coeff": set()}

    @property
    def resultants_computed(self) -> int:
        return len(self.polys["res"])

    @property
    def discriminants_computed(self) -> int:
        return len(self.polys["disc"])

    @property
    def coefficients_computed(self) -> int:
        return len(self.polys["coeff"])

    def saw_poly(self, p: MPoly) -> None:
        if not p.is_constant():
            self.max_main_degree = max(self.max_main_degree, p.degree(p.level))

    def add(self, kind: str, p: MPoly) -> None:
        """Count p as a projection polynomial of kind "res", "disc" or
        "coeff"; constants are not counted."""
        if not p.is_constant():
            self.polys[kind].add(p)
            self.saw_poly(p)

    def add_cell(self, dimension: int) -> None:
        self.cells_constructed += 1
        self.cell_dimensions.append(dimension)

    def lines(self) -> list[str]:
        dims = self.cell_dimensions
        mean_dim = sum(dims) / len(dims) if dims else 0.0
        return [
            f"cells_constructed={self.cells_constructed}",
            f"mean_cell_dimension={mean_dim:.3f}",
            f"max_main_degree={self.max_main_degree}",
            f"resultants_computed={self.resultants_computed}",
            f"discriminants_computed={self.discriminants_computed}",
            f"coefficients_computed={self.coefficients_computed}",
        ]
