"""Heuristic configuration shared by the engine, explanation, and CLI."""

from __future__ import annotations

from dataclasses import dataclass

SECTION_HEURISTICS = ("EQ", "BC", "CH", "LDB", "FULL")
SECTOR_HEURISTICS = ("BC", "CH", "LDB", "FULL")


@dataclass(frozen=True)
class HeuristicConfig:
    section_heuristic: str = "EQ"
    sector_heuristic: str = "BC"

    def __post_init__(self):
        if self.section_heuristic not in SECTION_HEURISTICS:
            raise ValueError(f"unknown section heuristic {self.section_heuristic}")
        if self.sector_heuristic not in SECTOR_HEURISTICS:
            raise ValueError(f"unknown sector heuristic {self.sector_heuristic}")


# CLI flag values -> (section, sector)
HEURISTIC_IDS = {
    "eq-bc": ("EQ", "BC"),
    "eq-ch": ("EQ", "CH"),
    "eq-ldb": ("EQ", "LDB"),
    "ch-ch": ("CH", "CH"),
    "ldb-ldb": ("LDB", "LDB"),
    "bc": ("BC", "BC"),
    "full": ("FULL", "FULL"),
}


def config_from_id(heuristic_id: str) -> HeuristicConfig:
    if heuristic_id not in HEURISTIC_IDS:
        raise ValueError(f"unknown heuristic id {heuristic_id!r}")
    section, sector = HEURISTIC_IDS[heuristic_id]
    return HeuristicConfig(section, sector)
