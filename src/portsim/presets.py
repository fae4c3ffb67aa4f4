"""Bundled reference scenarios.

The Shanghai Yangshan Phase IV case ships in two variants that differ only
in how the baseline energy is split across sectors:

* ``yangshan-phase4`` uses the reconciled split (equipment 50%, transport
  20%, buildings 30%), which reproduces the reference emissions figures
  for this terminal (590,625 kg baseline, 559,125 kg optimized).
* ``yangshan-phase4-stated-shares`` uses the split as stated in the source
  case description (equipment 50%, transport 30%, buildings 20%), which
  yields a 551,250 kg baseline instead. The mismatch between the stated
  split and the reference totals is a known inconsistency in the source
  data; each variant carries a note explaining which side it follows.

Presets are plain scenario dictionaries in the external JSON schema, so
loading one runs the same parsing and checks as a user file.
"""

from __future__ import annotations

from .errors import ValidationError

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Any
    from .scenario import Scenario

_RECONCILIATION_NOTE = (
    "share reconciliation: this variant swaps the stated transport/buildings split "
    "(50/30/20) to 50/20/30 so that sector emissions total the reference figure of "
    "590,625 kg CO2"
)

_STATED_SHARES_NOTE = (
    "share discrepancy: the stated 50/30/20 sector split yields a 551,250 kg CO2 "
    "baseline; the reference total of 590,625 kg corresponds to the swapped 50/20/30 "
    "split (see the yangshan-phase4 preset)"
)


def _yangshan(
    name: str, transport_share: float, buildings_share: float, note: str
) -> dict[str, Any]:
    """A fresh Yangshan Phase IV dictionary, so the presets share nothing."""
    return {
        "name": name,
        "throughput": {"teu_per_year": 6.3e6, "unit_energy": 125.0},
        "shares": {
            "equipment_share": 0.5,
            "transport_share": transport_share,
            "buildings_share": buildings_share,
        },
        "factors": {
            "equipment_factor": 0.5,
            "transport_factor": 0.7,
            "buildings_factor": 1.2,
            "grid_factor": 0.4,
        },
        # 10% of the 787,500 MWh baseline is offset by renewables; 75,000 MWh
        # of that is newly introduced green capacity (the substitution
        # denominator).
        "renewables": {
            "renewable_energy": 78750.0,
            "source": "explicit",
            "new_green_energy": 75000.0,
        },
        "costs": {"baseline_cost_per_teu": 250.0, "optimized_cost_per_teu": 175.0},
        "dispatch_matrix": [
            [420.0, 350.0, 450.0],
            [450.0, 400.0, 280.0],
            [420.0, 360.0, 390.0],
        ],
        "notes": [note],
    }


#: Scenario dictionaries in the external JSON schema, keyed by preset name.
PRESETS: dict[str, dict[str, Any]] = {
    "yangshan-phase4": _yangshan("yangshan-phase4", 0.2, 0.3, _RECONCILIATION_NOTE),
    "yangshan-phase4-stated-shares": _yangshan(
        "yangshan-phase4-stated-shares", 0.3, 0.2, _STATED_SHARES_NOTE
    ),
}

PRESET_SUMMARIES: dict[str, str] = {
    "yangshan-phase4": (
        "Shanghai Yangshan Phase IV reference case "
        "(reconciled 50/20/30 sector split, 3-AGV dispatch matrix)"
    ),
    "yangshan-phase4-stated-shares": (
        "Yangshan Phase IV with the stated 50/30/20 sector split "
        "(carries the share-discrepancy note)"
    ),
}


def preset_names() -> list[str]:
    return sorted(PRESETS)


def get_preset(name: str) -> Scenario:
    """Load a bundled scenario by name, checked like any user file.

    Parsing copies what it keeps into tuples and records, so the result
    shares nothing mutable with :data:`PRESETS`.
    """
    from .scenario import scenario_from_dict
    if name not in PRESETS:
        raise ValidationError(
            "preset", f"unknown preset '{name}' (available: {', '.join(preset_names())})"
        )
    return scenario_from_dict(PRESETS[name])
