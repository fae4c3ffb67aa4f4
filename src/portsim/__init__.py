"""Deterministic energy, emissions, AGV-dispatch and cost simulation for
smart container ports, driven by declarative scenario files."""

# module -> its public names, each imported on first use (PEP 562)
_EXPORTS = {
    "dispatch": ("Assignment", "CostMatrix", "assignment_cost", "brute_force_assignment",
                 "load_cost_matrix", "solve_assignment"),
    "economics": ("CostReport", "cost_report"),
    "emissions": ("EmissionsResult", "baseline_emissions", "carbon_intensity", "emission_reduction",
                  "evaluate_emissions", "optimized_emissions", "substitution_efficiency"),
    "energy": ("EnergyResult", "allocate_sectors", "baseline_energy", "evaluate_energy",
               "optimized_energy"),
    "errors": ("DispatchError", "PortsimError", "ValidationError"),
    "objective": ("ObjectiveScore", "ObjectiveWeights", "score_scenario"),
    "presets": ("PRESETS", "get_preset", "preset_names"),
    "renewables": ("GenerationResult", "annual_generation", "pv_annual_energy", "pv_instant_power",
                   "wind_annual_energy", "wind_instant_power"),
    "report": ("SimulationReport", "report_from_json", "report_to_dict", "run_scenario",
               "serialize_report", "summarize"),
    "scenario": ("CostParameters", "EmissionFactorSet", "PvArraySpec", "RenewableSource",
                 "RenewableSupplySpec", "Scenario", "SectorEnergyBreakdown", "SectorShares",
                 "ThroughputSpec", "WindTurbineSpec", "load_scenario", "scenario_from_dict",
                 "scenario_from_json", "scenario_to_dict", "scenario_to_json", "validate_scenario"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = __import__(_MODULE_OF[name], globals(), None, (name,), 1)
    return globals().setdefault(name, getattr(module, name))  # later reads skip this hook


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
