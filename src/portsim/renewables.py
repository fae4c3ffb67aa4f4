"""Photovoltaic and wind generation models.

Instantaneous power formulas work in kW, annual yields in kWh; the
aggregate is converted to MWh because that is the unit the energy and
emissions engines run on.
"""

from __future__ import annotations

import math

from ._record import record

TYPE_CHECKING = False
if TYPE_CHECKING:
    from collections.abc import Iterable

    from .scenario import PvArraySpec, WindTurbineSpec

#: Betz limit: the physical upper bound on a turbine's power coefficient.
BETZ_LIMIT = 0.593

#: Calibration defaults for PV arrays where a scenario does not state its
#: own sun hours / performance ratio. Chosen so that an 8.5 MW array yields
#: roughly 8 GWh per year; override per scenario if site data is available.
DEFAULT_SUN_HOURS = 1176.5
DEFAULT_PERFORMANCE_RATIO = 0.8

#: Standard sea-level air density, kg/m3.
STANDARD_AIR_DENSITY = 1.225

#: Mid-range power coefficient for a modern turbine (typical span 0.35-0.45).
DEFAULT_POWER_COEFFICIENT = 0.4


@record
class GenerationResult:
    """Modeled annual renewable output.

    ``total_annual_mwh`` is always ``(pv_annual + wind_annual) / 1000``.
    """

    pv_annual: float  # kWh/yr
    wind_annual: float  # kWh/yr
    total_annual_mwh: float  # MWh/yr


def pv_instant_power(area: float, irradiance: float, efficiency: float) -> float:
    """Instantaneous PV output in kW: panel area (m2) x irradiance (kW/m2) x
    module efficiency."""
    return area * irradiance * efficiency


def pv_annual_energy(peak_power: float, sun_hours: float, performance_ratio: float) -> float:
    """Annual PV yield in kWh: peak power (kW) x effective sun hours (h/yr)
    x performance ratio."""
    return peak_power * sun_hours * performance_ratio


def wind_instant_power(air_density: float, swept_area: float, wind_speed: float, cp: float) -> float:
    """Instantaneous turbine output in kW.

    Computes 0.5 * rho * A * v^3 * cp in watts and converts to kW. The cube
    is written as repeated multiplication so that doubling the wind speed
    scales the result by exactly 8 in floating point.
    """
    watts = 0.5 * air_density * swept_area * (wind_speed * wind_speed * wind_speed) * cp
    return watts / 1000.0


def wind_annual_energy(average_power: float, operating_hours: float) -> float:
    """Annual wind yield in kWh: average power (kW) x operating hours (h/yr)."""
    return average_power * operating_hours


def annual_generation(
    pv_arrays: Iterable["PvArraySpec"],
    wind_turbines: Iterable["WindTurbineSpec"],
) -> GenerationResult:
    """Aggregate the modeled annual output of all PV arrays and turbines."""
    pv = math.fsum(
        pv_annual_energy(a.peak_power, a.sun_hours, a.performance_ratio) for a in pv_arrays
    )
    wind = math.fsum(
        wind_annual_energy(t.average_power, t.operating_hours) for t in wind_turbines
    )
    return GenerationResult(pv_annual=pv, wind_annual=wind, total_annual_mwh=(pv + wind) / 1000.0)
