"""One workload instance in a fresh interpreter.

    python3 perfbench/child.py SPEC RESULT [--trace] [--setup-only]

run.py starts this with ``src`` on PYTHONPATH and BLAS pinned to one
thread.  Set-up ends at the first call into a compute module; its
CLOCK_MONOTONIC time goes into RESULT so that run.py can subtract the time
it started the child, and so does the time this process had waited for a
CPU by then.  ``--setup-only`` stops there.  ``--trace`` wraps the package's
public functions (see tracer.py) and writes the spans into RESULT.

The band workloads run the CLI through ``phonogap.cli.main``.  A pass-through
hook on ``band_diagram`` keeps its result for the checker; it records no time.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

import phonogap
import phonogap.cli
from phonogap.errors import PhonogapError
from phonogap.rates import RateModel
from calibrate import cpu_wait_s
from tracer import Tracer, rebind


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def capture_bands(kept: list) -> None:
    """Keep every BandStructure that ``band_diagram`` returns."""
    original = phonogap.elastics.band_diagram

    def keep(*args, **kwargs):
        bands = original(*args, **kwargs)
        kept.append(bands)
        return bands

    rebind(original, keep)


def band_output(kept: list) -> dict | None:
    if not kept:
        return None
    bands = kept[-1]
    out = {"k_points": bands.k_points.tolist(),
           "frequencies_ghz": bands.frequencies_ghz.tolist()}
    if bands.parity_y is not None:
        out["parity_y"] = bands.parity_y.tolist()
        out["parity_z"] = bands.parity_z.tolist()
    return out


def relaxation_chain(spec: dict) -> dict:
    """Rates -> simulated recovery curves -> T1 fits -> exponent ranking,
    then conic and tether fits on imaged contours."""
    system = phonogap.OrbitalSystem(delta_gs_ghz=spec["delta_ghz"])
    curves, selections = [], {}
    for model in spec["models"]:
        rate_model = RateModel(chi_rho=model["chi_rho"],
                               chi_rho_sq=model["chi_rho_sq"])
        rates = [phonogap.total_relaxation(system, rate_model, t_k)
                 for t_k in model["temps_k"]]
        temps, fitted, sigmas = [], [], []
        for rate, noise_seed in zip(rates, model["noise_seeds"]):
            levels = phonogap.LevelSystem(
                gamma_up_mhz=rate.gamma_up_mhz + rate.gamma_raman_mhz,
                gamma_down_mhz=rate.gamma_down_mhz + rate.gamma_raman_mhz)
            curve = {"model": model["name"], "t_k": rate.temperature_k,
                     "gamma_up_mhz": levels.gamma_up_mhz,
                     "gamma_down_mhz": levels.gamma_down_mhz}
            t1 = 1e3 / rate.total_mhz
            try:
                taus, ratios = phonogap.thermalization_curve(
                    levels,
                    np.linspace(2.0, spec["delay_span_t1"] * t1, spec["n_delays"]),
                    noise=spec["ratio_noise"], seed=noise_seed)
                fit = phonogap.fit_recovery(taus, ratios)
            except PhonogapError as err:
                curve["error"] = str(err)
            else:
                curve.update(t1_fit_ns=fit["t1"], t1_err_ns=fit.error_of("t1"))
                temps.append(rate.temperature_k)
                fitted.append(1e3 / fit["t1"])
                sigmas.append(1e3 * fit.error_of("t1") / fit["t1"] ** 2)
            curves.append(curve)
        try:
            ranked = phonogap.select_model(
                phonogap.RateSeries(temps, fitted, sigmas))
            selections[model["name"]] = ranked[0].exponent
        except PhonogapError as err:
            selections[model["name"]] = str(err)

    contours = []
    for cell in spec["cells"]:
        dims: dict = {}
        errors = []
        try:
            ellipse = phonogap.fit_ellipse(cell["block"])
            # The longer semi-axis comes first; unswap by the rotation.
            axes = (ellipse.semi_x, ellipse.semi_y)
            if abs(ellipse.rotation_rad) >= np.pi / 4.0:
                axes = axes[::-1]
            dims.update(w=2.0 * axes[0], h=2.0 * axes[1])
        except PhonogapError as err:
            errors.append(f"ellipse: {err}")
        try:
            dims["r"] = phonogap.fit_circle(cell["fillet"]).radius
        except PhonogapError as err:
            errors.append(f"circle: {err}")
        try:
            dims["t"] = phonogap.fit_tether_width(cell["upper"],
                                                  cell["lower"]).width_nm
        except PhonogapError as err:
            errors.append(f"tether: {err}")
        contours.append({**dims, "error": "; ".join(errors)})
    return {"curves": curves, "selections": selections, "contours": contours}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("spec")
    parser.add_argument("result")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    with open(args.spec, encoding="utf-8") as handle:
        spec = json.load(handle)
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    kept: list = []
    band_workload = "command" in spec
    if band_workload:
        capture_bands(kept)

    result: dict = {"t_first": now(), "wait_first_s": cpu_wait_s()}
    if not args.setup_only:
        if band_workload:
            result["exit_code"] = phonogap.cli.main(spec["argv"])
            result["bands"] = band_output(kept)
        else:
            result["relaxation"] = relaxation_chain(spec)
            result["exit_code"] = 0
        if tracer is not None:
            result["trace"] = tracer.dump()
    with open(args.result, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
