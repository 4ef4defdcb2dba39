"""Workload inputs made from the benchmark seed (standard library only).

The program sees only these values; the seed itself stays in the
benchmark.  The same seed gives the same inputs.
"""

from __future__ import annotations

import math
import random


def full3d_detector(seed: int) -> dict:
    """Azimuth of the detector on the circle of radius pi/2 in the xy-plane."""
    return {"detector_azimuth": random.Random(seed).uniform(0.0, 2.0 * math.pi)}


def routes_cli(seed: int) -> dict:
    """Separation of the retarded scalar-toy detector, in [2, 4], and the
    seed every CLI run is configured with (``RunConfig.seed``)."""
    return {"r_seed": random.Random(seed).uniform(2.0, 4.0), "run_seed": seed}


WORKLOADS = {
    "full3d_detector": full3d_detector,
    "routes_cli": routes_cli,
}
