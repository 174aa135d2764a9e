"""Which scipy subpackages the benchmark pipelines load, in a fresh process.

Runs the near-periodic benchmark's dynamics (classify_tori, the band
estimate at seed 37 with 1,000 samples, a torus estimate) and builds the
spectral benchmark's smoothing kernel, then prints the process's max RSS
and the scipy subpackages it loaded.  Exits 1 if ``scipy.stats`` or
``scipy.integrate`` is among them.  Run as
``PYTHONPATH=src python tests/scipy_footprint.py``.
"""

import math
import resource
import sys

import numpy as np

from weyllab import covers, geoflow, manifolds, weyl

profile = manifolds.make_perturbed_sphere(
    manifolds.PerturbationSpec(0.01, 0.5, 1.0))
geoflow.classify_tori(profile,
                      np.linspace(0.05, manifolds.HALF_PI - 0.05, 50),
                      q_max=50, rational_tol=1e-9, deriv_floor=1e-6)
band = covers.CosphereSet(manifolds.surface_of_revolution(profile),
                          kind="band", s0=1.05, s1=1.45)
covers.near_periodic_measure(band, 1.0, 0.05 ** (-1 / 3), 0.05,
                             samples=1000, seed=37)
torus = covers.CosphereSet(manifolds.flat_torus((2 * math.pi,) * 2))
covers.near_periodic_measure(torus, 1.0, 10.0, 0.01, samples=20000, seed=1)
weyl.build_smoothing_kernel(1.0)

loaded = sorted(name.split(".")[1] for name, module in sys.modules.items()
                if name.startswith("scipy.") and name.count(".") == 1
                and not name.startswith("scipy._")
                and hasattr(module, "__path__"))
rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(f"scipy footprint probe: max RSS {rss_mb:.1f} MB, scipy subpackages "
      f"loaded: {', '.join(loaded) or 'none'}")
sys.exit(1 if {"stats", "integrate"} & set(loaded) else 0)
