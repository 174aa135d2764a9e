import pytest

from weyllab.manifolds import PerturbationSpec, make_perturbed_sphere
from weyllab.spectra import surface_spectrum


@pytest.fixture(scope="session", params=[12.0, 40.0],
                ids=["lambda_max=12", "lambda_max=40"])
def perturbed_radial(request):
    """The perturbed sphere (0.01, 0.5, 1.0) with its eigenbasis table.

    78 rows at lambda_max 12 and 820 at lambda_max 40.
    """
    profile = make_perturbed_sphere(PerturbationSpec(0.01, 0.5, 1.0))
    return surface_spectrum(profile, request.param)
