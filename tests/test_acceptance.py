"""Acceptance battery: every packaged scenario must pass at its pinned
tolerances.  One line per criterion is printed (run pytest with -s to see
them live; they also land in the captured output)."""

import pytest

from weyllab.scenarios import list_scenarios, run_scenario

CRITERIA = [
    ("sphere-sharpness", 5),
    ("product-log-gain", 60),
    ("torus-remainder", 30),
    ("clairaut-crosscheck", 20),
    ("perturbation-derivative", 30),
    ("band-classification", 60),
    ("pendulum-rotation", 60),
    ("radial-solver-oracle", 30),
    ("measure-oracle", 120),
    ("nonperiodic-trend", 60),
    ("localized-weyl-contrast", 900),
    ("kuznecov-structure", 120),
    ("smoothing-consistency", 30),
]


def test_catalog_is_complete():
    assert list_scenarios() == sorted(name for name, _ in CRITERIA)


@pytest.mark.parametrize("name,budget", CRITERIA,
                         ids=[name for name, _ in CRITERIA])
def test_acceptance(name, budget):
    verdict = run_scenario(name)
    status = "PASS" if verdict.passed else "FAIL"
    print(f"\n[{status}] {name} ({verdict.elapsed:.1f}s / budget {budget}s)")
    for claim in verdict.claims:
        mark = "ok " if claim.passed else "BAD"
        print(f"    {mark} {claim.tag} = {claim.measured:.6g} "
              f"[{claim.threshold}]")
    assert verdict.elapsed <= budget, (
        f"{name} exceeded its runtime budget: {verdict.elapsed:.1f}s")
    failed = [c.tag for c in verdict.claims if not c.passed]
    assert verdict.passed, f"{name}: failing claims {failed}"
