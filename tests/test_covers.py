import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.stats import qmc

from weyllab import flows
from weyllab.covers import (
    FAMILY_BUDGET,
    CosphereSet,
    _fiber_draw,
    _halton,
    build_good_cover,
    looping_pair_measure,
    near_periodic_measure,
    recurrence_measure,
    wrap_angle,
)
from weyllab.errors import DomainError, StepFailure
from weyllab.flows import (
    MERIDIAN_C_FLOOR,
    ODE_BUDGET,
    RevolutionFlow,
    RevolutionMetric,
    RoundSphereFlow,
    TorusFlow,
    _dop853_rows,
    _merge_circle_intervals,
    _mirror,
    clairaut_segments,
    meridian_states,
    turning_points,
)
from weyllab.geoflow import (integrate_geodesic, rotation_number,
                             rotation_number_ode)
from weyllab.manifolds import (
    HALF_PI,
    PerturbationSpec,
    ProfileCurve,
    flat_torus,
    make_perturbed_sphere,
    make_round_sphere,
    product,
    round_sphere,
    surface_of_revolution,
)

TWO_PI = 2 * math.pi
TORUS = flat_torus((TWO_PI, TWO_PI))
SPHERE = round_sphere(2)
PERTURBED = surface_of_revolution(make_perturbed_sphere(
    PerturbationSpec(epsilon=0.01, a=0.5, b=1.0)))


# --- phase metric ------------------------------------------------------------

def test_triangle_inequality_on_random_triples():
    rng = np.random.default_rng(0)
    n = 100_000
    metric = RevolutionMetric(make_round_sphere())

    def rand_states():
        s = rng.uniform(-1.4, 1.4, n)
        th = rng.uniform(0, TWO_PI, n)
        psi = rng.uniform(0, TWO_PI, n)
        a = make_round_sphere().alpha(s)
        return np.column_stack([s, th, np.cos(psi), a * np.sin(psi)])

    A, B, C = rand_states(), rand_states(), rand_states()
    dAB = metric.distance(A, B)
    dBC = metric.distance(B, C)
    dAC = metric.distance(A, C)
    assert np.all(dAC <= dAB + dBC + 1e-12)


# --- Halton draws -----------------------------------------------------------

# measure-oracle's repetitions draw at seeds 1000..1099; the near-periodic
# benchmark's torus estimate draws at 1621709875, 234731698, 385346042 and
# 1892783322 (its seeds 1 to 4)
HALTON_SEEDS = [0, 1, 37, 1000, 1099, 2 ** 31 - 1,
                1621709875, 234731698, 385346042, 1892783322]


@pytest.mark.parametrize("seed", HALTON_SEEDS)
def test_halton_matches_scipy_bit_for_bit(seed):
    for d in (1, 3):
        for n in (1, 2, 7, 1000, 1024, 4000, 20_000, 100_000):
            ref = qmc.Halton(d=d, scramble=True, seed=seed).random(n)
            assert np.array_equal(_halton(d, n, seed), ref), (d, n)


def test_halton_columns_are_contiguous():
    u = _halton(3, 4000, 5)
    assert u.shape == (4000, 3)
    assert all(u[:, j].flags.c_contiguous for j in range(3))
    ref = qmc.Halton(d=3, scramble=True, seed=5).random(4000)
    assert u.strides == ref.strides


# --- near-periodic measures --------------------------------------------------

def test_torus_near_periodic_matches_lattice_oracle():
    U = CosphereSet(TORUS, kind="full")
    est = near_periodic_measure(U, 1.0, 10.0, 0.01, samples=50_000, seed=42)
    assert est.brute_force is not None
    assert abs(est.value - est.brute_force) <= 3.0 * est.half_width


def test_round_sphere_near_periodic_is_everything():
    U = CosphereSet(SPHERE, kind="full")
    est = near_periodic_measure(U, 1.0, 7.0, 0.05, samples=2000, seed=1)
    assert est.value == est.total


def test_near_periodic_monotone_in_T_and_R():
    U = CosphereSet(TORUS, kind="full")
    base = near_periodic_measure(U, 1.0, 6.0, 0.01, samples=20_000, seed=7)
    more_T = near_periodic_measure(U, 1.0, 12.0, 0.01, samples=20_000, seed=7)
    more_R = near_periodic_measure(U, 1.0, 6.0, 0.02, samples=20_000, seed=7)
    assert base.value <= more_T.value
    assert base.value <= more_R.value


def test_torus_near_periodic_pinned_values():
    # reference literals for the estimator and the lattice oracle
    U = CosphereSet(TORUS, kind="full")
    est = near_periodic_measure(U, 1.0, 10.0, 0.01, samples=20_000, seed=42)
    assert est.value == 1.7115464727525498
    assert est.brute_force == 1.716173217126785
    assert est.inflation == 0.0


def test_near_periodic_oracle_counts_time_zero():
    # with t = 0 in the window, or a window that starts closer than 2R to
    # it, every orbit returns, and so says the oracle; the same holds for
    # the orbits from x back to x
    U = CosphereSet(TORUS, kind="full")
    for t0, T, R in ((0.0, 5.0, 0.01), (0.01, 10.0, 0.05)):
        est = near_periodic_measure(U, t0, T, R, samples=2000, seed=1)
        assert est.value == est.total
        assert est.brute_force == est.total
    for e in looping_pair_measure(TORUS, (0.0, 0.0), (0.0, 0.0), 0.01, 3.0,
                                  0.05, samples=2000, seed=1)[:2]:
        assert e.value == e.brute_force == e.total


def _bisection_fraction(flow, offsets, t0, T, thresh):
    """The fraction of direction_fraction by bisection, as a reference:
    each target v = offset + k counts the directions within a half-width
    of v found by 60 halvings of [0, pi] on the exact window minimum.
    Every target is skipped at |v| = 0, so t0 >= thresh is required."""
    reach = T + 1.0 + max(math.hypot(*o) for o in offsets)
    lat = flow.lattice(reach)
    centers, half_widths = [], []
    for v in np.vstack([np.asarray(o, dtype=float) + lat for o in offsets]):
        if math.hypot(*v) < 1e-14:
            continue
        phi_v = math.atan2(v[1], v[0])

        def m_of(beta):
            om = np.array([[math.cos(phi_v + beta), math.sin(phi_v + beta)]])
            return float(flow._window_min(om, v[None, None, :], t0, T)[0, 0])

        if m_of(0.0) >= thresh:
            continue
        a, b = 0.0, math.pi
        for _ in range(60):
            mid = 0.5 * (a + b)
            a, b = (mid, b) if m_of(mid) < thresh else (a, mid)
        centers.append(phi_v)
        half_widths.append(0.5 * (a + b))
    return _merge_circle_intervals(np.array(centers), np.array(half_widths))


@pytest.mark.parametrize("offsets, t0, T, thresh", [
    ([(0.0, 0.0)], 1.0, 10.0, 0.02),
    ([(0.0, 0.0)], 1.0, 30.0, 0.02),
    ([(0.0, 0.0)], 1.0, 100.0, 0.002),
    ([(2.0, 0.0), (-2.0, 0.0)], 1.0, 10.0, 0.02),
    ([(0.7, 1.6), (-0.7, -1.6)], 1.0, 10.0, 0.02),
    ([(0.0, 0.0), (0.0, 0.0)], 1.0, 10.0, 0.1),
    # the nearest approach clipped to the window's end and to its start
    ([(0.0, 0.0)], 1.0, TWO_PI - 0.01, 0.02),
    ([(0.99, 0.0), (-0.99, 0.0)], 1.0, 10.0, 0.02),
], ids=["benchmark", "T-30", "T-100", "looping-2-0", "looping-0.7-1.6",
        "x-equals-y", "approach-past-T", "approach-before-t0"])
def test_closed_form_oracle_matches_bisection(offsets, t0, T, thresh):
    flow = TorusFlow(TORUS.periods)
    exact = flow.direction_fraction(offsets, t0, T, thresh)
    assert 0.0 < exact < 1.0
    assert exact == pytest.approx(
        _bisection_fraction(flow, offsets, t0, T, thresh), rel=1e-12, abs=0)


def test_torus_return_hits_skip_lattice_vectors_out_of_reach():
    # at T = 10 only the 9 vectors shorter than T + 1 of the 25 in the box
    # are tried; the hits are those of the minimum over the whole box
    flow = TorusFlow(TORUS.periods)
    lat = flow.lattice(11.0)
    assert (len(lat), int(np.sum(np.linalg.norm(lat, axis=1) < 11.0))) \
        == (25, 9)
    states = CosphereSet(TORUS, kind="full").sample(100_000, 1000)
    hits, inflation = flow.return_hits(states, 1.0, 10.0, 0.02)
    omega = states[:, 2:]
    box = np.broadcast_to(lat[None], (len(omega),) + lat.shape)
    box_min = flow._window_min(omega, box, 1.0, 10.0).min(axis=1)
    assert inflation == 0.0
    assert np.array_equal(hits, box_min < 0.02)


def test_torus_return_hits_are_exact_past_a_unit_threshold():
    # at thresh 1.2 and t0 = 2 the orbit along (1, 0) comes within 1.08 of
    # the lattice vector (2 pi, 0) at t = 5.2, a vector longer than T + 1
    flow = TorusFlow(TORUS.periods)
    states = np.vstack([[[0.0, 0.0, 1.0, 0.0]],
                        CosphereSet(TORUS, kind="full").sample(2000, 7)])
    hits, _ = flow.return_hits(states, 2.0, 5.2, 1.2)
    lat = flow.lattice(20.0)
    box = np.broadcast_to(lat[None], (len(states),) + lat.shape)
    box_min = flow._window_min(states[:, 2:], box, 2.0, 5.2).min(axis=1)
    assert hits[0]
    assert np.array_equal(hits, box_min < 1.2)


def test_near_periodic_requires_samples():
    with pytest.raises(DomainError):
        near_periodic_measure(CosphereSet(TORUS), 1.0, 5.0, 0.01, samples=10)


def test_perturbed_band_short_window_is_empty():
    spec = PerturbationSpec(epsilon=0.01, a=0.5, b=1.0)
    m = surface_of_revolution(make_perturbed_sphere(spec))
    U = CosphereSet(m, kind="band", s0=1.05, s1=1.45)
    est = near_periodic_measure(U, 1.0, 5.0, 0.02, samples=2000, seed=3)
    assert est.value == 0.0


def test_perturbed_band_is_decided_before_integration(monkeypatch):
    # every horizon R^(-1/3) of the band is shorter than one radial period,
    # so the radial certificate clears all 997 regular rows, the 6 whose
    # slab ends just inside a turning point by their sojourn around it;
    # nothing reaches scan_min or refine_min at any of the four radii, and
    # the inflation is the meridian closed form's half step plus its
    # position error
    scanned = []
    scan_min = RevolutionFlow.scan_min

    def spy(self, states, *args):
        scanned.append(len(states))
        return scan_min(self, states, *args)

    monkeypatch.setattr(RevolutionFlow, "scan_min", spy)
    U = CosphereSet(PERTURBED, kind="band", s0=1.05, s1=1.45)
    states = U.sample(1000, 37)
    cleared = RevolutionFlow(PERTURBED.profile).radial_clears(
        states, 1.0, 0.05 ** (-1.0 / 3.0), 0.1)
    regular = np.abs(states[:, 3]) >= MERIDIAN_C_FLOOR
    assert (cleared.sum(), regular.sum()) == (997, 997)
    inflations = []
    for R in (0.05, 0.02, 0.01, 0.005):
        est = near_periodic_measure(U, 1.0, R ** (-1.0 / 3.0), R,
                                    samples=1000, seed=37)
        assert est.value == 0.0
        assert est.inflation == 0.5 * 2.0 * R / 4.0 + MERIDIAN_C_FLOOR
        inflations.append(est.inflation)
    assert inflations[0] == 0.0145
    assert scanned == []


def test_perturbed_band_refines_candidates(monkeypatch):
    # from t0 = 0.1 no slab is left in time, so the certificate decides
    # nothing; candidates of the coarse scan go through refine_min, whose
    # grid slack R / 2 plus the 1e-6 integration budget is the inflation.
    # t0 equals thresh, so every orbit is still within thresh of its start
    # at t0 (less the chord), and the scan, which samples t0 itself,
    # clears no row: all 997 regular rows, forward and mirrored, are
    # refined, and most of them hit at t0
    refined = []
    refine_min = RevolutionFlow.refine_min

    def spy(self, dense, rows, *args):
        refined.append(len(rows))
        return refine_min(self, dense, rows, *args)

    monkeypatch.setattr(RevolutionFlow, "refine_min", spy)
    U = CosphereSet(PERTURBED, kind="band", s0=1.05, s1=1.45)
    est = near_periodic_measure(U, 0.1, 2.71, 0.05, samples=1000, seed=37)
    assert refined == [1994]
    assert est.value == 0.865592294303322
    assert est.inflation == 0.025001000000000006


def test_scan_slack_bounds_the_window_from_its_start():
    # the band rows whose slab [s0 - 0.1, s0 + 0.1] ends within 2e-3 inside
    # a turning point (6 of the 7 are those the slab bound alone leaves
    # undecided at R = 0.05): over [1, 2.71] their distance is least near
    # t0 = 1, between two scan samples, and the scan's min less its slack
    # stays below the DOP853 minimum (rtol 1e-12; on a grid of step h at
    # base speed <= 1, the minimum is at least the grid's less h / 2)
    t0, T, thresh = 1.0, 0.05 ** (-1.0 / 3.0), 0.1
    flow = RevolutionFlow(PERTURBED.profile)
    states = CosphereSet(PERTURBED, kind="band", s0=1.05,
                         s1=1.45).sample(1000, 37)
    states = states[np.abs(states[:, 3]) >= MERIDIAN_C_FLOOR]
    s_lo, s_hi = turning_points(flow.profile, np.abs(states[:, 3]))
    edge = np.minimum(s_hi - states[:, 0], states[:, 0] - s_lo) - thresh
    rows = states[(edge > 0) & (edge < 2e-3)]
    assert len(rows) == 7
    both = np.vstack([rows, _mirror(rows)])
    coarse, slack, _ = flow.scan_min(both, t0, T,
                                     _base_distance(flow.metric))
    mins = np.minimum(coarse[:7], coarse[7:])
    dense = _dop853_rows(flow._rhs, both, T, rtol=1e-12, atol=1e-12)
    grid, h = np.append(np.arange(t0, T, 1e-4), T), 1e-4
    ref = np.array([np.min(flow.metric.base_distance_from(row)(
        dense(i, grid))) for i, row in enumerate(both)]) - 0.5 * h
    assert np.all(mins - slack <= np.minimum(ref[:7], ref[7:]))


# R = 0.05 at (1, 6.5), and R = 0.005 at (1, 14.6), both past the radial
# period, where the certificate leaves the band rows to the scan
@pytest.mark.parametrize("t0, T, R", [(1.0, 6.5, 0.05), (1.0, 14.6, 0.005)],
                         ids=["R0.05-T6.5", "R0.005-T14.6"])
def test_no_scan_cleared_row_returns(t0, T, R):
    # the scan may clear a row only when it stays 2R away, so for every
    # regular row its coarse minimum less its slack must stay below the
    # row's DOP853 minimum in both time directions (rtol 1e-12, on a grid
    # of step 2e-3 at base speed <= 1, less half a step); every row it
    # clears then stays 2R away
    U = CosphereSet(PERTURBED, kind="band", s0=1.05, s1=1.45)
    states = U.sample(1000, 37)
    flow = RevolutionFlow(PERTURBED.profile)
    thresh = 2.0 * R
    rest = np.nonzero(~flow.radial_clears(states, t0, T, thresh))[0]
    reg = rest[np.abs(states[rest, 3]) >= MERIDIAN_C_FLOOR]
    both = np.vstack([states[reg], _mirror(states[reg])])
    coarse, slack, _ = flow.scan_min(both, t0, T,
                                     _base_distance(flow.metric))
    dense = _dop853_rows(flow._rhs, both, T, rtol=1e-12, atol=1e-12)
    grid, h = np.append(np.arange(t0, T, 2e-3), T), 2e-3
    ref = np.array([np.min(flow.metric.base_distance_from(row)(
        dense(i, grid))) for i, row in enumerate(both)]) - 0.5 * h
    n = len(reg)
    assert n == 997
    assert np.all(coarse - slack <= ref)
    cleared = np.minimum(coarse[:n], coarse[n:]) - slack > thresh
    assert np.all(np.minimum(ref[:n], ref[n:])[cleared] > thresh)


def test_perturbed_conormals_return_through_the_meridian_form():
    # conormals of a latitude are meridian data: closed form, closing
    # within the window T = 7 > 2 pi
    # the rows the conormal set of s = 0.4 drew at seed 2
    u = qmc.Halton(d=2, scramble=True, seed=2).random(1000)
    rows = np.column_stack([np.full(1000, 0.4), TWO_PI * u[:, 0],
                            np.where(u[:, 1] < 0.5, 1.0, -1.0),
                            np.zeros(1000)])
    hits, inflation = RevolutionFlow(PERTURBED.profile).return_hits(
        rows, 1.0, 7.0, 0.1)
    assert hits.all()
    assert inflation == 0.0145


# --- looping pairs -----------------------------------------------------------

def test_torus_looping_pinned_values():
    e1, e2, prod = looping_pair_measure(TORUS, (0.3, 0.4), (1.0, 2.0),
                                        1.0, 10.0, 0.01, samples=5000,
                                        seed=5)
    assert (e1.value, e2.value) == (0.12063715789784804, 0.12315043202071989)
    assert e1.brute_force == e2.brute_force == 0.12652729557414974
    assert prod == 1.4856518112871786


def test_torus_looping_matches_lattice_oracle():
    e1, e2, prod = looping_pair_measure(TORUS, (0.3, 0.4), (0.3, 0.4),
                                        1.0, 10.0, 1e-3,
                                        samples=30_000, seed=5)
    assert abs(e1.value - e1.brute_force) <= 3.0 * e1.half_width
    assert prod == pytest.approx(e1.value * e2.value * 100.0)


def test_round_sphere_self_looping_is_full():
    e1, _, _ = looping_pair_measure(SPHERE, (0.3, 0.2), (0.3, 0.2),
                                    1.0, 7.0, 0.05, samples=2000, seed=2)
    assert e1.value == e1.total


def test_pole_pair_looping_scales_linearly():
    spec = PerturbationSpec(epsilon=0.01, a=0.5, b=1.0)
    m = surface_of_revolution(make_perturbed_sphere(spec))
    pole = (math.pi / 2 - 1e-6, 0.0)
    vals = {}
    for R in (0.04, 0.02):
        e1, _, _ = looping_pair_measure(m, (0.3, 0.0), pole, 1.0, 7.0, R,
                                        samples=2000, seed=3)
        vals[R] = e1.value
    # estimate <= C R with a stable constant under halving
    assert vals[0.02] / 0.02 <= 2.0 * (vals[0.04] / 0.04) + 1.0


def test_perturbed_offpole_looping_refines_ambiguous_samples():
    # inflation thresh / 4 + 1e-6 shows the ambiguous samples were refined
    e1, e2, prod = looping_pair_measure(PERTURBED, (0.3, 0.0), (-0.2, 1.0),
                                        1.0, 3.0, 0.05, samples=1000, seed=4)
    assert (e1.value, e2.value) == (0.4649557127312894, 0.4398229715025711)
    assert e1.inflation == e2.inflation == 0.025001000000000002
    assert prod == 1.8404838287151435


def test_perturbed_offpole_looping_hits_reach_the_target(monkeypatch):
    # every regular sample that target_hits counts as a hit passes within
    # 2R of its target in a DOP853 reference (rtol 1e-12, on a grid of step
    # 1e-3 at base speed <= 1, allowing half a step), in one time direction
    # or the other; near-meridian hits are the closed form's, whose
    # position error the inflation reports
    calls = []
    target_hits = RevolutionFlow.target_hits

    def spy(self, states, y_point, t0, T, thresh):
        hits, inflation = target_hits(self, states, y_point, t0, T, thresh)
        calls.append((states, y_point, t0, T, thresh, hits))
        return hits, inflation

    monkeypatch.setattr(RevolutionFlow, "target_hits", spy)
    e1, e2, _ = looping_pair_measure(PERTURBED, (0.3, 0.0), (-0.2, 1.0),
                                     1.0, 10.0, 0.05, samples=1000, seed=4)
    assert (e1.value, e2.value) == (0.6785840131753953, 0.7037167544041136)
    flow = RevolutionFlow(PERTURBED.profile)
    for states, y_point, t0, T, thresh, hits in calls:
        rows = states[hits & (np.abs(states[:, 3]) >= MERIDIAN_C_FLOOR)]
        both = np.vstack([rows, _mirror(rows)])
        dense = _dop853_rows(flow._rhs, both, T, rtol=1e-12, atol=1e-12)
        grid, h = np.append(np.arange(t0, T, 1e-3), T), 1e-3
        to_point = flow.metric.base_distance_from(y_point)
        ref = np.array([np.min(to_point(dense(i, grid)))
                        for i in range(len(both))])
        n = len(rows)
        assert np.all(np.minimum(ref[:n], ref[n:]) - 0.5 * h < thresh)


@pytest.mark.parametrize("case", ["band-past-a-period", "looping-fiber",
                                  "band-certified", "meridians", "blocks"])
def test_one_integration_per_hit_test(monkeypatch, case):
    # the regular rows and their mirrors are integrated once, in one
    # DOP853 pass that both the scan and the refinement sample; with no
    # regular row left nothing is integrated, and past _PASS_ROWS regular
    # rows each block of them gets its own pass, with the same hits
    passes = []
    dop853_rows = flows._dop853_rows

    def counted(rhs, y0, *args, **kwargs):
        passes.append(len(y0))
        return dop853_rows(rhs, y0, *args, **kwargs)

    monkeypatch.setattr(flows, "_dop853_rows", counted)
    flow = RevolutionFlow(PERTURBED.profile)
    band = CosphereSet(PERTURBED, kind="band", s0=1.05,
                       s1=1.45).sample(200, 37)
    regular = int(np.sum(np.abs(band[:, 3]) >= MERIDIAN_C_FLOOR))
    if case == "band-past-a-period":
        flow.return_hits(band, 1.0, 6.5, 0.1)
        assert passes == [2 * regular]
    elif case == "looping-fiber":
        fiber = _fiber_draw(PERTURBED, (0.3, 0.0), 200, 4)[1]
        regular = int(np.sum(np.abs(fiber[:, 3]) >= MERIDIAN_C_FLOOR))
        flow.target_hits(fiber, np.array([-0.2, 1.0]), 1.0, 10.0, 0.1)
        assert passes == [2 * regular]
    elif case == "blocks":
        whole = flow.return_hits(band, 1.0, 6.5, 0.1)
        monkeypatch.setattr(flows, "_PASS_ROWS", 64)
        passes.clear()
        blocked = flow.return_hits(band, 1.0, 6.5, 0.1)
        assert passes == [2 * min(64, regular - k)
                          for k in range(0, regular, 64)]
        assert np.array_equal(blocked[0], whole[0])
        assert blocked[1] == whole[1]
    elif case == "band-certified":
        flow.return_hits(band, 1.0, 0.05 ** (-1.0 / 3.0), 0.1)
        assert passes == []
    else:
        rows = np.column_stack([np.full(8, 0.4), np.linspace(0, 6, 8),
                                np.ones(8), np.zeros(8)])
        flow.return_hits(rows, 1.0, 7.0, 0.1)
        flow.target_hits(rows, np.array([-0.2, 1.0]), 1.0, 7.0, 0.1)
        assert passes == []


# --- the flow interface ------------------------------------------------------

def test_round_sphere_window_times():
    # the ends of the window, then the closures 2 pi k inside it
    times = RoundSphereFlow.window_times
    assert times(1.0, 6.0) == [1.0, 6.0]
    assert times(1.0, 13.0) == [1.0, 13.0, TWO_PI, 2 * TWO_PI]
    assert times(TWO_PI, 7.0) == [TWO_PI, 7.0, TWO_PI]
    assert times(0.0, 1.0) == times(-2.0, 1.0) == [0.0, 1.0, 0.0]


def test_round_sphere_self_return_min_sits_at_the_window_ends():
    # without a closure in the window the minimum is at one of its ends,
    # as a scan of 2,001 times shows; with one it is 0
    flow = RoundSphereFlow(make_round_sphere())
    states = CosphereSet(SPHERE, kind="full").sample(300, 3)
    scan = np.min([flow.metric.distance(flow.flow(states, t), states)
                   for t in np.linspace(1.0, 6.0, 2001)
                   for t in (t, -t)], axis=0)
    assert np.allclose(flow.self_return_min(states, 1.0, 6.0), scan,
                       rtol=0, atol=1e-14)
    assert not flow.self_return_min(states, 1.0, 7.0).any()


def test_closed_form_hits_are_exact_minima():
    flow = RoundSphereFlow(make_round_sphere())
    _, states = _fiber_draw(SPHERE, (0.3, 0.2), 500, 1)
    hits, inflation = flow.target_hits(states, (-0.5, 1.0), 1.0, 7.0, 0.1)
    mins = flow.target_min(states, (-0.5, 1.0), 1.0, 7.0)
    assert inflation == 0.0
    assert np.array_equal(hits, mins < 0.1)


def _moved(profile, states, t):
    """Chart rows moved by time t != 0 in one batched DOP853 pass at the
    tolerance of integrate_geodesic; a negative time flows the mirrored rows
    forward and mirrors them back."""
    start = states if t > 0 else _mirror(states)
    dense = _dop853_rows(RevolutionFlow(profile)._rhs, start, abs(t),
                         rtol=1e-10, atol=1e-10)
    end = np.array([dense(i, np.array([abs(t)]))[0]
                    for i in range(len(states))])
    return end if t > 0 else _mirror(end)


def _geodesic_at(profile, row, t):
    """integrate_geodesic of one row at time t, mirrored as in _moved."""
    start = row if t > 0 else _mirror(row[None])[0]
    end = integrate_geodesic(start, abs(t), profile)(abs(t))
    return end if t > 0 else _mirror(end[None])[0]


def test_revolution_flow_matches_great_circles():
    rng = np.random.default_rng(3)
    s = rng.uniform(-1.0, 1.0, 20)
    psi = rng.uniform(0.0, TWO_PI, 20)
    states = np.column_stack([s, rng.uniform(0.0, TWO_PI, 20), np.cos(psi),
                              np.cos(s) * np.sin(psi)])
    exact = RoundSphereFlow(make_round_sphere())
    for t in (0.013, -0.7, 1.9):
        d = exact.metric.distance(_moved(make_round_sphere(), states, t),
                                  exact.flow(states, t))
        # DOP853 at rtol = atol = 1e-10 in the (s, theta) chart, away from
        # the poles; the arccos in the metric floors d near 2e-8
        assert np.max(d) < 1e-7


@pytest.mark.parametrize("t", [3.0, -3.0])
def test_revolution_flow_matches_a_tight_dop853_reference(t):
    # from the equator; the c = 1e-5 row passes within 1e-5 of a pole,
    # where theta turns by nearly pi in a few 1e-5 time units
    profile = PERTURBED.profile
    flow = RevolutionFlow(profile)
    c = np.array([1e-5, 2e-3, 0.05, 0.5])
    a0 = float(profile.alpha(0.0))
    states = np.column_stack([np.zeros_like(c), np.full_like(c, 0.5),
                              np.sqrt(1.0 - (c / a0) ** 2), c])
    for row in states:
        y = _geodesic_at(profile, row, t)
        ref = solve_ivp(lambda _, y: flow._rhs(y[None, :])[0], (0.0, t), row,
                        method="DOP853", rtol=1e-13, atol=1e-13).y[:, -1]
        err = np.abs(y - ref)
        err[1] = wrap_angle(y[1] - ref[1])
        assert np.max(err) < 1e-8


def _return_distance(metric):
    return lambda y, ref: metric.distance(y, np.broadcast_to(ref, y.shape))


def _base_distance(metric):
    return lambda y, ref: metric.base_distance_from(ref)(y)


def test_batched_refinement_matches_a_tight_dop853_reference():
    # Clairaut constants from near-meridian to well inside the band; each
    # row, forward and mirrored, in one call, against scalar DOP853 at
    # rtol = atol = 1e-13 over the same grid
    profile = PERTURBED.profile
    flow = RevolutionFlow(profile)
    dist = _return_distance(flow.metric)
    c = np.array([2e-3, 5e-3, 1e-2, 3e-2, 0.1])
    s0 = 1.2
    a0 = float(profile.alpha(s0))
    fwd = np.column_stack([np.full_like(c, s0), np.full_like(c, 0.5),
                           np.sqrt(1.0 - (c / a0) ** 2), c])
    rows = np.vstack([fwd, _mirror(fwd)])
    t0, T, res = 1.0, 5.85, 2e-3
    _, _, dense = flow.scan_min(rows, t0, T, dist)
    got = flow.refine_min(dense, np.arange(len(rows)), rows, t0, T, dist,
                          np.full(len(rows), res))
    # all rows at once, as the scan samples them, give each row's own states
    # bit for bit
    grid = np.linspace(t0, T, 50)
    together = dense(np.arange(len(rows))[:, None], grid)
    for i in range(len(rows)):
        assert np.array_equal(together[i], dense(i, grid))
    t = np.arange(max(t0, res), T, res)
    for row, value in zip(rows, got):
        sol = solve_ivp(lambda _, y: flow._rhs(y[None, :])[0], (0.0, T), row,
                        method="DOP853", dense_output=True,
                        rtol=1e-13, atol=1e-13)
        ref = float(np.min(dist(sol.sol(t).T, row)))
        assert abs(value - ref) <= ODE_BUDGET


def test_batched_dop853_raises_on_blow_up():
    # y' = y^2, y(0) = 1 blows up at t = 1: the step collapses before T
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(StepFailure, match=r"t = 1\.0000000000"):
            _dop853_rows(lambda y: y * y, np.ones((2, 1)), 2.0,
                         rtol=1e-10, atol=1e-10)
        # a state the right-hand side cannot evaluate fails, never spins
        with pytest.raises(StepFailure):
            _dop853_rows(lambda y: y * np.nan, np.ones((1, 1)), 1.0,
                         rtol=1e-10, atol=1e-10)


def test_exact_meridian_rows_turn_at_the_pole():
    # s runs from 1.4 through the north pole at t = pi/2 - 1.4 and comes
    # down the opposite meridian: theta jumps by pi, xi_s flips
    profile = PERTURBED.profile
    metric = RevolutionMetric(profile)
    start = np.array([[1.4, 0.0, 1.0, 0.0]])
    # unit chart rows at s = 0.3, heading either way
    c = np.array([0.5, 0.2, -0.3])
    chart = np.column_stack([np.full(3, 0.3), np.full(3, 1.0),
                             np.sqrt(1.0 - (c / profile.alpha(0.3)) ** 2)
                             * [1.0, -1.0, 1.0], c])
    for t in (0.5, -2.5):
        got = _geodesic_at(profile, start[0], t)
        ref = meridian_states(start, t)
        assert ref[0, 1] == pytest.approx(math.pi if t > 0 else 0.0)
        assert metric.distance(got[None], ref)[0] < 1e-9
        # the chart rows batched give each row alone, bit for bit
        for row, y in zip(chart, _moved(profile, chart, t)):
            assert np.array_equal(y, _geodesic_at(profile, row, t))
    assert np.allclose(meridian_states(start, 0.5),
                       [[math.pi - 1.9, math.pi, -1.0, 0.0]])


# --- radial certificate -------------------------------------------------------

def _flat_equator_profile(a=-0.30343):
    """alpha = cos s + a cos^3 s: unimodal, much flatter at the equator.

    Near-equatorial orbits advance theta by about 4 pi per half radial
    period, so they come back to their start on the opposite leg, with
    a small fiber gap; on the spheres that leg stays far away.
    """
    def jet(s, order):
        cs, ss = np.cos(s), np.sin(s)
        return (cs + a * cs ** 3,
                -ss * (1.0 + 3.0 * a * cs ** 2),
                -cs - 3.0 * a * (cs ** 3 - 2.0 * cs * ss ** 2))[:order + 1]

    return ProfileCurve(jet, "flat equator", s_max=0.0, alpha_max=1.0 + a)


def _rows_at(flow, c, s0):
    """Rows with Clairaut constant c at the radii s0, heading either way."""
    xi_s = np.sqrt(np.maximum(1.0 - (c / flow.profile.alpha(s0)) ** 2, 0.0))
    return np.vstack([np.column_stack([s0, np.zeros_like(s0), sign * xi_s,
                                       np.full_like(s0, c)])
                      for sign in (1.0, -1.0)])


def _rows_of_constant(flow, c):
    """Rows with Clairaut constant c across [s_-, s_+], crowding both turning
    points, heading either way: (rows, tau(c))."""
    s_lo, s_hi = (float(x[0]) for x in turning_points(flow.profile, [c]))
    near = np.geomspace(1e-6, 0.3, 4) * (s_hi - s_lo)
    s0 = np.concatenate([np.linspace(s_lo, s_hi, 11), s_hi - near,
                         s_lo + near])
    return (_rows_at(flow, c, s0),
            rotation_number(s_hi, flow.profile).return_time)


def _speed_bound(flow, rows):
    """Rate bound of t -> d(phi_t rho, rho) in the phase metric, per row.

    The round-chart base speed is at most max(1, cos s / alpha(s)); the
    fiber angle turns at c |alpha'| / alpha^2 <= max|alpha'| / c.
    """
    s = np.linspace(-HALF_PI, HALF_PI, 4097)[1:-1]
    base = max(1.0, float(np.max(np.cos(s) / flow.profile.alpha(s))))
    return np.maximum(base, flow.phase_speed_bound(rows, cap=np.inf))


def _stays_away(flow, rows, cases, h=2e-4):
    """Whether each row's phase distance from its start stays >= thresh.

    ``cases[i]`` lists (thresh, (t0, T)) of row i.  Both time directions,
    by DOP853 at rtol = atol = 1e-13, sampled on a grid of step h that
    holds every window end.  Between samples a, b the distance is at least
    (d_a + d_b - L (b - a)) / 2, with L from :func:`_speed_bound`; an
    interval whose bound is below thresh is bisected until it clears.  A
    case is False when a sample comes within thresh or 30 bisections leave
    an interval undecided.
    """
    both = np.vstack([rows, _mirror(rows)])
    speed = _speed_bound(flow, both)
    ends = sorted({t for case in cases for _, w in case for t in w})
    grid = np.union1d(np.arange(ends[0], ends[-1], h), ends)
    dense = _dop853_rows(flow._rhs, both, ends[-1], rtol=1e-13, atol=1e-13)
    n = len(rows)
    out = [[True] * len(case) for case in cases]
    for i in range(2 * n):

        def dist(t):
            return flow.metric.distance(
                dense(i, t), np.broadcast_to(both[i], (len(t), 4)))

        d_grid = dist(grid)
        for j, (thresh, (t0, T)) in enumerate(cases[i % n]):
            k = slice(np.searchsorted(grid, t0), np.searchsorted(grid, T) + 1)
            a, b = grid[k][:-1], grid[k][1:]
            da, db = d_grid[k][:-1], d_grid[k][1:]
            ok = False
            for _ in range(30):
                if min(da.min(initial=np.inf), db.min(initial=np.inf)) \
                        < thresh:
                    break
                live = da + db - speed[i] * (b - a) < 2.0 * thresh
                if not live.any():
                    ok = True
                    break
                a, b, da, db = a[live], b[live], da[live], db[live]
                mid = 0.5 * (a + b)
                d_mid = dist(mid)
                a, b = np.concatenate([a, mid]), np.concatenate([mid, b])
                da = np.concatenate([da, d_mid])
                db = np.concatenate([d_mid, db])
            out[i % n][j] = out[i % n][j] and ok
    return out


@pytest.mark.parametrize("profile, constants, thresholds, windows, edges", [
    # the band's constants; windows end 3, 1.5 and 0.5 thresholds short of
    # tau(c), starting 1.5 and 3 thresholds in; from t0 = 1.1 a window 0.3
    # short of tau, and one that ends 1.2 short of 2 (s_+ - s_-), which the
    # length bound tau >= 2 (s_+ - s_-) alone decides
    (PERTURBED.profile, (2e-3, 5e-3, 1e-2, 3e-2, 0.1, 0.3),
     (2e-3, 0.02, 0.2),
     lambda tau, width, th: [(1.5 * th, tau - 3.0 * th),
                             (3.0 * th, tau - 1.5 * th),
                             (3.0 * th, tau - 0.5 * th),
                             (1.1, tau - 0.3),
                             (1.1, 2.0 * width - 1.2)], True),
    # near-equatorial orbits, where the opposite leg returns (s_+ = 0.025
    # and 0.06); windows past the opposite crossing, tau ~ 17
    (_flat_equator_profile(), (0.025, 0.06), (0.02, 0.05),
     lambda tau, width, th: [(1.0, 0.75 * tau), (4.5, 0.75 * tau)], False),
], ids=["perturbed-sphere", "flat-equator"])
def test_radial_certificate_is_sound(profile, constants, thresholds,
                                     windows, edges):
    flow = RevolutionFlow(profile)
    if profile.label == "flat equator":
        # the constants are given by their right turning points
        constants = [float(profile.alpha(s)) for s in constants]
    rows, cases, cleared, by_length, by_tau = [], [], [], [], []
    for c in constants:
        r, tau = _rows_of_constant(flow, c)
        s_lo, s_hi = (float(x[0]) for x in turning_points(profile, [c]))
        case = [(th, w) for th in thresholds
                for w in windows(tau, s_hi - s_lo, th)]
        for th in thresholds if edges else ():
            # slabs ending 1e-3 thresholds inside a turning point: the slab
            # bound is loose there, and the sojourn around the turning
            # point decides them
            e = _rows_at(flow, c, np.array([s_hi - 1.001 * th,
                                            s_lo + 1.001 * th]))
            *_, tau_window, length_window = windows(tau, s_hi - s_lo, th)
            by_tau.append(flow.radial_clears(e, *tau_window, th))
            by_length.append(flow.radial_clears(e, *length_window, th))
            r = np.vstack([r, e])
        rows.append(r)
        cases += [case] * len(r)
        cleared.append(np.column_stack([
            flow.radial_clears(r, w[0], w[1], th) for th, w in case]))
    rows, cleared = np.vstack(rows), np.vstack(cleared)
    assert 0 < cleared.sum() < cleared.size
    if edges:
        # every edge row clears at its own threshold in the length window,
        # and some clear against tau
        assert np.all(by_length) and 0 < np.sum(by_tau) < np.size(by_tau)
    keep = np.nonzero(cleared.any(axis=1))[0]
    checked = [[case for case, ok in zip(cases[i], cleared[i]) if ok]
               for i in keep]
    away = _stays_away(flow, rows[keep], checked)
    for i, row_cases, row_away in zip(keep, checked, away):
        bad = [case for case, ok in zip(row_cases, row_away) if not ok]
        assert not bad, (rows[i], bad)


def test_radial_certificate_is_sound_on_an_opposite_leg_return():
    # Near-equatorial orbits of the flat-equator profile (s_+ = 0.05) at
    # thresh 0.03, from edge rows 0.4645 thresholds inside each turning
    # point.  Heading away from it, such a row passes its start on the
    # opposite leg at |t| = tau - 2 t(s0 -> s_+) = 13.13, its azimuth back
    # to within 1e-3 and its fiber gap 0.84 thresholds.  Its sojourn,
    # t(s0 -> s_+) + t(s0 - thresh -> s_+) = 2.11 + 4.00, leaves it
    # undecided from t0 = 4.5; the far leg alone would clear it in
    # (4.5, 13.25)
    profile = _flat_equator_profile()
    flow = RevolutionFlow(profile)
    thresh, window = 0.03, (4.5, 13.25)
    c = float(profile.alpha(0.05))
    s_lo, s_hi = (float(x[0]) for x in turning_points(profile, [c]))
    rows = _rows_at(flow, c, np.array([s_hi - 0.4645 * thresh,
                                       s_lo + 0.4645 * thresh]))
    away = np.array(_stays_away(flow, rows, [[(thresh, window)]] * len(rows)))
    cleared = flow.radial_clears(rows, *window, thresh)
    assert not away.all()
    assert not np.any(cleared & ~away[:, 0])


def test_radial_certificate_clears_nothing_past_one_period():
    flow = RevolutionFlow(PERTURBED.profile)
    for c in (2e-3, 0.1, 0.3):
        rows, tau = _rows_of_constant(flow, c)
        for thresh in (2e-3, 0.2):
            assert flow.radial_clears(rows, 1.0, 6.0, thresh).any()
            assert not flow.radial_clears(rows, 1.0, tau, thresh).any()
    # every band orbit has tau(c) < 6.3; and from t0 = 0 every orbit is
    # still at its start
    states = CosphereSet(PERTURBED, kind="band", s0=1.05,
                         s1=1.45).sample(1000, 37)
    assert not flow.radial_clears(states, 1.0, 6.3, 0.002).any()
    assert not flow.radial_clears(states, 0.0, 2.0, 0.01).any()


@pytest.mark.parametrize("c", [2e-3, 3e-2, 0.3, 0.9])
def test_radial_certificate_period_is_the_clairaut_return_time(c):
    profile = PERTURBED.profile
    s_lo, s_hi = (float(x[0]) for x in turning_points(profile, [c]))
    # each root is the bracket end with alpha <= c, the next float inward
    # has alpha > c
    assert profile.alpha(s_lo) <= c < profile.alpha(np.nextafter(s_lo, 1))
    assert profile.alpha(s_hi) <= c < profile.alpha(np.nextafter(s_hi, 0))
    # the certificate's rule: time rows at rel_tol 1e-4; the reference is
    # the return time of the DOP853 return map
    halves, errs = clairaut_segments(
        profile, np.array([c, c]), np.array([s_lo, profile.s_max]),
        np.array([profile.s_max, s_hi]), np.array([s_lo, s_hi]),
        np.zeros(2, dtype=bool), rel_tol=1e-4)
    tau, tau_err = 2.0 * halves.sum(), 2.0 * errs.sum()
    assert abs(tau - rotation_number_ode(s_hi, profile)[1]) <= tau_err <= 1e-4


@pytest.mark.parametrize("samples, thresh", [(1000, 0.01), (20_000, 0.01)])
def test_meridian_min_equals_the_per_time_loop(samples, thresh):
    flow = RevolutionFlow(PERTURBED.profile)
    dist = _return_distance(flow.metric)
    states = CosphereSet(PERTURBED, kind="band", s0=1.05,
                         s1=1.45).sample(samples, 37)
    states = states[np.abs(states[:, 3]) < MERIDIAN_C_FLOOR]
    assert len(states)
    t0, T, res = 1.0, 5.85, thresh / 4.0
    ref = np.full(len(states), np.inf)
    t_grid = np.arange(t0, T + res, res)
    for sign in (1.0, -1.0):
        for t in t_grid:
            ref = np.minimum(ref, dist(meridian_states(states, sign * t),
                                       states))
    if samples > 1000:
        # the pairs span several chunks, the last one partial
        per_chunk = 2 ** 16 // len(states)
        assert 2 * len(t_grid) > per_chunk
        assert (2 * len(t_grid)) % per_chunk
    assert np.array_equal(
        RevolutionFlow._meridian_min(states, t0, T, res, dist), ref)


# --- recurrence --------------------------------------------------------------

def t_of_eps(eps):
    return 1.0 / max(eps, 1e-6)


def test_torus_recurrence_passes():
    v = recurrence_measure(TORUS, (0.3, 0.4), R0=0.2, t_func=t_of_eps,
                           T_func=lambda R: 5.0 * np.log(1.0 / R),
                           r=0.05, R=0.05, eps_list=(0.5,),
                           samples=4000, seed=11)
    assert v.passes
    assert not v.failures


def _failing_hits(v):
    """Each failure's estimate as its count of hits among 3000 samples,
    asserted exact, with the probes, levels and signs in their order."""
    assert [(f["k"], f["sign"]) for f in v.failures] \
        == [(k, sign) for _ in v.probes for sign in (1, -1) for k in range(3)]
    counts = [round(f["estimate"] * 3000 / TWO_PI) for f in v.failures]
    assert [f["estimate"] for f in v.failures] \
        == [n / 3000 * TWO_PI for n in counts]
    return counts[::3], counts[1::3], counts[2::3]


def test_round_sphere_recurrence_fails():
    # every orbit closes at t = 2 pi, inside the window [2, 8]
    v = recurrence_measure(SPHERE, (0.3, 0.2), R0=0.2, t_func=t_of_eps,
                           T_func=lambda _: 8.0,
                           r=0.05, R=0.05, eps_list=(0.5,),
                           samples=3000, seed=4)
    assert not v.passes
    assert _failing_hits(v) == ([195, 195, 195, 195, 196, 196, 196, 196],
                                [101] * 6 + [100] * 2,
                                [53, 53, 51, 51, 53, 53, 53, 53])


def test_round_sphere_recurrence_flows_each_time_once(monkeypatch):
    # 4 probes, 2 signs and 3 levels each try k = 0, 1, 2, so the window
    # [2, 8] asks for t* in {2, 2 pi, 8} 72 times; each signed t* is one
    # flow (test_round_sphere_recurrence_fails pins the verdict)
    times = []
    flow = RoundSphereFlow.flow

    def counted(self, states, t):
        times.append(t)
        return flow(self, states, t)

    monkeypatch.setattr(RoundSphereFlow, "flow", counted)
    v = recurrence_measure(SPHERE, (0.3, 0.2), R0=0.2, t_func=t_of_eps,
                           T_func=lambda _: 8.0,
                           r=0.05, R=0.05, eps_list=(0.5,),
                           samples=3000, seed=4)
    assert len(v.failures) == 24
    assert sorted(times) == [-8.0, -TWO_PI, -2.0, 2.0, TWO_PI, 8.0]


def test_torus_recurrence_fails_at_small_eps():
    # eps = 0.05 allows 5 % of the arc's mass, and about a tenth of the
    # directions pass within 2rR = 0.1 of a lattice vector over [20, 40]
    v = recurrence_measure(TORUS, (0.3, 0.4), R0=0.2, t_func=t_of_eps,
                           T_func=lambda _: 40.0,
                           r=0.5, R=0.1, eps_list=(0.05,),
                           samples=3000, seed=4)
    assert not v.passes
    assert _failing_hits(v) == ([29, 29, 20, 20, 18, 18, 24, 24],
                                [20, 20, 13, 13, 15, 15, 18, 18],
                                [12, 12, 10, 10, 12, 12, 16, 16])


def test_recurrence_windows_keep_their_own_returns():
    # eps = 0.5 (window [2, 40]) never fails here, so adding it must leave
    # the failures of eps = 0.05 (window [20, 40]) exactly as they were
    kwargs = dict(t_func=t_of_eps, T_func=lambda _: 40.0,
                  r=0.5, R=0.1, samples=3000, seed=4)
    both = recurrence_measure(TORUS, (0.3, 0.4), 0.2, eps_list=(0.5, 0.05),
                              **kwargs)
    alone = recurrence_measure(TORUS, (0.3, 0.4), 0.2, eps_list=(0.05,),
                               **kwargs)
    assert both.failures == alone.failures
    assert len(alone.failures) == 24


def test_recurrence_vacuous_window_passes():
    v = recurrence_measure(TORUS, (0.3, 0.4), R0=0.2,
                           t_func=lambda _: 50.0,
                           T_func=lambda _: 5.0,
                           r=0.05, R=0.05, eps_list=(0.5,), samples=2000,
                           seed=4)
    assert v.passes and not v.failures


# --- good covers -------------------------------------------------------------

def test_fiber_circle_cover_counts_and_audits():
    r = 0.01
    cover = build_good_cover(TORUS, tau=0.1, r=r)
    n = len(cover.params)
    assert math.ceil(TWO_PI / (2 * r)) <= n <= math.ceil(TWO_PI / r)
    assert cover.D <= FAMILY_BUDGET
    assert cover.audit_disjointness() >= 0.0
    audit = cover.audit_coverage(10_000, seed=3)
    assert audit["pass"]


def test_cover_halving_radius_ratio():
    n1 = len(build_good_cover(TORUS, tau=0.1, r=0.01).params)
    n2 = len(build_good_cover(TORUS, tau=0.1, r=0.02).params)
    assert 1.0 / 3.0 <= n2 / n1 <= 1.0


def test_cover_rejects_long_tubes():
    with pytest.raises(DomainError):
        build_good_cover(TORUS, tau=10.0, r=0.05)


@pytest.mark.parametrize("call", [
    lambda: build_good_cover(TORUS, tau=0.1, r=0.0),
    # checked before the maximality loop, which a negative r would run
    # to 16,384 centers ahead of the quadratic coloring
    lambda: build_good_cover(TORUS, tau=0.1, r=-0.01),
    lambda: near_periodic_measure(CosphereSet(TORUS), 1.0, 10.0, 0.0,
                                  samples=1000),
    lambda: looping_pair_measure(TORUS, (0.3, 0.4), (1.0, 1.273), 1.0,
                                 10.0, -0.01),
    lambda: recurrence_measure(TORUS, (0.3, 0.4), 0.2, t_of_eps,
                               lambda _: 8.0, r=-0.5, R=0.05),
    lambda: looping_pair_measure(PERTURBED, (0.3, 0.2), (2.0, 1.0), 1.0,
                                 10.0, 0.01),
    # a band needs a surface profile, which S^3 and products lack
    lambda: CosphereSet(round_sphere(3), kind="band", s0=0.1, s1=0.2),
    lambda: CosphereSet(product(SPHERE, flat_torus((TWO_PI,))), kind="band",
                        s0=0.1, s1=0.2),
    lambda: CosphereSet(SPHERE, kind="point"),
    # a window that starts before t = 0
    lambda: near_periodic_measure(CosphereSet(TORUS), -1.0, 5.0, 0.01,
                                  samples=1000),
    lambda: looping_pair_measure(TORUS, (0.0, 0.0), (1.0, 1.0), -5.0, 3.0,
                                 0.01),
    lambda: recurrence_measure(TORUS, (0.3, 0.4), 0.2, t_of_eps,
                               lambda _: 8.0, r=0.05, R=0.05, samples=0),
], ids=["cover-zero-r", "cover-negative-r", "near-periodic-zero-R",
        "looping-negative-R", "recurrence-negative-r",
        "looping-target-off-the-chart", "band-on-the-3-sphere",
        "band-on-a-product", "unknown-set-kind", "near-periodic-negative-t0",
        "looping-negative-t0", "recurrence-no-samples"])
def test_estimators_refuse_out_of_domain_input(call):
    with pytest.raises(DomainError):
        call()


# --- fiber samples and the torus target scan --------------------------------

def test_torus_fiber_target_states_are_unit_off_the_origin():
    # the covector scale on a torus is 1 wherever the fiber sits
    psi, st = _fiber_draw(TORUS, (1.2, 0.4), 13, 0)
    assert np.array_equal(psi, 2.0 * math.pi * _halton(1, 13, 0)[:, 0])
    assert np.allclose(np.hypot(st[:, 2], st[:, 3]), 1.0, atol=1e-15)
    assert np.allclose(st[:, :2], [1.2, 0.4])


def test_torus_target_min_translation_invariant():
    # the exact window scan must not depend on which lattice
    # representative the base point uses (regression: corner-positioned
    # sources missed approach times near T)
    flow = TorusFlow((TWO_PI, TWO_PI))
    omega = np.array([math.cos(0.7), math.sin(0.7)])
    corner = np.array([[6.2, 6.2, omega[0], omega[1]]])
    wrapped = np.array([[6.2 - TWO_PI, 6.2 - TWO_PI, omega[0], omega[1]]])
    y = np.array([0.3, 0.1])
    a = flow.target_min(corner, y, 1.0, 10.0)[0]
    b = flow.target_min(wrapped, y, 1.0, 10.0)[0]
    assert a == pytest.approx(b, abs=1e-12)


def test_smoothed_counting_monotone():
    from weyllab.spectra import sphere_spectrum
    from weyllab.weyl import build_smoothing_kernel, smoothed_series
    K = build_smoothing_kernel(1.0)
    s = sphere_spectrum(2, 520.0)
    lams = np.linspace(30.0, 60.0, 101)
    sm = smoothed_series(s, lams, K)
    assert np.all(np.diff(sm) > -K.tail_tol * s.total)
