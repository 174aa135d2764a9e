import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.stats import qmc

from weyllab.covers import (
    CircleTarget,
    CosphereSet,
    ResolutionFunction,
    build_good_cover,
    family_budget,
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
    _mirror,
    clairaut_segments,
    meridian_states,
    turning_points,
)
from weyllab.geoflow import rotation_number, rotation_number_ode
from weyllab.manifolds import (
    HALF_PI,
    PerturbationSpec,
    ProfileCurve,
    flat_torus,
    make_perturbed_sphere,
    make_round_sphere,
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
    assert est.brute_force == 1.716173217126787
    assert est.inflation == 0.0


def test_near_periodic_oracle_counts_time_zero():
    # with t = 0 in the window every orbit returns, and so says the oracle
    U = CosphereSet(TORUS, kind="full")
    est = near_periodic_measure(U, 0.0, 5.0, 0.01, samples=2000, seed=1)
    assert est.value == est.total
    assert est.brute_force == est.total


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


def test_near_periodic_requires_samples():
    with pytest.raises(DomainError):
        near_periodic_measure(CosphereSet(TORUS), 1.0, 5.0, 0.01, samples=10)


def test_perturbed_band_short_window_is_empty():
    spec = PerturbationSpec(epsilon=0.01, a=0.5, b=1.0)
    m = surface_of_revolution(make_perturbed_sphere(spec))
    U = CosphereSet(m, kind="band", s0=1.05, s1=1.45)
    est = near_periodic_measure(U, 1.0, 5.0, 0.02, samples=2000, seed=3)
    assert est.value == 0.0


def test_perturbed_band_is_decided_before_integration():
    # every horizon R^(-1/3) of the band is shorter than one radial period:
    # the radial certificate clears 991 of the 997 regular rows, the scan
    # clears the other 6, so nothing reaches refine_min, and the inflation
    # is the meridian closed form's half step plus its position error
    U = CosphereSet(PERTURBED, kind="band", s0=1.05, s1=1.45)
    states = U.sample(1000, 37)
    cleared = RevolutionFlow(PERTURBED.profile).radial_clears(
        states, 1.0, 0.05 ** (-1.0 / 3.0), 0.1)
    regular = np.abs(states[:, 3]) >= MERIDIAN_C_FLOOR
    assert (cleared.sum(), regular.sum()) == (991, 997)
    est = near_periodic_measure(U, 1.0, 0.05 ** (-1.0 / 3.0), 0.05,
                                samples=1000, seed=37)
    assert est.value == 0.0
    assert est.inflation == 0.0145 == 0.5 * 0.1 / 4.0 + MERIDIAN_C_FLOOR


def test_perturbed_band_refines_candidates(monkeypatch):
    # from t0 = 0.1 no slab is left in time, so the certificate decides
    # nothing; candidates of the coarse scan go through refine_min, whose
    # grid slack R / 2 plus the 1e-6 integration budget is the inflation
    refined = []
    refine_min = RevolutionFlow.refine_min

    def spy(self, states, *args):
        refined.append(len(states))
        return refine_min(self, states, *args)

    monkeypatch.setattr(RevolutionFlow, "refine_min", spy)
    U = CosphereSet(PERTURBED, kind="band", s0=1.05, s1=1.45)
    est = near_periodic_measure(U, 0.1, 2.71, 0.05, samples=1000, seed=37)
    assert refined == [22]
    assert est.value == 0.02967745009039986
    assert est.inflation == 0.025001000000000002


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 1: the fixed-step RK4 scan (h = 0.02) does not resolve "
    "rows of small Clairaut constant, whose angle turns at up to 1/c near "
    "their turning points, so its slack does not bound its error"))
def test_no_scan_cleared_row_returns():
    # past the radial period the scan decides the band rows; every row it
    # clears must stay 2R away in DOP853, in both time directions
    U = CosphereSet(PERTURBED, kind="band", s0=1.05, s1=1.45)
    states = U.sample(1000, 37)
    flow = RevolutionFlow(PERTURBED.profile)
    t0, T, thresh = 1.0, 6.5, 0.1
    rest = np.nonzero(~flow.radial_clears(states, t0, T, thresh))[0]
    reg = rest[np.abs(states[rest, 3]) >= MERIDIAN_C_FLOOR]
    mins, slack = flow._scan_both(states[reg], t0, T,
                                  flow.metric.base_distance_from)
    cleared = states[reg[mins - slack > thresh]]
    res = thresh / (4.0 * flow.phase_speed_bound(cleared))
    best = flow.refine_min(
        np.vstack([cleared, _mirror(cleared)]), t0, T,
        lambda y, ref: flow.metric.distance(y, ref),
        np.concatenate([res, res]))
    n = len(cleared)
    assert np.all(np.minimum(best[:n], best[n:]) >= thresh)


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
    assert e1.brute_force == e2.brute_force == 0.1265272955741511
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


# --- the flow interface ------------------------------------------------------

def test_closed_form_hits_are_exact_minima():
    flow = RoundSphereFlow(make_round_sphere())
    states = CosphereSet(SPHERE, kind="fiber", x=(0.3, 0.2)).sample(500, 1)
    hits, inflation = flow.target_hits(states, (-0.5, 1.0), 1.0, 7.0, 0.1)
    mins = flow.target_min(states, (-0.5, 1.0), 1.0, 7.0)
    assert inflation == 0.0
    assert np.array_equal(hits, mins < 0.1)


def test_revolution_flow_matches_great_circles():
    rng = np.random.default_rng(3)
    s = rng.uniform(-1.0, 1.0, 20)
    psi = rng.uniform(0.0, TWO_PI, 20)
    states = np.column_stack([s, rng.uniform(0.0, TWO_PI, 20), np.cos(psi),
                              np.cos(s) * np.sin(psi)])
    exact = RoundSphereFlow(make_round_sphere())
    dop853 = RevolutionFlow(make_round_sphere())
    for t in (0.0, 0.013, -0.7, 1.9):
        d = exact.metric.distance(dop853.flow(states, t),
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
    got = flow.flow(states, t)
    for row, y in zip(states, got):
        ref = solve_ivp(lambda _, y: flow._rhs(y[None, :])[0], (0.0, t), row,
                        method="DOP853", rtol=1e-13, atol=1e-13).y[:, -1]
        err = np.abs(y - ref)
        err[1] = wrap_angle(y[1] - ref[1])
        assert np.max(err) < 1e-8


def _return_distance(metric):
    return lambda y, ref: metric.distance(y, np.broadcast_to(ref, y.shape))


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
    got = flow.refine_min(rows, t0, T, dist, np.full(len(rows), res))
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
    flow = RevolutionFlow(PERTURBED.profile)
    start = np.array([[1.4, 0.0, 1.0, 0.0], [0.3, 1.0, 0.6, 0.5]])
    for t in (0.5, -2.5):
        got = flow.flow(start, t)
        ref = meridian_states(start[:1], t)
        assert ref[0, 1] == pytest.approx(math.pi if t > 0 else 0.0)
        assert flow.metric.distance(got[:1], ref)[0] < 1e-9
        # the chart row beside it is integrated as before
        assert np.array_equal(got[1:], flow.flow(start[1:], t))
    assert np.allclose(meridian_states(start[:1], 0.5),
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


def _rows_of_constant(flow, c):
    """Rows with Clairaut constant c across [s_-, s_+], crowding both turning
    points, heading either way: (rows, tau(c))."""
    s_lo, s_hi = (float(x[0]) for x in turning_points(flow.profile, [c]))
    near = np.geomspace(1e-6, 0.3, 4) * (s_hi - s_lo)
    s0 = np.concatenate([np.linspace(s_lo, s_hi, 11), s_hi - near,
                         s_lo + near])
    xi_s = np.sqrt(np.maximum(1.0 - (c / flow.profile.alpha(s0)) ** 2, 0.0))
    rows = np.vstack([np.column_stack([s0, np.zeros_like(s0), sign * xi_s,
                                       np.full_like(s0, c)])
                      for sign in (1.0, -1.0)])
    return rows, rotation_number(s_hi, flow.profile).return_time


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


@pytest.mark.parametrize("profile, constants, thresholds, windows", [
    # the band's constants; windows end 3, 1.5 and 0.5 thresholds short of
    # tau(c), starting 1.5 and 3 thresholds in
    (PERTURBED.profile, (2e-3, 5e-3, 1e-2, 3e-2, 0.1, 0.3),
     (2e-3, 0.02, 0.2),
     lambda tau, th: [(1.5 * th, tau - 3.0 * th),
                      (3.0 * th, tau - 1.5 * th),
                      (3.0 * th, tau - 0.5 * th)]),
    # near-equatorial orbits, where the opposite leg returns (s_+ = 0.025
    # and 0.06); windows past the opposite crossing, tau ~ 17
    (_flat_equator_profile(), (0.025, 0.06), (0.02, 0.05),
     lambda tau, th: [(1.0, 0.75 * tau), (4.5, 0.75 * tau)]),
], ids=["perturbed-sphere", "flat-equator"])
def test_radial_certificate_is_sound(profile, constants, thresholds,
                                     windows):
    flow = RevolutionFlow(profile)
    if profile.label == "flat equator":
        # the constants are given by their right turning points
        constants = [float(profile.alpha(s)) for s in constants]
    rows, cases, cleared = [], [], []
    for c in constants:
        r, tau = _rows_of_constant(flow, c)
        case = [(th, w) for th in thresholds for w in windows(tau, th)]
        rows.append(r)
        cases += [case] * len(r)
        cleared.append(np.column_stack([
            flow.radial_clears(r, w[0], w[1], th) for th, w in case]))
    rows, cleared = np.vstack(rows), np.vstack(cleared)
    assert 0 < cleared.sum() < cleared.size
    keep = np.nonzero(cleared.any(axis=1))[0]
    checked = [[case for case, ok in zip(cases[i], cleared[i]) if ok]
               for i in keep]
    away = _stays_away(flow, rows[keep], checked)
    for i, row_cases, row_away in zip(keep, checked, away):
        bad = [case for case, ok in zip(row_cases, row_away) if not ok]
        assert not bad, (rows[i], bad)


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

T_OF_EPS = ResolutionFunction(
    lambda e: 1.0 / np.maximum(np.asarray(e, dtype=float), 1e-6))


def test_torus_recurrence_passes():
    v = recurrence_measure(TORUS, (0.3, 0.4), R0=0.2, t_func=T_OF_EPS,
                           T_func=ResolutionFunction.logarithmic(5.0),
                           r=0.05, R=0.05, eps_list=(0.5,),
                           samples=4000, seed=11)
    assert v.passes
    assert not v.failures


def test_round_sphere_recurrence_fails():
    v = recurrence_measure(SPHERE, (0.3, 0.2), R0=0.2, t_func=T_OF_EPS,
                           T_func=ResolutionFunction.constant(8.0),
                           r=0.05, R=0.05, eps_list=(0.5,),
                           samples=3000, seed=4)
    assert not v.passes
    assert v.failures


def test_recurrence_vacuous_window_passes():
    v = recurrence_measure(TORUS, (0.3, 0.4), R0=0.2,
                           t_func=ResolutionFunction.constant(50.0),
                           T_func=ResolutionFunction.constant(5.0),
                           r=0.05, R=0.05, eps_list=(0.5,), samples=2000,
                           seed=4)
    assert v.passes and not v.failures


# --- good covers -------------------------------------------------------------

def test_fiber_circle_cover_counts_and_audits():
    target = CircleTarget(TORUS)
    r = 0.01
    cover = build_good_cover(target, tau=0.1, r=r)
    n = len(cover.tubes)
    assert math.ceil(TWO_PI / (2 * r)) <= n <= math.ceil(TWO_PI / r)
    assert cover.D <= family_budget(1)
    assert cover.audit_disjointness() >= 0.0
    audit = cover.audit_coverage(10_000, seed=3)
    assert audit["pass"]


def test_cover_halving_radius_ratio():
    target = CircleTarget(TORUS)
    n1 = len(build_good_cover(target, tau=0.1, r=0.01).tubes)
    n2 = len(build_good_cover(target, tau=0.1, r=0.02).tubes)
    assert 1.0 / 3.0 <= n2 / n1 <= 1.0


def test_cover_rejects_long_tubes():
    target = CircleTarget(TORUS)
    with pytest.raises(DomainError):
        build_good_cover(target, tau=10.0, r=0.05)


# --- fiber samples and the torus target scan --------------------------------

def test_torus_fiber_target_states_are_unit_off_the_origin():
    # the covector scale on a torus is 1 wherever the fiber sits
    st = CosphereSet(TORUS, kind="fiber", x=(1.2, 0.4)).sample(13, 0)
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
