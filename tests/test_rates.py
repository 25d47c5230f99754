"""Growth rates, nonuniformity weights, and the weighted sequence norms."""

import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from dicholab import (
    AnalysisError,
    ConfigError,
    LinearSystem,
    MAX_WINDOW,
    WeightedNormSpec,
    compute_n0,
    log_norm,
    make_abs_spec,
    make_nu,
    make_rate,
    norm,
)

from helpers import brute_weighted_norm


# ---------------------------------------------------------------- rate values


def test_exponential_rate_log_values():
    rate = make_rate("exponential", "one_sided", (0, 10))
    assert rate.log_at(3) == 3.0
    assert rate.log_at(0) == 0.0


def test_polynomial_rate_log_values():
    rate = make_rate("polynomial", "one_sided", (0, 10))
    assert rate.log_at(0) == 0.0
    assert rate.log_at(4) == pytest.approx(math.log(5.0), rel=1e-15)


def test_doubly_exponential_rate_log_values():
    rate = make_rate("doubly_exponential", "one_sided", (0, 5))
    assert rate.log_at(2) == pytest.approx(math.e ** 2, rel=1e-15)
    assert rate.log_at(0) == 1.0


def test_two_sided_polynomial_extension():
    # mu_n = 1/(1-n) for n < 0: the left tail must decrease to zero
    rate = make_rate("polynomial", "two_sided", (-6, 6))
    assert rate.log_at(-3) == pytest.approx(-math.log(4.0), rel=1e-15)
    assert rate.log_at(0) == 0.0
    assert rate.log_at(6) == pytest.approx(math.log(7.0), rel=1e-15)


def test_logarithmic_rate_positive_indices_only():
    rate = make_rate("logarithmic", "one_sided", (0, 20))
    assert rate.log_at(5) == pytest.approx(math.log(math.log(7.0)), rel=1e-15)
    with pytest.raises(ConfigError):
        make_rate("logarithmic", "two_sided", (-3, 3))


def test_table_rate_requires_values_and_monotonicity():
    with pytest.raises(ConfigError):
        make_rate("table", "one_sided", (0, 3))
    with pytest.raises(ConfigError):
        make_rate("table", "one_sided", (0, 3), table=[0.0, 1.0, 1.0, 2.0])
    rate = make_rate("table", "one_sided", (0, 3), table=[0.0, 0.5, 2.0, 2.5])
    assert rate.log_at(2) == 2.0


def scalar_system(domain, window):
    """A_n = exp(n - n_min), so a restriction shows which steps it kept."""
    w = window[1] - window[0]
    return LinearSystem(dim=1, domain=domain, window=window, log_scales=np.arange(float(w)),
                        mats=np.ones((w, 1, 1)))


def test_window_validation():
    # rates and systems share one window rule, refusals and messages alike
    for build in (lambda d, win: make_rate("exponential", d, win), scalar_system):
        with pytest.raises(ConfigError, match="one-sided windows start at 0"):
            build("one_sided", (1, 10))
        # two-sided windows may sit anywhere: restrictions of half-line data
        # produce them, so (3, 10) is legitimate
        assert build("two_sided", (3, 10)).window == (3, 10)
        with pytest.raises(ConfigError, match="exceeds cap"):
            build("one_sided", (0, MAX_WINDOW + 1))
        with pytest.raises(ConfigError, match="at least two indices"):
            build("two_sided", (4, 4))
        with pytest.raises(ConfigError, match="unknown domain"):
            build("half_line", (0, 4))


def test_restrict_rate_and_nu():
    rate = make_rate("exponential", "one_sided", (0, 10))
    nu = make_nu("power", rate, epsilon=0.2)
    head = rate.restrict(0, 6)
    assert head.window == (0, 6) and head.domain == "one_sided"
    assert np.array_equal(head.log_values, rate.log_values[:7])
    # moving the left end leaves the half-line, as LinearSystem.restrict does
    inner = rate.restrict(2, 6)
    assert inner.domain == "two_sided" and inner.log_at(2) == rate.log_at(2)
    sub = nu.restrict(2, 6)
    assert sub.window == (2, 6) and sub.epsilon == 0.2
    assert sub.log_at(6) == nu.log_at(6)
    sys = scalar_system("one_sided", (0, 10))
    assert sys.restrict(0, 6).window == (0, 6) and sys.restrict(0, 6).domain == "one_sided"
    inner_sys = sys.restrict(2, 6)
    assert inner_sys.window == (2, 6) and inner_sys.domain == "two_sided"
    assert inner_sys.log_scales.tolist() == [2.0, 3.0, 4.0, 5.0]
    for bad in ((3, 3), (-1, 4), (0, 11)):
        for obj in (rate, nu, sys):
            with pytest.raises(ConfigError, match="invalid sub-window"):
                obj.restrict(*bad)


def test_rate_index_bounds():
    rate = make_rate("exponential", "one_sided", (0, 5))
    with pytest.raises(ConfigError):
        rate.log_at(6)
    with pytest.raises(ConfigError):
        rate.log_at(-1)


# ------------------------------------------------------------------ n0 index


def test_n0_two_sided_exponential_is_zero():
    rate = make_rate("exponential", "two_sided", (-5, 5))
    assert compute_n0(rate) == 0


def test_n0_table_crossing_at_two():
    table = [-0.5, -0.3, -0.1, -0.05, math.log(1.1), 0.6]
    rate = make_rate("table", "two_sided", (-2, 3), table=table)
    assert compute_n0(rate) == 2


def test_n0_two_sided_polynomial_is_zero():
    rate = make_rate("polynomial", "two_sided", (-8, 8))
    assert compute_n0(rate) == 0


def test_n0_rejects_one_sided_and_noncrossing():
    with pytest.raises(ConfigError):
        compute_n0(make_rate("exponential", "one_sided", (0, 5)))
    rate = make_rate("table", "two_sided", (-1, 1), table=[0.5, 1.0, 1.5])
    with pytest.raises(AnalysisError):
        compute_n0(rate)


# ----------------------------------------------------------------- nu weights


def test_uniform_nu():
    rate = make_rate("exponential", "one_sided", (0, 5))
    nu = make_nu("uniform", rate, c=2.0)
    assert nu.log_at(3) == pytest.approx(math.log(2.0), rel=1e-15)
    with pytest.raises(ConfigError):
        make_nu("uniform", rate, c=0.5)  # nu >= 1 everywhere


def test_power_nu_clamped_at_one():
    rate = make_rate("exponential", "two_sided", (-4, 4))
    nu = make_nu("power", rate, epsilon=0.3)
    assert nu.log_at(4) == pytest.approx(1.2, rel=1e-15)
    # mu < 1 on the left tail would push nu below 1; the floor keeps nu >= 1
    assert nu.log_at(-4) == 0.0


def test_table_nu_rejects_values_below_one():
    rate = make_rate("exponential", "one_sided", (0, 2))
    with pytest.raises(ConfigError):
        make_nu("table", rate, table=[0.0, -0.1, 0.0])


# ------------------------------------------- norm examples against the oracle


def test_sup_norm_unweighted_constant_sequence():
    rate = make_rate("exponential", "one_sided", (0, 5))
    x = np.ones((6, 1))
    spec = WeightedNormSpec(beta=0.0, p=math.inf)
    assert norm(x, spec, rate) == 1.0


def test_sup_norm_polynomial_weight_cancels_decay():
    rate = make_rate("polynomial", "one_sided", (0, 30))
    x = np.array([[1.0 / (1 + n)] for n in range(31)])
    spec = WeightedNormSpec(beta=1.0, p=math.inf)
    assert norm(x, spec, rate) == pytest.approx(1.0, rel=1e-12)


def test_sum_norm_exponential_weights():
    rate = make_rate("exponential", "one_sided", (0, 3))
    nu = make_nu("uniform", rate)
    x = np.ones((4, 1))
    spec = WeightedNormSpec(beta=1.0, p=1)
    expected = sum(math.exp(k) for k in range(4))
    got = norm(x, spec, rate, nu)
    assert got == pytest.approx(expected, rel=1e-14)
    assert got == pytest.approx(brute_weighted_norm(x, 1.0, 1, rate, nu), rel=1e-14)


def test_sum_norm_requires_nu():
    rate = make_rate("exponential", "one_sided", (0, 3))
    with pytest.raises(ConfigError):
        norm(np.ones((4, 1)), WeightedNormSpec(beta=0.0, p=1), rate)


def test_norms_match_brute_force_on_random_data():
    rate = make_rate("exponential", "two_sided", (-6, 6))
    nu = make_nu("power", rate, epsilon=0.2)
    rng = np.random.default_rng(5)
    x = rng.standard_normal((13, 3))
    for beta in (-0.7, 0.0, 0.4, 1.3):
        for p in (1, math.inf):
            spec = WeightedNormSpec(beta=beta, p=p)
            want = brute_weighted_norm(x, beta, p, rate, nu if p == 1 else None)
            assert norm(x, spec, rate, nu) == pytest.approx(want, rel=1e-12)


def test_abs_norm_matches_brute_force():
    rate = make_rate("exponential", "two_sided", (-4, 4))
    nu = make_nu("uniform", rate)
    n0 = compute_n0(rate)
    rng = np.random.default_rng(11)
    x = rng.standard_normal((9, 2))
    for beta in (0.7, -0.7):
        for p in (1, math.inf):
            spec = make_abs_spec(rate, beta, p=p)
            want = brute_weighted_norm(x, beta, p, rate, nu if p == 1 else None,
                                       variant="abs", n0=n0)
            assert norm(x, spec, rate, nu) == pytest.approx(want, rel=1e-12)


def test_abs_norm_needs_two_sided_rate():
    rate = make_rate("exponential", "one_sided", (0, 4))
    spec = WeightedNormSpec(beta=0.5, p=math.inf, variant="abs")
    with pytest.raises(ConfigError):
        norm(np.ones((5, 1)), spec, rate)


def test_abs_max_decomposition():
    # the abs sup norm is the larger of the two one-regime suprema
    rate = make_rate("exponential", "two_sided", (-5, 5))
    n0 = compute_n0(rate)
    rng = np.random.default_rng(3)
    x = rng.standard_normal((11, 2))
    beta = 0.6
    spec = make_abs_spec(rate, beta)
    lo = max(math.exp(abs(beta) * rate.log_at(n)) * float(np.linalg.norm(x[n + 5]))
             for n in range(-5, n0))
    hi = max(math.exp(-abs(beta) * rate.log_at(n)) * float(np.linalg.norm(x[n + 5]))
             for n in range(n0, 6))
    assert norm(x, spec, rate) == pytest.approx(max(lo, hi), rel=1e-12)


def test_zero_sequence_and_overflow_sentinel():
    rate = make_rate("exponential", "one_sided", (0, 400))
    spec = WeightedNormSpec(beta=2.0, p=math.inf)
    zero = np.zeros((401, 1))
    assert norm(zero, spec, rate) == 0.0
    assert log_norm(zero, spec, rate) == float("-inf")
    big = np.ones((401, 1))
    assert norm(big, spec, rate) == float("inf")  # exp(800) overflows a double
    assert log_norm(big, spec, rate) == pytest.approx(800.0, rel=1e-15)


def test_norm_shape_validation():
    rate = make_rate("exponential", "one_sided", (0, 4))
    spec = WeightedNormSpec(beta=0.0, p=math.inf)
    with pytest.raises(ConfigError):
        norm(np.ones((3, 1)), spec, rate)  # window mismatch
    with pytest.raises(ConfigError):
        norm(np.ones(5), spec, rate)  # missing vector axis


def test_spec_validation():
    with pytest.raises(ConfigError):
        WeightedNormSpec(beta=0.0, p=2)
    with pytest.raises(ConfigError):
        WeightedNormSpec(beta=0.0, p=1, variant="signed")
    # the abs spec's sign switch is compute_n0 of the rate: none, no spec
    with pytest.raises(ConfigError):
        make_abs_spec(make_rate("exponential", "one_sided", (0, 5)), 0.5)
    with pytest.raises(AnalysisError):
        make_abs_spec(make_rate("exponential", "two_sided", (1, 5)), 0.5)


# ------------------------------------------------------------------ properties


finite_vec = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    min_size=9, max_size=9,
)


@given(xs=finite_vec,
       scale=st.floats(min_value=1e-6, max_value=1e6),
       beta=st.floats(min_value=-1.5, max_value=1.5),
       p=st.sampled_from([1, math.inf]))
# squares of the entry went subnormal and lost nine digits before rescaling
@example(xs=[0.0] * 8 + [7.43e-158], scale=0.5, beta=0.0, p=1)
def test_norm_homogeneity(xs, scale, beta, p):
    rate = make_rate("exponential", "one_sided", (0, 8))
    nu = make_nu("uniform", rate)
    x = np.asarray(xs)[:, None]
    spec = WeightedNormSpec(beta=beta, p=p)
    base = norm(x, spec, rate, nu)
    scaled = norm(scale * x, spec, rate, nu)
    assert scaled == pytest.approx(scale * base, rel=1e-12, abs=1e-300)


@given(xs=finite_vec,
       b1=st.floats(min_value=-1.0, max_value=1.0),
       db=st.floats(min_value=0.0, max_value=1.0),
       kind=st.sampled_from(["exponential", "polynomial"]))
def test_norm_monotone_in_beta_when_mu_at_least_one(xs, b1, db, kind):
    # with mu >= 1 everywhere, a larger weight exponent never shrinks the
    # norm; the logarithmic rate starts below 1 and is exempt
    rate = make_rate(kind, "one_sided", (0, 8))
    assert np.all(rate.log_values >= 0.0)
    x = np.asarray(xs)[:, None]
    spec_lo = WeightedNormSpec(beta=b1, p=math.inf)
    spec_hi = WeightedNormSpec(beta=b1 + db, p=math.inf)
    lo = norm(x, spec_lo, rate)
    hi = norm(x, spec_hi, rate)
    assert lo <= hi * (1 + 1e-12) + 1e-300


@given(data=st.data())
def test_nu_never_below_one(data):
    eps = data.draw(st.floats(min_value=0.0, max_value=2.0))
    c = data.draw(st.floats(min_value=1.0, max_value=10.0))
    rate = make_rate("exponential", "two_sided", (-5, 5))
    for nu in (make_nu("power", rate, epsilon=eps), make_nu("uniform", rate, c=c)):
        assert np.all(nu.log_values >= 0.0)



# ------------------------------------------------------------ window alignment


def _entry_points():
    """name -> (members it reads, call on the (system, family, rate, nu)
    quartet) for the public entry points that take windowed inputs."""
    import dicholab as d

    spec = d.PerturbationSpec(gamma=d.geometric_gamma((0, 12)), c=0.1)
    y = np.zeros((13, 2))
    z = np.eye(2)[:, 1:]
    all3, rn = ("family", "rate", "nu"), ("rate", "nu")
    return {
        "verify_dichotomy": (all3, lambda s, p, r, n: d.verify_dichotomy(s, p, r, n, 2.0, 0.5)),
        "fit_certificate": (all3, d.fit_certificate),
        "operator_norm_sup": (all3, lambda s, p, r, n: d.operator_norm_sup(s, p, r, n, 0.0)),
        "operator_norm_T": (all3, lambda s, p, r, n: d.operator_norm_T(s, p, r, n, 0.0)),
        "solve_admissibility": (all3, lambda s, p, r, n: d.solve_admissibility(
            s, p, y, 0.0, r, n, d.one_sided_boundary(p))),
        "oracle_solve": (("family",), lambda s, p, r, n: d.oracle_solve(
            s, p, y, d.one_sided_boundary(p))),
        "uniqueness_probe": (all3, lambda s, p, r, n: d.uniqueness_probe(
            s, p, r, n, 0.0, z)),
        "smallness_margin": (all3, lambda s, p, r, n: d.smallness_margin(
            s, p, r, n, spec)),
        "characterize": (rn, lambda s, p, r, n: d.characterize(s, r, n)),
        "classify_directions": (("rate",), lambda s, p, r, n: d.classify_directions(s, 0, r)),
        "make_perturbation": (rn, lambda s, p, r, n: d.make_perturbation(s, r, n, spec)),
        "verify_persistence": (rn, lambda s, p, r, n: d.verify_persistence(
            s, np.zeros((12, 2, 2)), r, n, spec)),
        # no system: the rate and nu must agree with each other
        "perturbation_radii": (rn, lambda s, p, r, n: d.perturbation_radii(r, n, spec)),
        "make_planted_model": (rn, lambda s, p, r, n: d.make_planted_model(
            r, n, 1.0, 1.0, (1, 1))),
        "norm": (rn, lambda s, p, r, n: norm(
            np.ones((r.window[1] + 1, 1)), WeightedNormSpec(beta=0.0, p=1), r, n)),
    }


@pytest.mark.parametrize("name, member", [
    (name, member) for name, (members, _) in sorted(_entry_points().items())
    for member in members])
def test_entry_points_refuse_a_misaligned_window(name, member):
    # one member on (0, 10), the rest on (0, 12): the refusal names the
    # member's type and both windows
    from dicholab import ProjectionFamily, make_planted_model

    rate = make_rate("exponential", "one_sided", (0, 12))
    nu = make_nu("uniform", rate)
    model = make_planted_model(rate, nu, 1.0, 1.0, (1, 1), cond=2.0, seed=1)
    quartet = {"system": model.system, "family": model.projections, "rate": rate, "nu": nu}
    if member == "family":
        quartet["family"] = ProjectionFamily(
            window=(0, 10), projections=model.projections.projections[:11], stable_rank=1)
    else:
        quartet[member] = quartet[member].restrict(0, 10)
    with pytest.raises(ConfigError, match=r"^\w+ window \(0, 1[02]\) differs from "
                                          r"\w+ window \(0, 1[02]\)$"):
        _entry_points()[name][1](*quartet.values())
