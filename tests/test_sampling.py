import numpy as np
import pytest

import mopkit as mk
from mopkit import sampling
from mopkit.exceptions import DomainError, ValidationError
from mopkit.ensemble import _Target
from mopkit.sampling import SamplerConfig, sample_mcmc


def small_cfg(seed, samples=20000):
    return SamplerConfig(samples=samples, chains=64, burn_in=1500, thinning=5,
                         seed=seed)


def test_config_validation():
    with pytest.raises(ValidationError):
        SamplerConfig(samples=0)
    with pytest.raises(ValidationError):
        SamplerConfig(step_scale=-0.1)


def test_seed_reproducibility(legendre_ws):
    b1 = sample_mcmc(legendre_ws, (2,), small_cfg(42, samples=2000))
    b2 = sample_mcmc(legendre_ws, (2,), small_cfg(42, samples=2000))
    assert np.array_equal(b1.configurations, b2.configurations)
    b3 = sample_mcmc(legendre_ws, (2,), small_cfg(43, samples=2000))
    assert not np.array_equal(b1.configurations, b3.configurations)


def test_uniform_mean(legendre_ws):
    batch = sample_mcmc(legendre_ws, (1,), small_cfg(11))
    est = batch.configurations.mean()
    sd = batch.configurations.std()
    assert abs(est) < 3.0 * sd / np.sqrt(batch.ess)


def test_angelesco_block_fractions(angelesco_ws):
    batch = sample_mcmc(angelesco_ws, (1, 1), small_cfg(3, samples=5000))
    in_left = np.sum((batch.configurations >= -1.0) & (batch.configurations <= 0.0),
                     axis=1)
    assert np.all(in_left == 1)


def test_nikishin_extended_blocks(nikishin_ws):
    batch = sample_mcmc(nikishin_ws, (2, 1), small_cfg(5, samples=5000))
    assert batch.extended is not None and batch.extended.shape[1] == 1
    assert np.all((batch.configurations >= 1.0) & (batch.configurations <= 2.0))
    assert np.all((batch.extended >= -1.0) & (batch.extended <= 0.0))


def test_general_kind_matches_factored(angelesco_ws):
    # the slogdet path should agree in distribution with the factored path
    general = mk.WeightSystem.general(list(angelesco_ws.weights))
    bg = sample_mcmc(general, (1, 1), small_cfg(9, samples=8000))
    bf = sample_mcmc(angelesco_ws, (1, 1), small_cfg(9, samples=8000))
    for batch in (bg, bf):
        est = mk.mc_char_poly(batch, 2.0)
        assert abs(est.value - (4.0 - 1.0 / 3.0)) < 4.0 * est.stderr


def test_nikishin_p3_samples_marginal_directly():
    # p >= 3 has no extended-space sampler; the det-product target applies
    ws = mk.build_nikishin(
        mk.WeightSpec.constant(3.0, 4.0),
        [mk.WeightSpec.constant(1.0, 2.0), mk.WeightSpec.constant(-1.0, 0.0)],
    )
    batch = sample_mcmc(ws, (1, 1, 1), small_cfg(13, samples=8000))
    assert batch.extended is None
    assert np.all((batch.configurations >= 3.0) & (batch.configurations <= 4.0))
    mt = mk.moment_table(ws, 10)
    P = mk.type2_mop(mt, (1, 1, 1))
    est = mk.mc_char_poly(batch, 5.0)
    assert abs(est.value - P(5.0)) < 4.0 * est.stderr


def test_sign_violation_blocks_general_sampler(legendre_ws):
    w = legendre_ws.weights[0]
    ws = mk.WeightSystem.general([w, w])
    with pytest.raises(ValidationError):
        sample_mcmc(ws, (1, 1), small_cfg(1, samples=100))


def test_histogram_matches_mean_density(legendre4_batch, legendre_ws, legendre_mt):
    K = mk.biorthogonalize(mk.block_hankel(legendre_mt, (4,)), legendre_ws, (4,))
    pts = legendre4_batch.configurations.ravel()
    bins = np.linspace(-1.0, 1.0, 26)
    hist, edges = np.histogram(pts, bins=bins, density=True)
    centers = 0.5 * (edges[:-1] + edges[1:])
    target = mk.mean_density(K, centers)
    assert np.abs(hist - target).max() <= 0.05


class TestMCEstimators:
    def test_char_poly_linear(self, legendre_ws):
        batch = sample_mcmc(legendre_ws, (1,), small_cfg(2))
        est = mk.mc_char_poly(batch, 2.0)
        assert abs(est.value - 2.0) < 3.0 * est.stderr

    def test_char_poly_legendre2(self, legendre_ws, legendre_mt):
        batch = sample_mcmc(legendre_ws, (2,), small_cfg(6))
        P = mk.type2_mop(legendre_mt, (2,))
        est = mk.mc_char_poly(batch, 1.0)
        assert abs(est.value - P(1.0)) < 3.0 * est.stderr

    def test_char_poly_complex(self, angelesco_ws, angelesco_mt):
        batch = sample_mcmc(angelesco_ws, (1, 1), small_cfg(7))
        est = mk.mc_char_poly(batch, 2j)
        target = (2j) ** 2 - 1.0 / 3.0
        assert abs(est.value - target) < 3.0 * est.stderr

    def test_inverse_char_poly(self, legendre_ws, legendre_mt):
        batch = sample_mcmc(legendre_ws, (2,), small_cfg(8))
        ts = mk.type1_mop(legendre_mt, (2,))
        z = 1.0 + 1.0j
        est = mk.mc_inverse_char_poly(batch, z)
        target = mk.cauchy_transform_type1(ts, z)
        assert abs(est.value - target) < 3.0 * est.stderr

    def test_inverse_requires_offreal_or_outside(self, legendre_ws):
        batch = sample_mcmc(legendre_ws, (2,), small_cfg(9, samples=2000))
        with pytest.raises(DomainError):
            mk.mc_inverse_char_poly(batch, 0.5)
        est = mk.mc_inverse_char_poly(batch, 3.0)  # real but outside: fine
        assert est.stderr > 0

    def test_empty_batch(self):
        batch = mk.SampleBatch(np.empty((0, 2)), None, 0.0, 1.0, 0, "factored")
        with pytest.raises(ValidationError):
            mk.mc_char_poly(batch, 1.0)


@pytest.mark.parametrize("knobs", [
    {"step_scale": float("nan")},
    {"step_scale": float("inf")},
])
def test_config_rejects_steps_that_freeze_the_chain(knobs):
    with pytest.raises(ValidationError):
        SamplerConfig(**knobs)


J, E = mk.WeightSpec.jacobi, mk.WeightSpec.exp_poly

#: incremental-move targets: name -> (weight system builder, multi-index)
MOVE_TARGETS = {
    "jacobi_exp_poly_angelesco": (
        lambda: mk.build_angelesco([J(-1.0, 0.0, 0.5, 0.5), E(0.0, 1.0, (0.3, 1.0))]), (2, 2)),
    "exp_poly_p1": (lambda: mk.build_angelesco([E(-1.0, 1.0, (0.2, 0.8))]), (3,)),
    "nikishin_extended": (
        lambda: mk.build_nikishin(mk.WeightSpec.constant(1.0, 2.0),
                                  [mk.WeightSpec.constant(-1.0, 0.0)]), (2, 2)),
}


def _move_target(name, chains, seed):
    build, nvec = MOVE_TARGETS[name]
    target = _Target(build(), nvec)
    rng = np.random.default_rng(seed)
    state = np.column_stack([iv.a + iv.length * rng.random(chains)
                             for iv in target.intervals])
    return target, state, rng


class _Draws:
    """Stands in for the generator of one sweep: ``standard_normal`` and
    ``random`` fill ``out`` with the next of the prepared arrays."""

    def __init__(self, normals, uniforms):
        self.normals, self.uniforms = iter(normals), iter(uniforms)

    def standard_normal(self, out):
        out[...] = next(self.normals)

    def random(self, out):
        out[...] = next(self.uniforms)


def _move(target, state, idx, step, u):
    """Accept mask of one sweep that moves coordinate idx by ``step`` with
    uniforms u: every other coordinate proposes where it is (a zero change,
    which its uniform of 1/2 accepts), so only idx can move."""
    chains, nc = state.shape
    zeros, half = np.zeros(chains), np.full(chains, 0.5)
    draws = _Draws([step if i == idx else zeros for i in range(nc)],
                   [u if i == idx else half for i in range(nc)])
    moved, accepts = state.copy(), np.zeros(nc, dtype=np.int64)
    sampling._sweep(target, moved, None, np.ones(nc), draws, accepts,
                    sampling._work(target, moved))
    ok = moved[:, idx] != state[:, idx]
    assert accepts[idx] == ok.sum() and np.array_equal(np.delete(moved, idx, axis=1),
                                                       np.delete(state, idx, axis=1))
    return ok


@pytest.mark.parametrize("name", sorted(MOVE_TARGETS))
def test_move_matches_full_log_density(name):
    chains = 400
    target, state, rng = _move_target(name, chains, seed=17)
    assert target.kind in ("factored", "nikishin")
    with np.errstate(divide="ignore", invalid="ignore"):
        base = target.log_density(state)
        assert np.all(np.isfinite(base))
        for idx in range(target.ncoord):
            iv = target.intervals[idx]
            step = 0.6 * iv.length * rng.standard_normal(chains)
            prop = state[:, idx] + step
            cand = state.copy()
            cand[:, idx] = prop
            ref = target.log_density(cand) - base
            fin = np.isfinite(ref)
            assert 0 < fin.sum() < chains  # some proposals leave the support
            assert not np.any(ref == np.inf)
            # uniform u, then log u just below and just above a finite change
            # (the incremental change is within 1e-10 of the full one) and
            # log u = -inf, 0 where the change is -inf or NaN: those reject.
            # The sweep takes log u = log(exp(log u)), which rounding alone moves.
            for log_u in (np.log(rng.random(chains)), np.where(fin, ref - 1e-10, -np.inf),
                          np.where(fin, ref + 1e-10, 0.0)):
                u = np.exp(log_u)
                log_u = np.log(u)
                ok = _move(target, state, idx, step, u)
                np.testing.assert_array_equal(ok, log_u < ref)
                assert not np.any(ok & ~fin)


def test_batch_records_step_sizes(angelesco_ws, nikishin_ws):
    cfg = SamplerConfig(samples=640, chains=64, burn_in=200, thinning=2, seed=1)
    batch = sample_mcmc(angelesco_ws, (2, 2), cfg)
    assert batch.step_sizes == (0.1,) * 4  # step_scale * length 1; no retuning before sweep 250
    tuned = sample_mcmc(nikishin_ws, (2, 1), small_cfg(5, samples=640))
    assert len(tuned.step_sizes) == 3 + 1  # X block plus the Y block
    assert all(s > 0 for s in tuned.step_sizes)
