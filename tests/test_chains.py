from dataclasses import replace

import numpy as np
import pytest

from hclab import (
    Subspace,
    ToleranceConfig,
    aq_operator,
    centered_check,
    chain_decomposition,
    classify,
    composition_operator,
    half_centered_check,
    isometry_tower,
    kernel_of_adjoint,
    moduli_subspace,
    orthonormalize,
    projection_product,
    shift_plus_rank_one,
    span_closure,
    verify_chain_structure,
    weighted_shift,
)
from hclab.chains import analysis_block, effective_depth
from hclab.errors import NotHalfCentered, NotInjectiveOnWindow

from conftest import random_unitary, random_weights

PQ_P = np.array([[0.5, -0.5], [-0.5, 0.5]])
PQ_Q = np.array([[1.0, 0.0], [0.0, 0.0]])

STRUCT_TOLERANCES = {
    "space1": 1e-8,
    "space1_direct_sum": 1e-8,
    "isisis": 1e-8,
    "jups": 1e-8,
    "saknar": 1e-8,
    "labann": 1e-9,
    "key": 1e-9,
    "fuio": 1e-9,
    "fukth": 1e-9,
    "gram_invariance_residual": 1e-9,
}


def suite_instances(rng, n=24):
    return {
        "weighted_shift": weighted_shift(random_weights(rng, n - 1), n),
        "rank_one_n2": shift_plus_rank_one(random_weights(rng, n - 1), 0.3 + 0.4j, 2, n),
        "hardy": shift_plus_rank_one([0.5] * (n - 1), 1.0, 0, n),
        "aq": aq_operator(0.5, 5.0, n),
        "composition_cycle": composition_operator(
            [(k + 1) % n for k in range(n)], random_weights(rng, n), n
        ),
    }


class TestModuliSubspace:
    def test_weighted_shift_is_one_dimensional(self, rng, cfg):
        t = weighted_shift(random_weights(rng, 31), 32)
        sub, status = moduli_subspace(t, cfg)
        assert sub.dim == 1 and status == "stable"
        assert abs(sub.frame[0, 0]) == pytest.approx(1.0)

    def test_hardy_spans_first_two_coordinates(self, cfg):
        t = shift_plus_rank_one([0.5] * 15, 1.0, 0, 16)
        sub, status = moduli_subspace(t, cfg)
        assert sub.dim == 2 and status == "stable"
        expect = np.zeros((16, 2))
        expect[0, 0] = expect[1, 1] = 1.0
        assert np.linalg.norm(sub.projector() - expect @ expect.T) <= 1e-10

    def test_aq_fills_the_window(self):
        # eigenvalue gaps of the coupling matrix stay resolvable at this size
        cfg = ToleranceConfig(depth=4)
        t = aq_operator(0.5, 5.0, 16)
        sub, status = moduli_subspace(t, cfg)
        assert sub.dim == t.window(cfg.depth)
        assert status == "capped"

    def test_pq_moduli_is_whole_plane(self, cfg):
        sub, _ = moduli_subspace(projection_product(PQ_P, PQ_Q), cfg)
        assert sub.dim == 2


class TestChainDecomposition:
    def test_weighted_shift_layers_are_coordinates(self, rng, cfg):
        t = weighted_shift(random_weights(rng, 31), 32)
        chain = chain_decomposition(t, cfg)
        assert chain.dims["V"] == [1] * (chain.depth + 1)
        for k, v in enumerate(chain.V):
            expect = np.zeros(32)
            expect[k] = 1.0
            assert np.linalg.norm(v.projector() - np.outer(expect, expect)) <= 1e-10

    def test_hardy_layer_dims(self, cfg):
        t = shift_plus_rank_one([0.5] * 15, 1.0, 0, 16)
        chain = chain_decomposition(t, cfg)
        assert chain.dims["V"][0] == 2
        assert all(d == 1 for d in chain.dims["V"][1:])

    def test_layers_nonzero_while_moduli_finite(self, rng, cfg):
        t = shift_plus_rank_one(random_weights(rng, 23), 0.2 + 0.3j, 2, 24)
        chain = chain_decomposition(t, cfg)
        assert chain.moduli_status == "stable"
        assert all(d > 0 for d in chain.dims["V"])

    def test_dims_weakly_decreasing(self, rng, cfg):
        for model in suite_instances(rng).values():
            chain = chain_decomposition(model, cfg)
            assert chain.notes["v_dims_weakly_decreasing"], model.family

    def test_defects_inside_layers(self, rng, cfg):
        t = weighted_shift(random_weights(rng, 23), 24)
        chain = chain_decomposition(t, cfg)
        # E_n = <e_n> for a shift
        for n, d in enumerate(chain.defects):
            assert d.dim == 1
            assert abs(d.frame[n, 0]) == pytest.approx(1.0)

    def test_non_injective_rejected(self, cfg):
        with pytest.raises(NotInjectiveOnWindow):
            chain_decomposition(projection_product(PQ_P, PQ_Q), cfg)

    def test_depth_capping(self, cfg):
        t = weighted_shift([1.0] * 11, 12)
        assert effective_depth(t, cfg) == 4  # keeps at least 8 window indices


class TestIsometryTower:
    def test_isometry_levels(self, cfg):
        # for an isometry, theta_n is T^n itself and r_n the identity, on
        # the part of the block the window still certifies
        t = weighted_shift([1.0] * 19, 20)
        tower = isometry_tower(t, cfg)
        w = tower.block.w
        for lvl in tower.levels:
            wn = tower.block.window(lvl.n)
            expect = np.linalg.matrix_power(tower.block.matrix, lvl.n)
            assert np.linalg.norm((lvl.theta - expect)[:, :wn]) <= 1e-12
            assert np.linalg.norm(lvl.r[:wn, :wn] - np.eye(wn)) <= 1e-12

    def test_weighted_shift_theta_is_unweighted_power(self, rng, cfg):
        t = weighted_shift(rng.uniform(0.6, 1.4, 23), 24)
        tower = isometry_tower(t, cfg)
        w = tower.block.w
        s = np.zeros((w, w))
        s[np.arange(1, w), np.arange(w - 1)] = 1.0
        for lvl in tower.levels:
            assert np.linalg.norm(lvl.theta - np.linalg.matrix_power(s, lvl.n)) <= 1e-10

    def test_factor_identities(self, rng, cfg):
        t = shift_plus_rank_one(random_weights(rng, 23), 0.3 + 0.4j, 2, 24)
        tower = isometry_tower(t, cfg)
        for lvl in tower.levels:
            assert lvl.residuals["rstar_r_vs_gram"] <= 1e-9
            assert lvl.residuals["r_two_routes"] <= 1e-9
            assert lvl.residuals["reconstruct"] <= 1e-9
            assert lvl.residuals["theta_partial_isometry"] <= 1e-10

    def test_requires_half_centered(self, cfg):
        n = 20
        bad = np.zeros((n, n))
        bad[np.arange(1, n), np.arange(n - 1)] = 1.0
        bad[0, 5] = 1.0
        bad[2, 5] = 0.7  # breaks the weighted-composition structure
        from hclab import from_matrix

        with pytest.raises(NotHalfCentered):
            isometry_tower(from_matrix(bad, exact=False), cfg)


class TestVerifyChainStructure:
    @pytest.mark.parametrize("name", ["weighted_shift", "rank_one_n2", "hardy",
                                      "aq", "composition_cycle"])
    def test_structural_suite(self, rng, name):
        cfg = ToleranceConfig(depth=5)
        model = suite_instances(rng)[name]
        chain = chain_decomposition(model, cfg)
        tower = isometry_tower(model, cfg)
        table = verify_chain_structure(model, chain, tower, cfg)
        for key, tol in STRUCT_TOLERANCES.items():
            assert table[key] <= tol, (name, key, table[key])
        assert table["v_dims_weakly_decreasing"]
        if table["isisis_sigma_min"] is not None:
            assert table["isisis_sigma_min"] > cfg.rank_tol

    def test_direct_sum_reconstructs_chain_span(self, rng, cfg):
        t = shift_plus_rank_one(random_weights(rng, 23), 0.1 + 0.2j, 1, 24)
        chain = chain_decomposition(t, cfg)
        p = sum(v.projector() for v in chain.V)
        assert np.linalg.norm(p - chain.X[-1].projector()) <= 1e-10

    def test_complement_dims_reported(self, rng, cfg):
        t = weighted_shift(random_weights(rng, 23), 24)
        chain = chain_decomposition(t, cfg)
        tower = isometry_tower(t, cfg)
        table = verify_chain_structure(t, chain, tower, cfg)
        assert len(table["space1_complement_dims"]) == chain.depth


def _verify_pipeline(t, cfg):
    half = half_centered_check(t, cfg)
    chain = chain_decomposition(t, cfg)
    tower = isometry_tower(t, cfg)
    return {"half": half.as_dict(), "tower": tower.as_dict(),
            "structure": verify_chain_structure(t, chain, tower, cfg)}


class TestSharedDerivations:
    """A model memoizes what is derived from it; the stages share those
    values, and no result may depend on which stage asked first."""

    def test_stages_share_one_block_and_half_report(self, cfg):
        t = aq_operator(0.5, 5.0, 32)
        assert chain_decomposition(t, cfg).block is isometry_tower(t, cfg).block
        assert half_centered_check(t, cfg) is half_centered_check(t, cfg)
        assert half_centered_check(t, cfg.with_depth(3)).depth == 3

    @pytest.mark.parametrize("family", ["aq", "rank_one"])
    def test_results_do_not_depend_on_call_order(self, rng, cfg, family):
        weights = random_weights(rng, 31)

        def build():
            if family == "aq":
                return aq_operator(0.5, 5.0, 32)
            return shift_plus_rank_one(weights, 0.3 + 0.4j, 2, 32)

        stages = {
            "classify": lambda t: classify(t, cfg).as_dict(),
            "centered": lambda t: centered_check(t, cfg).as_dict(),
            "verify": lambda t: _verify_pipeline(t, cfg),
        }
        fresh = {name: stage(build()) for name, stage in stages.items()}
        for order in (["classify", "centered", "verify"], ["verify", "centered", "classify"]):
            t = build()
            assert {name: stages[name](t) for name in order} == fresh

    def test_new_models_start_with_an_empty_memo(self, rng, cfg):
        t = aq_operator(0.5, 5.0, 32)
        report = classify(t, cfg)
        assert t._memo
        assert replace(t, family="copy")._memo == {}
        u = t.conjugated(random_unitary(rng, 32))
        assert u._memo == {}
        assert classify(u, cfg).verdict == report.verdict
        assert centered_check(u, cfg).centered == centered_check(t, cfg).centered


class TestOneDerivationPerBlock:
    """The analysis block keeps its powers and its grams' operator norms, and
    the stages read them instead of taking them again."""

    @pytest.fixture
    def norm_calls(self, monkeypatch):
        calls = []
        norm = np.linalg.norm

        def counting(x, ord=None, *args, **kwargs):
            if ord == 2:
                calls.append(np.shape(x))
            return norm(x, ord, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "norm", counting)
        return calls

    def test_block_powers_and_scales_are_the_numpy_values(self, sro32, rng, cfg):
        for t in (sro32, sro32.conjugated(random_unitary(rng, 32))):
            block = analysis_block(t, cfg)
            assert len(block.powers) == len(block.grams) == len(block.scales) == block.depth + 1
            for k in range(block.depth + 1):
                assert np.array_equal(block.powers[k], np.linalg.matrix_power(block.matrix, k))
                assert block.scales[k] == np.linalg.norm(block.grams[k], 2)

    def test_structural_suite_takes_each_norm_once(self, sro32, cfg, norm_calls):
        chain = chain_decomposition(sro32, cfg)
        tower = isometry_tower(sro32, cfg)
        norm_calls.clear()
        verify_chain_structure(sro32, chain, tower, cfg)
        assert len(norm_calls) <= chain.depth + 2

    def test_chain_takes_each_gram_norm_once(self, sro32, cfg, norm_calls):
        chain = chain_decomposition(sro32, cfg)      # a fresh model: nothing memoized yet
        assert len(norm_calls) <= chain.depth + 2

    def test_pair_tables_take_one_norm_per_windowed_gram(self, sro32, cfg, norm_calls):
        report = centered_check(sro32, cfg)
        outer = {"gram-gram": (False, False), "cogram-cogram": (True, True),
                 "gram-cogram": (False, True)}
        distinct = set()
        for p in report.pairs:
            left, right = outer[p["kind"]]
            w = sro32.window(p["j"] + p["k"])
            distinct |= {(p["j"], left, w), (p["k"], right, w)}
        assert report.depth == 6 and len(distinct) == 72
        assert len(norm_calls) == len(distinct)


class TestWanderingSpan:
    def test_shift_kernel_is_wandering(self, rng, cfg):
        from hclab import wandering_span

        t = weighted_shift(random_weights(rng, 23), 24)
        span, status = wandering_span(t, cfg)
        assert status == "capped" and span.dim == 24

    def test_dual_of_corner_shift_is_not(self, cfg):
        _assert_dual_misses_geometric_direction(0.5, 24, cfg)

    def test_dual_of_steep_corner_shift_keeps_its_frame(self, cfg):
        # the dual's powers grow like (1/a)^k, so the stacked cut scale
        # rank_tol * max|T^k seed| passes 1 near k = 20; a cut on the whole
        # stack then also dropped the frame built so far (dim 20 fell to 1)
        _assert_dual_misses_geometric_direction(0.3, 24, cfg)


def _assert_dual_misses_geometric_direction(a, n, cfg):
    # the dual misses exactly the geometric direction, which is an
    # eigenvector of the original operator and hence lies in every range
    from hclab import cauchy_dual, wandering_span

    t = shift_plus_rank_one([a] * (n - 1), 1.0, 0, n)
    dual = cauchy_dual(t)
    span, status = wandering_span(dual, cfg)
    assert status == "stable"
    assert span.dim == n - 1
    geo = np.array([a ** j for j in range(n)], dtype=complex)
    geo /= np.linalg.norm(geo)
    leak = geo - span.frame @ (span.frame.conj().T @ geo)
    assert np.linalg.norm(leak) >= 1 - 1e-6
    img = t.matrix @ geo
    w = t.window(1)
    ratio = img[0] / geo[0]
    assert np.linalg.norm((img - ratio * geo)[:w]) <= 1e-12


def _stacked_span_closure(model, cfg, seed_space):
    """Reference closure: re-factor the whole stack [frame, T^k seed] each step."""
    frame = seed_space.frame
    layer = frame
    for _ in range(model.dim + 1):
        layer = model.matrix @ layer
        grown = orthonormalize([frame, layer], rank_tol=cfg.rank_tol)
        if grown.dim == frame.shape[1]:
            return grown, "stable"
        frame = grown.frame
        if grown.dim >= model.dim:
            return grown, "capped"
    return Subspace(frame, cfg.rank_tol), "stable"


def _parity_model(family, n, rng):
    if family == "ws":
        return weighted_shift(random_weights(rng, n - 1), n)
    if family == "sro":
        return shift_plus_rank_one(random_weights(rng, n - 1), 0.3 + 0.4j, 2, n)
    if family == "hardy":
        return shift_plus_rank_one([0.5] * (n - 1), 1.0, 0, n)
    return aq_operator(float(family[2:]), None, n)


class TestSpanClosureParity:
    """The block closure decides every rank exactly as the stacked SVD does."""

    @pytest.mark.parametrize("conj", [False, True], ids=["plain", "conjugated"])
    @pytest.mark.parametrize("n", [16, 32, 64])
    @pytest.mark.parametrize("family", ["ws", "sro", "hardy", "aq0.3", "aq0.5", "aq0.7"])
    def test_matches_stacked_reference(self, family, n, conj, cfg):
        rng = np.random.default_rng(n)
        model = _parity_model(family, n, rng)
        if conj:
            model = model.conjugated(random_unitary(rng, n))
        seeds = {
            "ker T*": kernel_of_adjoint(model, cfg),
            "M_E": chain_decomposition(model, cfg).M_E,
        }
        for name, seed in seeds.items():
            ref, ref_status = _stacked_span_closure(model, cfg, seed)
            got, status = span_closure(model, cfg, seed)
            assert (got.dim, status) == (ref.dim, ref_status), name
            # a closure that stops below N ends on directions at the cut,
            # where the two factorizations may rotate by far more than roundoff
            if status == "capped":
                gap = np.linalg.norm(got.projector() - ref.projector(), 2)
                assert gap <= 1e-12, name
