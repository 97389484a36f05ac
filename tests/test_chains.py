import json
import sys
from dataclasses import replace

import numpy as np
import pytest

from hclab import (
    OperatorModel,
    Subspace,
    ToleranceConfig,
    aq_operator,
    centered_check,
    chain_decomposition,
    classify,
    composition_operator,
    enumerate_triples,
    from_matrix,
    gram_power,
    half_centered_check,
    isometry_tower,
    kernel_of_adjoint,
    orthonormalize,
    projection_product,
    real_gauge,
    shift_plus_rank_one,
    spectral_correspondence_check,
    structure_extract,
    verify_chain_structure,
    weighted_shift,
)
import hclab.chains
import hclab.classifier
import hclab.commutation
import hclab.linalg
from hclab.chains import _moduli_on_block, _walk as walk, krylov_closure
from hclab.cli import cmd_classify, main
from hclab.commutation import (RowMap, _band_rows, _gram_on, _power_product, _singular_pairs,
                               _window_gram_norm, _window_view, analysis_depth,
                               effective_depth)
from hclab.errors import NotHalfCentered, NotInjectiveOnWindow
from hclab.linalg import _hermitian_view, _split_norm, positive_sqrt
from hclab.spectral import _moduli_spectrum

from conftest import (cauchy_dual, family_model, lift, moduli_subspace, random_unitary,
                      random_weights)

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
        for k, v in enumerate(chain.V_block):
            v = lift(chain, v)
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
        # E_n = <e_n> for a shift; the frames are checked against the
        # complement oracle in TestDefectsFromProjectors
        assert chain.dims["defects"] == [1] * chain.depth

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
        chain = chain_decomposition(weighted_shift([1.0] * 19, 20), cfg)
        tower = isometry_tower(chain)
        for lvl in tower:
            wn = chain.model.window(chain.depth + lvl.n)
            expect = np.linalg.matrix_power(chain.matrix, lvl.n)
            assert np.linalg.norm((lvl.theta - expect)[:, :wn]) <= 1e-12
            r = positive_sqrt(chain.grams[lvl.n])
            assert np.linalg.norm(r[:wn, :wn] - np.eye(wn)) <= 1e-12

    def test_weighted_shift_theta_is_unweighted_power(self, rng, cfg):
        chain = chain_decomposition(weighted_shift(rng.uniform(0.6, 1.4, 23), 24), cfg)
        tower, w = isometry_tower(chain), chain.w
        s = np.zeros((w, w))
        s[np.arange(1, w), np.arange(w - 1)] = 1.0
        for lvl in tower:
            assert np.linalg.norm(lvl.theta - np.linalg.matrix_power(s, lvl.n)) <= 1e-10

    def test_factor_identities(self, rng, cfg):
        # r_n r_n = G_n and the partial isometry of theta_n hold by
        # construction; test_linalg checks them on the tower's inputs
        t = shift_plus_rank_one(random_weights(rng, 23), 0.3 + 0.4j, 2, 24)
        tower = isometry_tower(chain_decomposition(t, cfg))
        for lvl in tower:
            assert set(lvl.residuals) == {"reconstruct", "r_two_routes"}
            assert lvl.residuals["r_two_routes"] <= 1e-9
            assert lvl.residuals["reconstruct"] <= 1e-9

    @pytest.mark.parametrize("conj", [False, True], ids=["plain", "conjugated"])
    def test_levels_past_the_window_read_roundoff(self, rng, cfg, conj):
        # at levels 5 and 6 of ws at N = 16 the certified corner [:wn, :wn]
        # holds none of T_b^n (wn <= n); each residual is read on that corner
        # over the whole factor, so it stays at roundoff in any basis
        model = weighted_shift(random_weights(rng, 15), 16)
        if conj:
            model = model.conjugated(random_unitary(rng, 16))
        chain = chain_decomposition(model, cfg)
        tower = isometry_tower(chain)
        table = verify_chain_structure(chain)
        bound = 100 * chain.w * np.finfo(float).eps
        assert [lvl.n for lvl in tower] == [1, 2, 3, 4, 5, 6]
        for lvl in tower[4:]:
            wn = model.window(chain.depth + lvl.n)
            assert wn <= lvl.n
            if not conj:
                assert not chain.powers[lvl.n][:wn, :wn].any()
            assert lvl.residuals["reconstruct"] <= bound, lvl.n
            assert lvl.residuals["r_two_routes"] <= bound, lvl.n
        assert table["key"] <= bound and table["labann"] <= bound

    def test_one_tower_per_chain(self, sro32, cfg, monkeypatch):
        chain = chain_decomposition(sro32, cfg)
        tower = isometry_tower(chain)
        assert isometry_tower(chain) is tower
        polars, roots = [], []
        polar, positive_sqrt = hclab.chains.polar, hclab.chains.positive_sqrt

        def counting_polar(a, **kwargs):
            polars.append(a)
            return polar(a, **kwargs)

        def counting_sqrt(a):
            roots.append(a)
            return positive_sqrt(a)

        monkeypatch.setattr(hclab.chains, "polar", counting_polar)
        monkeypatch.setattr(hclab.chains, "positive_sqrt", counting_sqrt)
        verify_chain_structure(chain)
        # the suite reads the chain's tower: no level is factored again,
        # and its own polars are key's composed isometries, one per level
        assert roots == []
        assert len(polars) == len(tower)
        assert not any(a is p for a in polars for p in chain.powers)

    def test_requires_half_centered(self, cfg):
        n = 20
        bad = np.zeros((n, n))
        bad[np.arange(1, n), np.arange(n - 1)] = 1.0
        bad[0, 5] = 1.0
        bad[2, 5] = 0.7  # breaks the weighted-composition structure
        from hclab import from_matrix

        with pytest.raises(NotHalfCentered):
            isometry_tower(chain_decomposition(from_matrix(bad, exact=False), cfg))


class TestVerifyChainStructure:
    @pytest.mark.parametrize("build, depth, expect", [
        (lambda: aq_operator(0.5, 5.0, 32), 3, 3),
        (lambda: aq_operator(0.5, 5.0, 32), 6, 6),
        # analysis_depth 5, but the block keeps MIN_WINDOW indices at depth 4
        (lambda: weighted_shift([1.0] * 11, 12), 6, 4),
    ], ids=["aq_depth3", "aq_depth6", "ws12"])
    def test_suite_and_tower_read_the_chains_depth(self, build, depth, expect):
        model, cfg = build(), ToleranceConfig(depth=depth)
        chain = chain_decomposition(model, cfg)
        tower = isometry_tower(chain)
        table = verify_chain_structure(chain)
        assert table["depth"] == chain.depth == len(tower) == expect
        assert effective_depth(model, cfg) == expect <= analysis_depth(model, cfg)
        assert table["labann"] == max(max(lvl.residuals.values()) for lvl in tower)

    @pytest.mark.parametrize("name", ["weighted_shift", "rank_one_n2", "hardy",
                                      "aq", "composition_cycle"])
    def test_structural_suite(self, rng, name):
        cfg = ToleranceConfig(depth=5)
        model = suite_instances(rng)[name]
        table = verify_chain_structure(chain_decomposition(model, cfg))
        for key, tol in STRUCT_TOLERANCES.items():
            assert table[key] <= tol, (name, key, table[key])
        assert table["v_dims_weakly_decreasing"]
        if table["isisis_sigma_min"] is not None:
            assert table["isisis_sigma_min"] > cfg.rank_tol

    def test_direct_sum_reconstructs_chain_span(self, rng, cfg):
        t = shift_plus_rank_one(random_weights(rng, 23), 0.1 + 0.2j, 1, 24)
        chain = chain_decomposition(t, cfg)
        p = sum(lift(chain, v).projector() for v in chain.V_block)
        assert np.linalg.norm(p - lift(chain, chain.X_block[-1]).projector()) <= 1e-10

    def test_complement_dims_reported(self, rng, cfg):
        t = weighted_shift(random_weights(rng, 23), 24)
        chain = chain_decomposition(t, cfg)
        table = verify_chain_structure(chain)
        assert len(table["space1_complement_dims"]) == chain.depth


def _verify_pipeline(t, cfg):
    half = half_centered_check(t, cfg)
    chain = chain_decomposition(t, cfg)
    tower = isometry_tower(chain)
    return {"half": half, "tower": [lvl.residuals for lvl in tower],
            "structure": verify_chain_structure(chain)}


class TestSharedDerivations:
    """A model memoizes what is derived from it; the stages share those
    values, and no result may depend on which stage asked first."""

    def test_stages_share_one_block_and_half_report(self, cfg):
        t = aq_operator(0.5, 5.0, 32)
        chain = chain_decomposition(t, cfg)
        assert all(lvl.theta.shape == (chain.w, chain.w) for lvl in isometry_tower(chain))
        assert half_centered_check(t, cfg) == half_centered_check(t, cfg)
        assert half_centered_check(t, replace(cfg, depth=3))["depth"] == 3

    @pytest.mark.parametrize("family", ["aq", "rank_one"])
    def test_results_do_not_depend_on_call_order(self, rng, cfg, family):
        weights = random_weights(rng, 31)

        def build():
            if family == "aq":
                return aq_operator(0.5, 5.0, 32)
            return shift_plus_rank_one(weights, 0.3 + 0.4j, 2, 32)

        stages = {
            "classify": lambda t: classify(t, cfg),
            "centered": lambda t: centered_check(t, cfg),
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
        assert classify(u, cfg)["verdict"] == report["verdict"]
        assert (centered_check(u, cfg)["verdict"]["centered"]
                == centered_check(t, cfg)["verdict"]["centered"])


class TestOneDerivationPerBlock:
    """The chain keeps its block powers and its grams' operator norms, and
    the stages read them instead of taking them again."""

    @pytest.fixture
    def eigval_calls(self, monkeypatch):
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def counting(h, *args, **kwargs):
            calls.append(np.shape(h))
            return eigvalsh(h, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        return calls

    @pytest.fixture
    def hermitian_parts(self, monkeypatch):
        calls = []
        part = hclab.linalg._hermitian_part

        def counting(h):
            calls.append(np.shape(h))
            return part(h)

        monkeypatch.setattr(hclab.linalg, "_hermitian_part", counting)
        monkeypatch.setattr(hclab.commutation, "_hermitian_part", counting)
        return calls

    @staticmethod
    def form_grams(model, cfg, hermitian_parts):
        """Form the grams and co-grams the pair tables read, each symmetrized
        once by ``_power_product``, and start the count over after them."""
        K = analysis_depth(model, cfg)
        hermitian_parts.clear()
        for k in range(1, K + 1):
            for outer in (False, True):
                _power_product(model, k, outer)
        assert hermitian_parts == [(model.dim, model.dim)] * (2 * K)
        hermitian_parts.clear()

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

    def test_block_powers_are_running_products_and_scales_hermitian_norms(self, sro32, rng,
                                                                           cfg):
        eps = np.finfo(float).eps
        for t in (sro32, sro32.conjugated(random_unitary(rng, 32))):
            chain = chain_decomposition(t, cfg)
            assert len(chain.powers) == len(chain.grams) == len(chain.scales) == chain.depth + 1
            power = np.eye(chain.w, dtype=chain.matrix.dtype)
            for k in range(chain.depth + 1):
                assert np.array_equal(chain.powers[k], power)
                power = np.matmul(power, chain.matrix)
                assert chain.scales[k] == _split_norm(*_hermitian_view(chain.grams[k]))
                svd_norm = np.linalg.norm(chain.grams[k], 2)
                assert abs(chain.scales[k] - svd_norm) <= 4 * chain.w * eps * chain.scales[k]

    @pytest.mark.parametrize("conj", [False, True], ids=["plain", "conjugated"])
    @pytest.mark.parametrize("family", ["ws", "sro", "hardy", "aq0.5r5"])
    def test_chain_grams_are_the_model_memo(self, family, conj, cfg):
        # one cache of grams: the chain holds the model's window views and
        # their norms, not copies
        rng = np.random.default_rng(32)
        model = family_model(family, 32, rng)
        if conj:
            model = model.conjugated(random_unitary(rng, 32))
        chain = chain_decomposition(model, cfg)
        assert len(chain.grams) == len(chain.scales) == chain.depth + 1
        for k in range(chain.depth + 1):
            assert chain.grams[k] is _window_view(model, k, False, chain.w)[0]
            norm = _window_gram_norm(model, k, False, chain.w)
            assert float(chain.scales[k]).hex() == float(norm).hex(), k  # bit for bit

    def test_structural_suite_takes_each_norm_once(self, sro32, cfg, norm_calls):
        chain = chain_decomposition(sro32, cfg)
        norm_calls.clear()
        verify_chain_structure(chain)
        assert len(norm_calls) <= chain.depth + 2

    def test_chain_takes_each_gram_norm_once(self, sro32, cfg, norm_calls):
        chain = chain_decomposition(sro32, cfg)      # a fresh model: nothing memoized yet
        assert len(norm_calls) <= chain.depth + 2

    @staticmethod
    def windowed_grams(model, report) -> set:
        """(power, co-gram, window) of every windowed gram the pairs read."""
        outer = {"gram-gram": (False, False), "cogram-cogram": (True, True),
                 "gram-cogram": (False, True)}
        distinct = set()
        for p in report["pairs"]:
            left, right = outer[p["kind"]]
            w = model.window(p["j"] + p["k"])
            distinct |= {(p["j"], left, w), (p["k"], right, w)}
        return distinct

    def test_pair_tables_take_one_norm_per_windowed_gram(self, sro32, cfg, norm_calls,
                                                         eigval_calls, hermitian_parts):
        # one factorization per coupled block of the views the pairs read
        # (windows with the same coupled rows share it, diagonal ones take
        # none): the norms symmetrize nothing and take no singular values
        self.form_grams(sro32, cfg, hermitian_parts)
        report = centered_check(sro32, cfg)
        distinct = self.windowed_grams(sro32, report)
        assert report["depth"] == 6 and len(distinct) == 72
        blocks = {(k, outer, tuple(np.flatnonzero(coupled)))
                  for k, outer, w in distinct
                  for coupled in [hclab.commutation._window_view(sro32, k, outer, w)[1]]
                  if coupled.any()}
        assert sorted(eigval_calls) == sorted((len(rows),) * 2 for _, _, rows in blocks)
        assert not hermitian_parts
        assert not norm_calls

    @pytest.mark.parametrize("name", ["shift32", "sro32", "hardy24", "aq48"])
    def test_unrotated_centered_check_forms_no_hermitian_part(self, name, request, cfg,
                                                              hermitian_parts):
        model = request.getfixturevalue(name)
        self.form_grams(model, cfg, hermitian_parts)   # after aq's positive square root
        centered_check(model, cfg)
        assert not hermitian_parts

    def test_rotated_centered_check_symmetrizes_each_gram_once(self, sro32, rng, cfg,
                                                               hermitian_parts, monkeypatch):
        # every windowed gram is a leading block of one table per power and
        # family: 72 windows, 12 compressions and 12 symmetrizations
        model = sro32.conjugated(random_unitary(rng, 32))
        compressions = []
        compress = OperatorModel.window_compress

        def counting(self, m, w):
            compressions.append(w)
            return compress(self, m, w)
        monkeypatch.setattr(OperatorModel, "window_compress", counting)
        self.form_grams(model, cfg, hermitian_parts)
        report = centered_check(model, cfg)
        assert len(self.windowed_grams(model, report)) == 72
        assert compressions == [32] * 12
        assert hermitian_parts == [(32, 32)] * 12

    def test_exactly_commuting_pairs_take_no_norm(self, shift32, cfg, norm_calls):
        # the grams and co-grams of a weighted shift are diagonal: every pair
        # commutes exactly, and its residual is 0 without the two norms
        report = centered_check(shift32, cfg)
        assert not norm_calls
        assert report["depth"] == 6 and len(report["pairs"]) == 66
        co_gram = lambda t, k: _power_product(t, k, True)
        families = {"gram-gram": (gram_power, gram_power),
                    "cogram-cogram": (co_gram, co_gram),
                    "gram-cogram": (gram_power, co_gram)}
        for p in report["pairs"]:
            w = shift32.window(p["j"] + p["k"])
            left, right = families[p["kind"]]
            a = left(shift32, p["j"])[:w, :w]
            b = right(shift32, p["k"])[:w, :w]
            expect = np.linalg.norm(a @ b - b @ a) / (np.linalg.norm(a, 2) * np.linalg.norm(b, 2))
            assert p["residual"] == expect == 0.0


class TestLazyChain:
    """The chain and its ranges H_n are built when first read, once per
    chain; classify reads none of them."""

    @pytest.fixture
    def calls(self, monkeypatch):
        """The ranges built."""
        calls = {"ranges": []}
        range_space = hclab.chains._range_space

        def counting_range(*args):
            calls["ranges"].append(range_space(*args))
            return calls["ranges"][-1]

        monkeypatch.setattr(hclab.chains, "_range_space", counting_range)
        return calls

    def test_classify_builds_no_range_or_defect(self, sro32, cfg, calls):
        for t in (sro32, aq_operator(0.5, 5.0, 48)):
            classify(t, cfg)
        assert calls == {"ranges": []}

    def test_classify_and_spectral_form_no_block_power(self, sro32, cfg, monkeypatch):
        chains = []
        build = hclab.classifier.chain_decomposition
        monkeypatch.setattr(hclab.classifier, "chain_decomposition",
                            lambda *args: chains.append(build(*args)) or chains[-1])
        for t in (sro32, aq_operator(0.5, 5.0, 48)):
            classify(t, cfg)
            chains.append(chain_decomposition(t, cfg))
            spectral_correspondence_check(chains[-1])
        assert len(chains) == 4
        assert not any("powers" in vars(chain) for chain in chains)

    @pytest.mark.parametrize("command", ["decompose", "verify"])
    def test_decompose_and_verify_build_each_range_and_defect_once(
            self, capsys, calls, command):
        assert main([command, "--family", "aq", "--q", "0.5", "--r", "5", "--n", "32"]) == 0
        doc = json.loads(capsys.readouterr().out)
        report = doc if command == "decompose" else doc["structure"]
        assert len(calls["ranges"]) == report["depth"] + 1
        assert len(report["dims"]["defects"]) == report["depth"]

    def test_each_lazy_part_is_built_once(self, sro32, cfg, calls):
        chain = chain_decomposition(sro32, cfg)
        assert calls["ranges"] == [] and "_chain" not in vars(chain)
        for _ in range(2):
            assert chain.H is chain.H
            assert chain.dims is chain.dims and chain.V_block is chain.V_block
        assert len(calls["ranges"]) == chain.depth + 1
        H = chain.H
        assert chain.dims["defects"] == [a.dim - b.dim for a, b in zip(H, H[1:])]


def _wandering_span(model, cfg):
    """The closure of ker T* under T, cut at ``cfg.rank_tol * ||T||_2``, and
    its status: ``"capped"`` when the spans of T^k(ker T*) fill the space."""
    frame, status = krylov_closure(model.matrix, kernel_of_adjoint(model, cfg).frame,
                                   _singular_pairs(model)[1][0], cfg.rank_tol)
    return Subspace(frame), status


class TestWanderingSpan:
    def test_shift_kernel_is_wandering(self, rng, cfg):
        t = weighted_shift(random_weights(rng, 23), 24)
        span, status = _wandering_span(t, cfg)
        assert status == "capped" and span.dim == 24

    def test_dual_of_corner_shift_is_not(self, cfg):
        _assert_dual_misses_geometric_direction(0.5, 24, cfg)

    def test_dual_of_steep_corner_shift_keeps_its_frame(self, cfg):
        # the dual's powers grow like (1/a)^k, so the stacked cut scale
        # rank_tol * max|T^k seed| passes 1 near k = 20; a cut on the whole
        # stack then also dropped the frame built so far (dim 20 fell to 1)
        _assert_dual_misses_geometric_direction(0.3, 24, cfg)

    @pytest.mark.parametrize("a", [0.3, 0.5])
    def test_dual_at_48_drops_only_the_boundary_step(self, a, cfg):
        # the last step's direction comes from the truncation's boundary; at
        # N = 48 it falls below the rank cut (3e-15 and 8e-26 of ||T||_2 for
        # a = 0.5 and 0.3), at N = 24, a = 0.5 (5e-8) the gap rule drops it
        _assert_dual_misses_geometric_direction(a, 48, cfg)


def _assert_dual_misses_geometric_direction(a, n, cfg):
    # the dual misses exactly the geometric direction, which is an
    # eigenvector of the original operator and hence lies in every range
    t = shift_plus_rank_one([a] * (n - 1), 1.0, 0, n)
    span, status = _wandering_span(cauchy_dual(t), cfg)
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


def _stacked_closure(matrix, seed_space, rank_tol):
    """Reference closure: re-factor the whole stack [frame, T^k seed] each step
    (a seed that fills the space, as aq's M_E fills the block, is capped)."""
    n = matrix.shape[0]
    grown, layer = seed_space, seed_space.frame
    for _ in range(n + 1):
        if grown.dim >= n:
            return grown, "capped"
        frame, layer = grown.frame, matrix @ layer
        grown = orthonormalize([frame, layer], rank_tol=rank_tol)
        if grown.dim == frame.shape[1]:
            return grown, "stable"
    pytest.fail(f"the stacked closure still grew after {n + 1} layers")


def _block_closure(chain):
    """The closure of M_E under T_b that condition II builds, and its status:
    ``_condition_II`` run without a normal form, its one ``krylov_closure``
    call recorded; an M_E that fills the block is its own capped closure,
    and condition II builds none."""
    calls = []

    def recording(*args, **kwargs):
        calls.append(krylov_closure(*args, **kwargs))
        return calls[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(hclab.classifier, "krylov_closure", recording)
        hclab.classifier._condition_II(chain, 0, {})
    if chain.M_E_block.dim == chain.w:
        assert calls == []
        return chain.M_E_block, "capped"
    [(frame, status)] = calls
    return Subspace(frame), status


def _ambient_M_E(model, cfg):
    chain = chain_decomposition(model, cfg)
    return lift(chain, chain.M_E_block)


class TestSpanClosureParity:
    """The closure decides every rank as the stacked SVD does, or fills the
    space where the stacked cut stopped on a decaying layer: ker T* under T
    (``_wandering_span``), and M_E under T_b (condition II)."""

    @pytest.mark.parametrize("conj", [False, True], ids=["plain", "conjugated"])
    @pytest.mark.parametrize("n", [16, 32, 64])
    @pytest.mark.parametrize("family", ["ws", "sro", "hardy", "aq0.3", "aq0.5", "aq0.7"])
    def test_matches_stacked_reference(self, family, n, conj, cfg):
        rng = np.random.default_rng(n)
        model = family_model(family, n, rng)
        if conj:
            model = model.conjugated(random_unitary(rng, n))
        chain = chain_decomposition(model, cfg)
        runs = {  # (matrix, seed, closure and status, the columns it must fill)
            "ker T*": (model.matrix, kernel_of_adjoint(model, cfg), _wandering_span(model, cfg),
                       model.window_cols(model.window(effective_depth(model, cfg)))),
            "M_E": (chain.matrix, chain.M_E_block, _block_closure(chain),
                    np.eye(chain.w)),
        }
        for name, (matrix, seed, (got, status), probe) in runs.items():
            ref, ref_status = _stacked_closure(matrix, seed, cfg.rank_tol)
            if got.dim != ref.dim:
                # the stacked cut stops where T^k(seed) decays past it (hardy
                # at N = 64 stops at 35); the closure must then fill the space
                assert status == "capped", name
                leak = probe - got.frame @ (got.frame.conj().T @ probe)
                assert np.linalg.norm(leak, 2) <= 1e-14, name
                continue
            assert (got.dim, status) == (ref.dim, ref_status), name
            # a closure that stops below N ends on directions at the cut,
            # where the two factorizations may rotate by far more than roundoff
            if status == "capped":
                gap = np.linalg.norm(got.projector() - ref.projector(), 2)
                assert gap <= 1e-12, name


def _three_pass_closure(matrix, seed, scale, rank_tol, frame=None, limit=None):
    """Reference closure: the Arnoldi loop with three passes on every step,
    two on the residual and one on the kept block, whatever they remove, and
    an SVD and a QR at every width."""
    n = seed.shape[0]
    limit = n if limit is None else min(limit, n)
    frame = np.zeros((n, 0)) if frame is None else frame
    d = frame.shape[1]
    buf = np.empty((n, n), dtype=np.result_type(matrix, seed, frame))
    buf[:, :d] = frame
    block, cut, low, edge = seed, 1.0, 0.0, None
    while True:
        done = buf[:, :d]
        resid = block - done @ (done.conj().T @ block)
        resid -= done @ (done.conj().T @ resid)
        u, s = np.linalg.svd(resid, full_matrices=False)[:2]
        r = min(hclab.linalg.numerical_rank(s, rank_tol, cut), limit - d)
        if r == 0:
            break
        edge = (edge or d) if s[0] <= 1e-3 * low else None
        fresh = u[:, :r] - done @ (done.conj().T @ u[:, :r])
        buf[:, d:d + r] = np.linalg.qr(fresh)[0]
        d += r
        if d >= limit:
            break
        low = s[r - 1] if block is not seed else 0.0
        block, cut = matrix @ buf[:, d - r:d], scale
    d = edge or d
    return buf[:, :d], "capped" if d >= limit else "stable"


def _counted_closure(monkeypatch, matrix, seed, scale, rank_tol):
    """``krylov_closure`` with its Gram-Schmidt passes counted: the frame, the
    status and, for each step, the widths of the blocks its passes projected
    (a step begins where T is applied; the seed step comes first)."""
    steps = [[]]
    project = hclab.chains._project_out

    def counting(done, done_h, x):
        steps[-1].append(x.shape[1] if x.ndim == 2 else 1)  # a one-wide step is a vector
        return project(done, done_h, x)

    class Counting(np.ndarray):
        def __matmul__(self, other):
            steps.append([])
            return np.asarray(self) @ other

    monkeypatch.setattr(hclab.chains, "_project_out", counting)
    frame, status = krylov_closure(matrix.view(Counting), seed, scale, rank_tol)
    return frame, status, steps


def _projector_gap(a, b):
    return np.linalg.norm(a @ a.conj().T - b @ b.conj().T, 2)


class TestKrylovClosure:
    """The Arnoldi closure behind every closure: M_E, condition II and the
    reconstruction basis, and the closure of ker T* under T."""

    def test_applies_t_to_each_kept_direction_once(self, cfg):
        widths = []

        class Counting(np.ndarray):
            def __matmul__(self, other):
                widths.append(other.shape[1] if other.ndim == 2 else 1)  # a vector is one wide
                return np.asarray(self) @ other

        for model in (aq_operator(0.5, None, 64), shift_plus_rank_one([0.5] * 47, 1.0, 0, 48)):
            widths.clear()
            seed = _ambient_M_E(model, cfg)
            frame, status = krylov_closure(model.matrix.view(Counting), seed.frame,
                                           np.linalg.norm(model.matrix, 2), cfg.rank_tol)
            assert widths and sum(widths) <= frame.shape[1]
            assert (sum(widths) == frame.shape[1]) == (status == "stable")
            assert np.linalg.norm(frame.conj().T @ frame - np.eye(frame.shape[1])) <= 1e-12

    @pytest.mark.parametrize("family, n", [("ws", 128), ("sro", 128), ("hardy", 128),
                                           ("dual0.3", 24), ("dual0.3", 48),
                                           ("dual0.5", 24), ("dual0.5", 48)])
    def test_one_pass_per_step_without_cancellation(self, family, n, cfg, monkeypatch):
        # the closures of ker T*: T maps each kept direction mostly outside
        # the frame (the Cauchy dual's boundary step loses at most 26% of its
        # norm), so no pass removes more than 1 - 1/sqrt(2) and none repeats
        if family.startswith("dual"):
            model = cauchy_dual(shift_plus_rank_one([float(family[4:])] * (n - 1), 1.0, 0, n))
        else:
            model = family_model(family, n, np.random.default_rng(n))
        frame, status, steps = _counted_closure(monkeypatch, model.matrix,
                                                kernel_of_adjoint(model, cfg).frame,
                                                np.linalg.norm(model.matrix, 2), cfg.rank_tol)
        assert status == ("stable" if family.startswith("dual") else "capped")
        assert all(widths == [1] for widths in steps)
        assert np.linalg.norm(frame.conj().T @ frame - np.eye(frame.shape[1])) <= 1e-12

    @pytest.mark.parametrize("family", ["sro", "hardy", "aq0.5", "invariant"])
    def test_cancelling_steps_repeat_the_pass(self, family, cfg, monkeypatch):
        # classify's closures of M_E: T folds part of M_E back into it, so a
        # wide step cancels; and a one-wide closure that ends on an invariant
        # subspace, whose last image lies in the frame up to roundoff
        rng = np.random.default_rng(128)
        if family == "invariant":
            blocks = np.zeros((32, 32), dtype=complex)
            blocks[:8, :8] = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
            blocks[8:, 8:] = rng.standard_normal((24, 24))
            u = random_unitary(rng, 32)
            matrix, seed = u @ blocks @ u.conj().T, u[:, :1]
        else:
            model = family_model(family, 128, rng)
            matrix, seed = model.matrix, _ambient_M_E(model, cfg).frame
        frame, status, steps = _counted_closure(monkeypatch, matrix, seed,
                                                np.linalg.norm(matrix, 2), cfg.rank_tol)
        # a step's passes: one, its repeats, and a wide step's pass on its kept block
        assert any(len(widths) > 1 + (widths[0] > 1) for widths in steps)
        assert max(len(widths) for widths in steps) <= 3
        assert np.linalg.norm(frame.conj().T @ frame - np.eye(frame.shape[1])) <= 1e-12
        if family == "invariant":
            assert (frame.shape[1], status) == (8, "stable")

    @pytest.mark.parametrize("family", ["ws", "hardy"])
    def test_never_more_than_three_passes(self, family, cfg, monkeypatch):
        # a pass that always halves its input cancels every time: each step
        # stops at three passes, a wide one's third being on its kept block
        # (the seed comes first: M_E's own closure runs the same passes)
        model = family_model(family, 16, np.random.default_rng(16))
        seed = _ambient_M_E(model, cfg)
        monkeypatch.setattr(hclab.chains, "_project_out", lambda done, done_h, x: x / 2)
        _, status, steps = _counted_closure(monkeypatch, model.matrix, seed.frame,
                                            np.linalg.norm(model.matrix, 2), cfg.rank_tol)
        assert status == "capped" and {widths[0] for widths in steps} == {seed.dim}
        assert all(len(widths) == 3 for widths in steps)

    @pytest.mark.parametrize("n, width", [(6, 0), (6, 2), (2, 2)])
    def test_empty_seed_returns_the_frame(self, n, width, cfg):
        # an (n, 0) seed adds nothing: no frame stays empty, a frame stays as it
        # is, capped when it fills the space
        rng = np.random.default_rng(n)
        t = rng.standard_normal((n, n))
        frame = np.linalg.qr(rng.standard_normal((n, n)))[0][:, :width]
        got, status = krylov_closure(t, np.zeros((n, 0)), np.linalg.norm(t, 2), cfg.rank_tol,
                                     frame=frame if width else None)
        assert np.array_equal(got, frame)
        assert status == ("capped" if width == n else "stable")

    @pytest.mark.parametrize("conj", [False, True], ids=["plain", "conjugated"])
    @pytest.mark.parametrize("family", ["sro", "hardy", "aq0.5"])
    def test_one_member_stack_is_its_matrix(self, family, conj, cfg):
        # a (1, n, n) stack takes the 2-D matrix's route bit for bit
        rng = np.random.default_rng(64)
        model = family_model(family, 64, rng)
        if conj:
            model = model.conjugated(random_unitary(rng, 64))
        scale = np.linalg.norm(model.matrix, 2)
        for seed in (kernel_of_adjoint(model, cfg), _ambient_M_E(model, cfg)):
            got, status = krylov_closure(model.matrix[None], seed.frame, scale, cfg.rank_tol)
            ref, ref_status = krylov_closure(model.matrix, seed.frame, scale, cfg.rank_tol)
            assert status == ref_status and np.array_equal(got, ref)

    @pytest.mark.parametrize("conj", [False, True], ids=["plain", "conjugated"])
    @pytest.mark.parametrize("n", [16, 32, 64])
    @pytest.mark.parametrize("family", ["ws", "sro", "hardy", "aq0.3", "aq0.5", "aq0.7"])
    def test_matches_three_pass_loop(self, family, n, conj, cfg):
        rng = np.random.default_rng(n)
        model = family_model(family, n, rng)
        if conj:
            model = model.conjugated(random_unitary(rng, n))
        scale = np.linalg.norm(model.matrix, 2)
        for seed in (kernel_of_adjoint(model, cfg), _ambient_M_E(model, cfg)):
            got, status = krylov_closure(model.matrix, seed.frame, scale, cfg.rank_tol)
            ref, ref_status = _three_pass_closure(model.matrix, seed.frame, scale, cfg.rank_tol)
            assert (got.shape[1], status) == (ref.shape[1], ref_status)
            if status == "capped":
                # projectors, not frames: a wide step's SVD may flip a column's sign
                assert _projector_gap(got, ref) <= 1e-12

    @pytest.mark.parametrize("conj", [False, True], ids=["plain", "conjugated"])
    @pytest.mark.parametrize("n", [16, 32, 64, 128])
    @pytest.mark.parametrize("family", ["sro", "hardy"])
    def test_reconstruction_chains_match_three_pass_loop(self, family, n, conj, cfg,
                                                         monkeypatch):
        rng = np.random.default_rng(n)
        model = family_model(family, n, rng)
        if conj:
            model = model.conjugated(random_unitary(rng, n))
        calls = []

        def recording(*args, **kwargs):
            calls.append((args, kwargs, krylov_closure(*args, **kwargs)))
            return calls[-1][2]

        monkeypatch.setattr(hclab.classifier, "krylov_closure", recording)
        assert classify(model, cfg)["reconstruction"] is not None
        # the chain of w to depth m, then that of v after it; the reference
        # replays on the dense T (classify may pass T's row map)
        ((_, w, scale, tol), first, (X, x_status)), ((_, v, _, _), _, (Y, y_status)) = calls
        T = model.matrix
        X_ref, X_ref_status = _three_pass_closure(T, w, scale, tol, limit=first["limit"])
        Y_ref, Y_ref_status = _three_pass_closure(T, v, scale, tol, frame=X_ref)
        assert (X.shape[1], x_status) == (X_ref.shape[1], X_ref_status)
        assert (X.shape[1], x_status) == (first["limit"], "capped")
        assert (Y.shape[1], y_status) == (Y_ref.shape[1], Y_ref_status)
        assert _projector_gap(X, X_ref) <= 1e-12
        if y_status == "capped":
            assert _projector_gap(Y, Y_ref) <= 1e-12

    @pytest.mark.parametrize("c, n", [(2, 128), (3, 64)])
    def test_scaled_weighted_shift_meets_condition_ii(self, c, n, cfg):
        # T^k e_0 grows like c^k: a cut on the raw layer's scale lost the
        # new directions, and the closure stopped at span e_0
        weights = c * np.random.default_rng(0).uniform(0.9, 1.1, n - 1)
        rep = classify(weighted_shift(weights, n), cfg)
        assert rep["condition_II_ok"] and rep["diagnostics"]["span_status"] == "capped"
        assert rep["diagnostics"]["span_defect"] <= 1e-14

    @pytest.mark.parametrize("small", [1e-3, 1e-6])
    def test_small_weight_inside_the_chain_is_kept(self, small, cfg):
        # the step past the small weight falls 1e3 or more below the one
        # before it, but the closure goes on after it: no truncation boundary
        weights = np.ones(31)
        weights[10] = small
        rep = classify(weighted_shift(weights, 32), cfg)
        assert rep["condition_II_ok"] and rep["diagnostics"]["span_status"] == "capped"

    @pytest.mark.parametrize("n", [48, 128])
    @pytest.mark.parametrize("family", ["ws", "sro", "hardy"])
    def test_grid_models_meet_condition_ii(self, family, n, cfg):
        rep = classify(family_model(family, n, np.random.default_rng(n)), cfg)
        assert rep["condition_II_ok"] and rep["diagnostics"]["span_status"] == "capped"


class TestRowMapClosure:
    """A closure handed T's row map (``commutation._band_rows``) applies T by its
    one nonzero per row and walks a unit seed along a weighted partial
    permutation; either way its frame is the dense route's, bit for bit."""

    @staticmethod
    def row_map(t, monkeypatch):
        """``_band_rows`` of all of ``t``, a matrix with one nonzero per row at
        most, declared banded, whatever its size."""
        monkeypatch.setattr(hclab.commutation, "BAND_MIN_DIM", 1)
        return _band_rows(OperatorModel(t, bandwidth=t.shape[0], window_step=1), t.shape[0])

    @pytest.mark.parametrize("n", [96, 128, 160])
    @pytest.mark.parametrize("family", ["ws", "sro", "hardy"])
    def test_classify_closures_match_the_dense_route(self, family, n, cfg, monkeypatch):
        # condition II (ws) and the reconstruction's two closures (sro, hardy),
        # each with the limit and frame classify passes, replayed on the dense
        # block the map stands for
        calls = []

        def recording(*args, **kwargs):
            calls.append((args, kwargs, krylov_closure(*args, **kwargs)))
            return calls[-1][2]

        monkeypatch.setattr(hclab.classifier, "krylov_closure", recording)
        model = real_gauge(family_model(family, n, np.random.default_rng(n)))
        classify(model, cfg)
        assert calls
        for (rows, *args), kwargs, (frame, status) in calls:
            assert isinstance(rows, RowMap)
            w = rows.col.size
            ref, ref_status = krylov_closure(model.matrix[:w, :w], *args, **kwargs)
            assert status == ref_status and np.array_equal(frame, ref)

    @pytest.mark.parametrize("spec", range(24))
    def test_seeded_specs_match_the_dense_route(self, spec, cfg):
        # weighted shifts and shifts plus rank one, weights of both signs and
        # magnitudes 1e-3..1e3, the rank-one index anywhere; seeds +-e_j (a walk
        # where the map has no fuller column), a dense vector to a limit, and a
        # dense seed after a frame
        rng = np.random.default_rng(3900 + spec)
        n = (96, 128)[spec % 2]
        weights = rng.choice([-1.0, 1.0], n - 1) * 10.0 ** rng.uniform(-3, 3, n - 1)
        if spec % 4 < 2:
            model = weighted_shift(weights, n)
        else:
            a = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3, 3)
            model = shift_plus_rank_one(weights, a, int(rng.integers(n)), n)
        t, rows = model.matrix, _band_rows(model, n)
        frame = np.linalg.qr(rng.standard_normal((n, 2)))[0]
        unit = rng.choice([-1.0, 1.0]) * np.eye(n)[:, [int(rng.integers(n))]]
        for seed, kwargs in ((np.eye(n)[:, :1], {}), (unit, {}),
                             (rng.standard_normal((n, 1)), {"limit": n // 3}),
                             (rng.standard_normal((n, 1)), {"frame": frame})):
            got, status = krylov_closure(rows, seed, np.linalg.norm(t, 2), cfg.rank_tol, **kwargs)
            ref, ref_status = krylov_closure(t, seed, np.linalg.norm(t, 2), cfg.rank_tol, **kwargs)
            assert status == ref_status and np.array_equal(got, ref), kwargs

    @staticmethod
    def walk_case(case):
        """(T, the closure's width, its status): weighted shifts on 24 indices
        with one weight edited, or a weighted 8-cycle inside 12 indices."""
        if case == "cycle":  # e_0 -> .. -> e_7 -> e_0: the image returns to e_0
            t = np.zeros((12, 12))
            t[(np.arange(8) + 1) % 8, np.arange(8)] = np.linspace(-1.5, 0.8, 8)
            return t, 8, "stable"
        weights = np.linspace(0.7, 1.3, 23)
        width, status = {"zero_weight": (10, "stable"), "under_the_cut": (10, "stable"),
                         "edge_drop": (23, "stable"), "unit_weights": (24, "capped")}[case]
        if case == "zero_weight":
            weights[9] = 0.0  # an empty column
        elif case == "under_the_cut":
            weights[9] = 1e-12  # under rank_tol * ||T||_2 = 1.3e-10
        elif case == "edge_drop":
            weights[-1] = 1e-4 * weights[-2]  # the boundary step, and nothing after
        else:
            weights[:] = -1.0
        t = np.zeros((24, 24))
        t[np.arange(1, 24), np.arange(23)] = weights
        return t, width, status

    @pytest.mark.parametrize("case", ["cycle", "zero_weight", "under_the_cut", "edge_drop",
                                      "unit_weights"])
    def test_walk_matches_the_dense_route(self, case, cfg, monkeypatch):
        t, width, status = self.walk_case(case)
        rows = self.row_map(t, monkeypatch)
        assert rows.multi.size == 0  # a weighted partial permutation
        seed, scale = np.eye(t.shape[0])[:, :1], np.linalg.norm(t, 2)
        walks = []
        monkeypatch.setattr(hclab.chains, "_walk",
                            lambda *args: walks.append(args) or walk(*args))
        got, got_status = krylov_closure(rows, seed, scale, cfg.rank_tol)
        ref, ref_status = krylov_closure(t, seed, scale, cfg.rank_tol)
        assert len(walks) == 1 and (got.shape[1], got_status) == (width, status)
        assert got_status == ref_status and np.array_equal(got, ref)


def _sweep_moduli_on_block(chain, cfg):
    """Reference closure: re-span [frame, G_1 frame, .., G_K frame] every sweep
    until the dimension holds for two sweeps in a row."""
    if chain.E.dim == 0:
        return chain.E, "empty"
    grams = chain.grams[1:chain.depth + 1]
    frame = chain.E.frame
    stable = 0
    for _ in range(4 * chain.w):
        sub = orthonormalize([frame] + [g @ frame for g in grams], rank_tol=cfg.rank_tol)
        if sub.dim == frame.shape[1]:
            stable += 1
            if stable >= 2:
                return sub, "stable"
        else:
            stable = 0
        frame = sub.frame
        if sub.dim >= chain.w:
            return sub, "capped"
    pytest.fail(f"the sweep did not hold its dimension within {4 * chain.w} sweeps")


class TestModuliKrylovClosure:
    """The Krylov closure of M_E against the sweep it replaced, its invariance
    certificate, and the work it does."""

    @pytest.mark.parametrize("conj", [False, True], ids=["plain", "conjugated"])
    @pytest.mark.parametrize("n", [16, 32, 64])
    @pytest.mark.parametrize("family", ["ws", "sro", "hardy", "aq0.3", "aq0.5", "aq0.7"])
    def test_matches_sweep_where_certified(self, family, n, conj, cfg):
        rng = np.random.default_rng(n)
        model = family_model(family, n, rng)
        if conj:
            model = model.conjugated(random_unitary(rng, n))
        chain = chain_decomposition(model, cfg)
        got, status = _moduli_on_block(chain.grams, chain.scales, chain.E, cfg)
        ref, ref_status = _sweep_moduli_on_block(chain, cfg)
        if status == "tolerance":
            # the rank cut set both dimensions; nothing pins one to the other
            return
        assert (got.dim, status) == (ref.dim, ref_status)
        assert np.linalg.norm(got.projector() - ref.projector(), 2) <= 1e-12

    def test_aq_below_the_block_reports_tolerance(self, cfg):
        # aq's gram images decay like q^k, so the rank cut, not invariance,
        # ends the closure below the block dimension
        model = aq_operator(0.5, None, 64)
        sub, status = moduli_subspace(model, cfg)
        assert status == "tolerance"
        assert sub.dim < model.window(effective_depth(model, cfg))

    def test_grams_see_each_direction_once(self, cfg, monkeypatch):
        # the stacked grams inside krylov_closure: a step sets the K images of
        # the directions the last one added side by side
        widths = []
        closure = hclab.chains.krylov_closure

        class Counting(np.ndarray):
            def __matmul__(self, other):
                widths.append(self.shape[0] * other.shape[1])
                return np.asarray(self) @ other

        monkeypatch.setattr(hclab.chains, "krylov_closure",
                            lambda grams, *args, **kwargs: closure(grams.view(Counting),
                                                                   *args, **kwargs))
        model = aq_operator(0.5, None, 64)
        sub, _ = moduli_subspace(model, cfg)
        assert widths and sum(widths) <= effective_depth(model, cfg) * sub.dim


class TestOneCoordinateSystem:
    """Every stage after ``chain_decomposition`` reads the chain in block
    coordinates, condition II included; ambient frames are lifts, built by
    the caller at the public edge."""

    @pytest.fixture
    def lifts(self, monkeypatch):
        # a lift multiplies by the window basis: record each function that
        # takes it, but chain_decomposition, which takes ker T* down to the block
        calls = []
        window_cols = OperatorModel.window_cols

        def counting(model, w):
            caller = sys._getframe(1).f_code.co_name
            if caller != "chain_decomposition":
                calls.append(caller)
            return window_cols(model, w)

        monkeypatch.setattr(OperatorModel, "window_cols", counting)
        return calls

    @staticmethod
    def _model(family, n, conj):
        rng = np.random.default_rng(n)
        model = (aq_operator(0.5, 5.0, n) if family == "aq"
                 else family_model(family, n, rng))
        return model.conjugated(random_unitary(rng, n)) if conj else model

    @pytest.mark.parametrize("conj", [False, True], ids=["plain", "conjugated"])
    @pytest.mark.parametrize("family", ["sro", "aq"])
    def test_no_stage_after_the_block_lifts(self, family, conj, cfg, lifts):
        model = self._model(family, 32, conj)
        chain = chain_decomposition(model, cfg)
        verify_chain_structure(chain)
        structure = structure_extract(chain)
        enumerate_triples(chain, structure)
        spectral_correspondence_check(chain)
        assert chain.as_dict()["dims"]["M_E"] >= 2
        assert lifts == []

    @pytest.mark.parametrize("family", ["sro", "aq"])
    def test_classify_lifts_only_the_normal_form(self, family, cfg, lifts):
        # the normal form rebuilds the user's T, so it lifts M_E, once; sro
        # has its single triple, aq many and no normal form
        cmd_classify(self._model(family, 32, False), cfg)
        assert lifts == (["shift_rank_one_reconstruct"] if family == "sro" else [])

    def test_verify_subspace_budget(self, capsys, monkeypatch):
        built, svds = [], []
        post_init, svd = Subspace.__post_init__, np.linalg.svd

        def counting(sub):
            built.append(sub)
            post_init(sub)

        def counting_svd(*args, **kwargs):
            svds.append(args[0].shape)
            return svd(*args, **kwargs)

        monkeypatch.setattr(Subspace, "__post_init__", counting)
        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        weights = ",".join(["0.9", "-1.1"] * 15 + ["0.9"])
        assert main(["verify", "--family", "shift_plus_rank_one", f"--weights={weights}",
                     "--a", "0.3+0.4j", "--index", "2", "--n", "32"]) == 0
        capsys.readouterr()
        # an ambient round trip of the chain's frames takes 57 more
        assert len(built) <= 33
        assert len(svds) <= 80

    def test_routed_classify_factors_no_full_size_matrix(self, capsys, monkeypatch):
        # the SVDs of T (ker T*, ||T||_2) and of its window(1) columns (the
        # injectivity test) split off the lone entries of a weighted shift
        svds, svd = [], np.linalg.svd

        def counting_svd(*args, **kwargs):
            svds.append(args[0].shape)
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        weights = ",".join(["0.9", "-1.1"] * 63 + ["0.9"])
        assert main(["classify", "--family", "weighted_shift", f"--weights={weights}",
                     "--n", "128"]) == 0
        assert json.loads(capsys.readouterr().out)["verdict"] == "centered_weighted_shift"
        assert svds and not {(128, 128), (128, 127)} & set(svds)

    @pytest.mark.parametrize("conj", [False, True], ids=["plain", "conjugated"])
    @pytest.mark.parametrize("family", ["sro", "aq"])
    def test_chain_has_no_ambient_names(self, family, conj, cfg, lifts):
        chain = chain_decomposition(self._model(family, 32, conj), cfg)
        assert not [name for name in ("M_E", "X", "V", "layers") if hasattr(chain, name)]
        assert chain.E.frame.shape == (chain.w, 1)  # the kernel line, in block coordinates
        assert lifts == []

    @pytest.mark.parametrize("conj", [False, True], ids=["plain", "conjugated"])
    @pytest.mark.parametrize("n", [24, 48])
    @pytest.mark.parametrize("family", ["ws", "sro", "hardy", "aq"])
    def test_block_route_matches_ambient_formula(self, family, n, conj, cfg):
        model = self._model(family, n, conj)
        chain = chain_decomposition(model, cfg)
        eps = np.finfo(float).eps
        tau, me_mats, _ = _moduli_spectrum(chain)
        e, ME = lift(chain, chain.E).frame[:, 0], lift(chain, chain.M_E_block).frame
        for k in range(1, chain.depth + 1):
            # the ambient formula: the full N x N gram on lifted frames
            G = gram_power(model, k)
            tol = 8 * chain.w * eps * _split_norm(*_hermitian_view(G))
            assert np.linalg.norm(me_mats[k - 1] - ME.conj().T @ G @ ME, 2) <= tol
            assert abs(tau[k] - np.real(e.conj() @ G @ e)) <= tol
            for Vb in chain.V_block:
                Vn = lift(chain, Vb)
                comp = _gram_on(model, k, chain.w, Vb.frame)
                assert np.linalg.norm(comp - Vn.frame.conj().T @ G @ Vn.frame, 2) <= tol


def _commutator_oracle(chain):
    """max ||P_V G - G P_V||_F / ||G|| over the nonempty layers V_n and the
    grams G_1..G_K of the block: the dense formula ``fuio`` replaces."""
    worst = 0.0
    for Vn in chain.V_block:
        if Vn.dim == 0:
            continue
        P = Vn.projector()
        for g, scale in zip(chain.grams[1:], chain.scales[1:]):
            worst = max(worst, float(np.linalg.norm(P @ g - g @ P) / max(scale, 1e-300)))
    return worst


class TestOneFactPerClaim:
    """``fuio`` is read off the chain's invariance residual, and ``isisis`` off
    the singular values of each map, with no second factorization."""

    def test_fuio_matches_the_commutator_above_roundoff(self, cfg):
        # a chain with a genuine leak (gram_invariance_residual 6.2e-9): the
        # two formulas agree to roundoff on the block, far below the leak
        model = aq_operator(0.3, None, 32)
        chain = chain_decomposition(model, cfg)
        table = verify_chain_structure(chain)
        oracle = _commutator_oracle(chain)
        bound = 8 * chain.w * np.finfo(float).eps
        assert oracle > 1e3 * bound
        assert abs(table["fuio"] - oracle) <= bound

    @pytest.mark.parametrize("conj", [False, True], ids=["plain", "conjugated"])
    @pytest.mark.parametrize("family", ["ws", "sro", "hardy"])
    def test_fuio_matches_the_commutator_at_roundoff(self, family, conj, cfg):
        rng = np.random.default_rng(32)
        model = family_model(family, 32, rng)
        model = model.conjugated(random_unitary(rng, 32)) if conj else model
        chain = chain_decomposition(model, cfg)
        table = verify_chain_structure(chain)
        assert abs(table["fuio"] - _commutator_oracle(chain)) <= 1e-14

    @pytest.mark.parametrize("family, n", [
        ("ws", 32), ("ws", 64), ("sro", 32), ("sro", 64), ("hardy", 32), ("hardy", 64),
        ("aq0.318182", 32), ("aq0.609091", 64),
    ])
    def test_isisis_is_zero_where_every_map_is_onto(self, family, n, cfg):
        model = family_model(family, n, np.random.default_rng(n))
        chain = chain_decomposition(model, cfg)
        table = verify_chain_structure(chain)
        assert table["isisis"] == 0.0


def _defect_oracle(chain):
    """(saknar, defect dims) from the frames of E_n = H_n (-) H_{n+1}, each the
    leading dim H_n - dim H_{n+1} left singular vectors of (I - P_{H_{n+1}}) H_n,
    against the layers T^n M_E: the complements the suite no longer builds."""
    H, worst, dims = chain.H, 0.0, []
    for n in range(chain.depth):
        a, b = H[n].frame, H[n + 1].frame
        u = np.linalg.svd(a - b @ (b.conj().T @ a), full_matrices=False)[0]
        En = u[:, :max(a.shape[1] - b.shape[1], 0)]
        dims.append(En.shape[1])
        if En.shape[1]:
            L = chain.layers_block[n].frame
            leak = En - L @ (L.conj().T @ En)
            worst = max(worst, float(np.linalg.norm(leak) / np.linalg.norm(En)))
    return worst, dims


class TestDefectsFromProjectors:
    """``saknar`` and the defect dimensions come from the range projectors, and
    ``structure_extract`` reads M_E (-) E off the moduli frame, with no
    complement built."""

    @staticmethod
    def _suite(model, cfg):
        chain = chain_decomposition(model, cfg)
        return chain, verify_chain_structure(chain)

    @pytest.mark.parametrize("conj", [False, True], ids=["plain", "conjugated"])
    @pytest.mark.parametrize("family", ["ws", "sro", "hardy"])
    def test_saknar_matches_the_complement_at_roundoff(self, family, conj, cfg):
        rng = np.random.default_rng(32)
        model = family_model(family, 32, rng)
        model = model.conjugated(random_unitary(rng, 32)) if conj else model
        chain, table = self._suite(model, cfg)
        saknar, dims = _defect_oracle(chain)
        assert chain.dims["defects"] == table["dims"]["defects"] == dims
        assert abs(table["saknar"] - saknar) <= 1e-14

    def test_saknar_matches_the_complement_on_aq(self, cfg):
        chain, table = self._suite(aq_operator(0.5, None, 40), cfg)
        saknar, dims = _defect_oracle(chain)
        assert chain.dims["defects"] == dims
        assert abs(table["saknar"] - saknar) <= 1e-12

    @pytest.mark.parametrize("conj", [False, True], ids=["plain", "conjugated"])
    @pytest.mark.parametrize("family", ["sro", "hardy", "aq"])
    def test_moduli_frame_starts_with_the_kernel_frame(self, family, conj, cfg):
        chain = chain_decomposition(TestOneCoordinateSystem._model(family, 32, conj), cfg)
        E = chain.E.frame
        assert np.array_equal(chain.M_E_block.frame[:, :E.shape[1]], E)
