from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

import hclab.classifier
import hclab.commutation
from hclab import (
    OperatorModel,
    aq_operator,
    centered_check,
    centered_criterion,
    chain_decomposition,
    classify,
    composition_operator,
    from_matrix,
    gram_power,
    half_centered_check,
    isometry_tower,
    kernel_of_adjoint,
    projection_product,
    shift_plus_rank_one,
    weighted_shift,
)
from hclab.cli import cmd_verify
from hclab.commutation import (_band_rows, _lone_columns, _matrix_power, _power_product,
                               _singular_pairs, _window_gram_norm, _window_table, _window_view,
                               require_half_centered)
from hclab.errors import (NotHalfCentered, NotInjectiveOnWindow, PreconditionViolated,
                          WindowExhausted)
from hclab.linalg import _coupled_rows, _split_norm

from hclab.operators import real_gauge

from conftest import family_model, random_unitary, random_weights

PQ_P = np.array([[0.5, -0.5], [-0.5, 0.5]])
PQ_Q = np.array([[1.0, 0.0], [0.0, 0.0]])


@pytest.fixture
def pq():
    return projection_product(PQ_P, PQ_Q)


class TestGramPower:
    def test_power_zero_is_identity(self, pq):
        assert_allclose(gram_power(pq, 0), np.eye(2))

    def test_pq_first_gram(self, pq):
        assert_allclose(gram_power(pq, 1), [[0.5, 0.0], [0.0, 0.0]], atol=1e-15)

    def test_cached_and_read_only(self, pq):
        g = gram_power(pq, 3)
        assert gram_power(pq, 3) is g
        with pytest.raises(ValueError):
            g[0, 0] = 1.0

    def test_hardy_first_gram_on_window(self):
        a = 0.5
        t = shift_plus_rank_one([a] * 7, 1.0, 0, 8)
        g = gram_power(t, 1)
        w = t.window(1)
        expect = np.diag([1 + a * a] + [a * a] * (w - 1))
        assert_allclose(g[:w, :w], expect, atol=1e-15)

    def test_window_exhausted(self):
        t = weighted_shift([1.0, 1.0], 3)
        with pytest.raises(WindowExhausted):
            gram_power(t, 3)

    @pytest.mark.parametrize("k", range(1, 9))
    def test_hermitian_psd(self, rng, k):
        t = shift_plus_rank_one(random_weights(rng, 15), 0.4 + 0.1j, 3, 16)
        if t.window(k) < 1:
            pytest.skip("window exhausted")
        g = gram_power(t, k)
        assert np.linalg.norm(g - g.conj().T) <= 1e-12 * max(1, np.linalg.norm(g))
        assert np.linalg.eigvalsh(g).min() >= -1e-12 * max(1, np.linalg.norm(g))


class TestHalfCenteredCheck:
    def test_pq_true_and_tight(self, pq, cfg):
        report = half_centered_check(pq, cfg)
        assert report["verdict"]["half_centered"]
        assert report["half_residual"] <= 1e-14

    def test_composition_true(self, rng, cfg):
        t = composition_operator([2, 0, 1, 2, 3, 4, 5, 6], random_weights(rng, 8), 8)
        assert half_centered_check(t, cfg)["verdict"]["half_centered"]

    def test_jordan_block_false(self, cfg):
        t = from_matrix([[1.0, 1.0], [0.0, 1.0]])
        report = half_centered_check(t, cfg)
        assert not report["verdict"]["half_centered"]
        assert report["half_residual"] > 1e-3

    def test_residual_ordering(self, pq, cfg):
        report = centered_check(pq, cfg)
        assert report["half_residual"] <= report["full_residual"] + 1e-15


class TestRequireHalfCentered:
    """One gate: every stage that needs a half-centered T stops at it alike."""

    @staticmethod
    def tower_of_chain(model, cfg):
        return isometry_tower(chain_decomposition(model, cfg))

    # the tower takes a chain; each of these builds one
    @pytest.mark.parametrize("model", [
        from_matrix([[1.0, 1.0], [0.0, 1.0]]),
        from_matrix(np.random.default_rng(0).standard_normal((6, 6))),
    ], ids=["jordan", "gaussian6"])
    def test_every_stage_raises_the_same_error(self, model, cfg):
        residual = half_centered_check(model, cfg)["half_residual"]
        expected = f"half-centered residual {residual:.3e} exceeds tolerance"
        for stage in (require_half_centered, classify, cmd_verify, self.tower_of_chain):
            with pytest.raises(NotHalfCentered) as caught:
                stage(model, cfg)
            assert str(caught.value) == expected, stage.__name__

    def test_passes_the_report_through(self, pq, cfg):
        assert require_half_centered(pq, cfg) == half_centered_check(pq, cfg)

    @pytest.mark.parametrize("error", [WindowExhausted, NotHalfCentered, NotInjectiveOnWindow])
    def test_chain_preconditions_are_violations(self, error):
        assert issubclass(error, PreconditionViolated)


# r lies 1e-9 above -lambda_min(A_q): T has condition number about 1e20
AQ_ILL_CONDITIONED = (0.5, 1.123915264854093, 32)


class TestIllConditionedAq:
    """T^k as a running product keeps the grams of the ill-conditioned aq
    input within roundoff of their extended-precision values, so its gram
    powers commute to roundoff, as aq's grams do in exact arithmetic."""

    def test_ill_conditioned_aq_is_half_centered(self, cfg):
        report = half_centered_check(aq_operator(*AQ_ILL_CONDITIONED), cfg)
        assert report["verdict"]["half_centered"]
        assert report["half_residual"] <= 1e-11

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                        reason="long double is no wider than float64 here")
    def test_powers_match_an_extended_precision_product(self):
        from hclab.commutation import _matrix_power
        t = aq_operator(*AQ_ILL_CONDITIONED)
        exact = np.eye(t.dim, dtype=np.longdouble)
        for k in range(1, 7):
            exact = exact @ t.matrix.astype(np.longdouble)
            g = gram_power(t, k)
            p = _matrix_power(t, k)  # the T^k that gram_power(t, k) read
            q = p.conj().T @ p
            assert np.array_equal(g, (q + q.conj().T) / 2.0), k
            error = np.max(np.abs(p - exact)) / np.max(np.abs(exact))
            assert error <= 1e-7, (k, float(error))


class TestPowerTableGrams:
    """Grams and co-grams read T^k from one running product per model, and
    are the grams a separate running product gives, bit for bit."""

    @staticmethod
    def separate_construction(t, k, outer):
        p = t
        for _ in range(k - 1):
            p = np.matmul(p, t)
        g = p @ p.conj().T if outer else p.conj().T @ p
        return (g + g.conj().T) / 2.0

    @pytest.mark.parametrize("make", [lambda: aq_operator(0.5, 5.0, 40),
                                      lambda: shift_plus_rank_one(
                                          random_weights(np.random.default_rng(3), 39),
                                          0.3 + 0.4j, 2, 40)])
    def test_bit_identical_to_separate_powers(self, make):
        t = make()
        for k in range(1, 7):
            assert np.array_equal(gram_power(t, k), self.separate_construction(t.matrix, k, False))
            assert np.array_equal(_power_product(t, k, True),
                                  self.separate_construction(t.matrix, k, True))

    def test_depth_six_takes_five_power_products(self, monkeypatch):
        t = aq_operator(0.5, 5.0, 40)
        calls = []
        matmul = np.matmul

        def counting(*args, **kwargs):
            calls.append(1)
            return matmul(*args, **kwargs)

        monkeypatch.setattr(np, "matmul", counting)
        for k in range(1, 7):
            gram_power(t, k)
            _power_product(t, k, True)
        assert len(calls) == 5


def _pair_model(family, n):
    w = random_weights(np.random.default_rng(n), n - 1)
    if family == "ws":
        return weighted_shift(w, n)
    if family == "sro":
        return shift_plus_rank_one(w, 0.3 + 0.4j, 2, n)
    if family == "hardy":
        return shift_plus_rank_one([0.5] * (n - 1), 1.0, 0, n)
    return aq_operator(0.5, 5.0, n)


class TestCoupledPairTables:
    """Each pair commutator is taken on the rows its two window grams couple,
    and agrees with the dense product of the two symmetrized windows."""

    eps = np.finfo(float).eps
    KINDS = {"gram-gram": (gram_power, gram_power),
             "cogram-cogram": (lambda t, k: _power_product(t, k, True),) * 2,
             "gram-cogram": (gram_power, lambda t, k: _power_product(t, k, True))}

    def dense_residual(self, a, b, w, full_a, full_b):
        """The residual as the dense formula gives it: one product of the
        Hermitian parts, 0 for a window at most w * eps of its full gram."""
        ha, hb = (a + a.conj().T) / 2, (b + b.conj().T) / 2
        p = ha @ hb
        comm = np.linalg.norm(p - p.conj().T)
        cut = w * self.eps
        if (comm == 0 or np.linalg.norm(a) <= cut * np.linalg.norm(full_a)
                or np.linalg.norm(b) <= cut * np.linalg.norm(full_b)):
            return 0.0
        return comm / (np.linalg.norm(ha, 2) * np.linalg.norm(hb, 2))

    @pytest.mark.parametrize("conj", [False, True], ids=["plain", "UTU*"])
    @pytest.mark.parametrize("n", [24, 48])
    @pytest.mark.parametrize("family", ["ws", "sro", "hardy", "aq"])
    def test_pair_tables_agree_with_the_dense_formula(self, family, n, conj, cfg):
        model = _pair_model(family, n)
        if conj:
            model = model.conjugated(random_unitary(np.random.default_rng(n + 1), n))
        report = centered_check(model, cfg)
        assert report["depth"] == 6 and len(report["pairs"]) == 66
        for p in report["pairs"]:
            w = model.window(p["j"] + p["k"])
            left, right = self.KINDS[p["kind"]]
            full_a, full_b = left(model, p["j"]), right(model, p["k"])
            a, b = model.window_compress(full_a, w), model.window_compress(full_b, w)
            expect = self.dense_residual(a, b, w, full_a, full_b)
            assert abs(p["residual"] - expect) <= 4 * w * self.eps, p
            if family != "aq" and p["kind"] == "gram-gram" and not conj:
                assert p["residual"] == 0.0

    @pytest.mark.parametrize("family", ["ws", "sro", "hardy", "aq"])
    def test_window_views_and_masks(self, family, rng, cfg):
        # every view, the analysis block's grams included, is an exactly
        # Hermitian leading block of one table per power and family (the
        # gram itself in the model's own basis), and its mask, read off the
        # table's first coupling, marks exactly the window's coupled rows
        model = _pair_model(family, 24)
        rotated = model.conjugated(random_unitary(rng, 24))
        for k in range(1, 7):
            for outer in (False, True):
                assert _window_table(model, k, outer) is _power_product(model, k, outer)
                for m in (model, rotated):
                    table = _window_table(m, k, outer)
                    for w in range(1, model.window(k) + 1):
                        h, mask = _window_view(m, k, outer, w)
                        assert np.shares_memory(h, table) and np.array_equal(h, table[:w, :w])
                        assert np.array_equal(h, h.conj().T)
                        assert np.array_equal(mask, _coupled_rows(h))
        for k, g in enumerate(chain_decomposition(rotated, cfg).grams):
            assert np.shares_memory(g, _window_table(rotated, k, False))
            assert np.array_equal(g, g.conj().T)

    @pytest.fixture
    def factorizations(self, monkeypatch):
        """The shapes of the ``eigvalsh`` calls."""
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def counting(a, *args, **kwargs):
            calls.append(np.shape(a))
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        return calls

    @pytest.mark.parametrize("conj", [False, True], ids=["plain", "UTU*"])
    @pytest.mark.parametrize("n", [64, 160])
    @pytest.mark.parametrize("q", [0.3, 0.5, 0.7])
    def test_window_norms_share_the_coupled_block(self, q, n, conj, cfg, factorizations):
        # windows with one set of coupled rows share one factorization of
        # their block, and every norm the pair tables and the analysis block
        # read is still _split_norm of its window view, bit for bit
        model = aq_operator(q, None, n)
        if conj:
            model = model.conjugated(random_unitary(np.random.default_rng(n), n))
        half_centered_check(model, cfg)
        if n == 160 and not conj:   # aq couples only its leading rows there
            assert len(factorizations) == 6
        centered_check(model, cfg)
        chain = chain_decomposition(model, cfg)
        norm = _window_gram_norm.__wrapped__
        read = {key[1]: value for key, value in model._memo.items() if key[0] is norm}
        assert {(k, False, chain.w) for k in range(chain.depth + 1)} <= set(read)
        for (k, outer, w), value in read.items():
            assert value == _split_norm(*_window_view(model, k, outer, w)), (k, outer, w)

    def test_shift_like_co_grams_couple_a_few_rows(self, sro32):
        # the co-grams of a shift plus rank one are diagonal but for a few rows
        for k in range(1, 7):
            w = sro32.window(k + 1)
            assert not _window_view(sro32, k, False, w)[1].any()
            assert 0 < np.count_nonzero(_window_view(sro32, k, True, w)[1]) <= 9


class TestCenteredCheck:
    def test_isometry_is_centered(self, cfg):
        t = weighted_shift([1.0] * 19, 20)
        report = centered_check(t, cfg)
        assert report["verdict"]["centered"]

    def test_pq_not_centered(self, pq, cfg):
        # (TT*)(T*T) = T^3 while (T*T)(TT*) = T*^3, and those differ
        report = centered_check(pq, cfg)
        assert report["verdict"]["half_centered"] and not report["verdict"]["centered"]
        t = pq.matrix
        lhs = (t @ t.conj().T) @ (t.conj().T @ t)
        rhs = (t.conj().T @ t) @ (t @ t.conj().T)
        assert_allclose(lhs, np.linalg.matrix_power(t, 3), atol=1e-15)
        assert_allclose(rhs, np.linalg.matrix_power(t.conj().T, 3), atol=1e-15)

    def test_weighted_shift_centered_on_window(self, rng, cfg):
        t = weighted_shift(random_weights(rng, 23), 24)
        assert centered_check(t, cfg)["verdict"]["centered"]

    @pytest.mark.parametrize("n", [6, 8, 12, 16])
    def test_weighted_shift_centered_under_dense_unitary(self, n, cfg):
        # windows of 2 to 5 indices hold an exactly zero co-gram block on T
        # and a roundoff block on U T U*; both are zero, not a commutator
        w = [(-1) ** (k + 1) * (0.6 + 0.1 * (k % 5)) for k in range(n - 1)]
        t = weighted_shift(w, n)
        rot = t.conjugated(random_unitary(np.random.default_rng(n), n))
        plain, rotated = centered_check(t, cfg), centered_check(rot, cfg)
        assert plain["verdict"]["centered"] and rotated["verdict"]["centered"]
        assert rotated["full_residual"] <= 1e3 * np.finfo(float).eps

    def test_cogram_of_shift(self):
        t = weighted_shift([1, 2, 3], 4)
        assert_allclose(_power_product(t, 1, True), np.diag([0.0, 1.0, 4.0, 9.0]), atol=1e-14)


class TestCenteredCriterion:
    def test_weighted_shift_true(self, rng, cfg):
        t = weighted_shift(random_weights(rng, 23), 24)
        report = centered_criterion(t, cfg)
        assert report["verdict"] and not report["vacuous"]

    def test_pq_false(self, pq, cfg):
        assert not centered_criterion(pq, cfg)["verdict"]

    def test_hardy_false(self, cfg):
        # the first gram moves the kernel line into the constants
        t = shift_plus_rank_one([0.5] * 23, 1.0, 0, 24)
        assert not centered_criterion(t, cfg)["verdict"]

    def test_vacuous_when_adjoint_injective(self, rng, cfg):
        t = composition_operator([(k + 1) % 6 for k in range(6)],
                                 random_weights(rng, 6), 6)
        report = centered_criterion(t, cfg)
        assert report["vacuous"] and report["verdict"]

    def test_agrees_with_centered_check(self, rng, cfg):
        # the invariance criterion must reproduce the definition-based verdict
        instances = [
            weighted_shift(random_weights(rng, 23), 24),
            shift_plus_rank_one(random_weights(rng, 23), 0.3 + 0.4j, 2, 24),
            shift_plus_rank_one([0.5] * 23, 1.0, 0, 24),
            projection_product(PQ_P, PQ_Q),
        ]
        for model in instances:
            direct = centered_check(model, cfg)["verdict"]["centered"]
            criterion = centered_criterion(model, cfg)["verdict"]
            assert direct == criterion, model.family

    def test_full_range_implies_centered(self, rng, cfg):
        # half-centered with (numerically) full range must come out centered
        t = composition_operator([(k + 3) % 10 for k in range(10)],
                                 random_weights(rng, 10), 10)
        assert half_centered_check(t, cfg)["verdict"]["half_centered"]
        smin = np.linalg.svd(t.matrix, compute_uv=False)[-1]
        assert smin > cfg.rank_tol
        assert centered_check(t, cfg)["verdict"]["centered"]
        assert centered_criterion(t, cfg)["verdict"]


class TestKernelOfAdjoint:
    def test_shift_kernel(self, rng, cfg):
        t = weighted_shift(random_weights(rng, 3), 4)
        sub = kernel_of_adjoint(t, cfg)
        assert sub.dim == 1
        assert abs(sub.frame[0, 0]) == pytest.approx(1.0)

    def test_pq_kernel(self, pq, cfg):
        sub = kernel_of_adjoint(pq, cfg)
        assert sub.dim == 1
        assert_allclose(np.abs(sub.frame[:, 0]), np.full(2, 1 / np.sqrt(2)), atol=1e-14)

    def test_hardy_kernel_direction(self, cfg):
        a = 0.5
        t = shift_plus_rank_one([a] * 23, 1.0, 0, 24)
        sub = kernel_of_adjoint(t, cfg)
        expect = np.zeros(24, dtype=complex)
        expect[0], expect[1] = a, -1.0
        expect /= np.linalg.norm(expect)
        overlap = abs(np.vdot(expect, sub.frame[:, 0]))
        assert overlap == pytest.approx(1.0, abs=1e-12)


class TestRestrictionStability:
    def test_range_compression_stays_half_centered(self, rng, cfg):
        # compressing to the depth-1 range window preserves the verdict
        for model in [
            weighted_shift(random_weights(rng, 23), 24),
            shift_plus_rank_one(random_weights(rng, 23), 0.5 + 0.2j, 1, 24),
        ]:
            chain = chain_decomposition(model, cfg)
            h1 = np.linalg.matrix_power(chain.matrix, 1)[:, : model.window(chain.depth + 1)]
            u, s, _ = np.linalg.svd(h1, full_matrices=False)
            basis = u[:, s > cfg.rank_tol * s[0]]
            compressed = basis @ (basis.conj().T @ chain.matrix @ basis) @ basis.conj().T
            sub = from_matrix(compressed, exact=False)
            report = half_centered_check(sub, replace(cfg, depth=3))
            assert report["verdict"]["half_centered"], model.family


class TestBandRoute:
    """A real banded model of at least ``BAND_MIN_DIM`` rows forms its powers
    and grams through T's nonzeros and factors T by its lone entries; every
    other model takes the dense route."""

    eps = np.finfo(float).eps

    @pytest.fixture
    def band_calls(self, monkeypatch):
        """The band kernels called and the row maps returned, by name;
        ``_band_rows`` also where the classifier gets a map
        (``classifier._band_rows``).  A call of ``_band_rows`` that returns
        None, the dense route's answer, is not counted."""
        calls = []
        for module in (hclab.commutation, hclab.classifier):
            for name in ("_lone_svd", "_band_gram", "_band_rows"):
                if not hasattr(module, name):
                    continue
                original = getattr(module, name)

                def counting(*args, _name=f"{module.__name__}.{name}", _original=original,
                             **kwargs):
                    out = _original(*args, **kwargs)
                    if out is not None:
                        calls.append(_name.removeprefix("hclab.commutation."))
                    return out

                monkeypatch.setattr(module, name, counting)
        return calls

    @staticmethod
    def gauged(family, n):
        return real_gauge(family_model(family, n, np.random.default_rng(n)))

    def test_routed_shift_reaches_every_kernel(self, band_calls, cfg):
        classify(self.gauged("ws", 128), cfg)
        assert {"_lone_svd", "_band_gram", "_band_rows"} <= set(band_calls)

    @pytest.mark.parametrize("family", ["ws", "sro", "hardy"])
    def test_routed_closures_reach_the_row_map(self, band_calls, cfg, family):
        # condition II (ws) and the reconstruction's closures (sro, hardy)
        classify(self.gauged(family, 128), cfg)
        assert "hclab.classifier._band_rows" in band_calls

    @pytest.mark.parametrize("case", ["aq", "conjugated", "complex", "n64"])
    def test_other_models_never_reach_the_band_kernels(self, band_calls, cfg, case):
        rng = np.random.default_rng(5)
        model = {"aq": lambda: aq_operator(0.5, 5.0, 128),
                 "conjugated": lambda: self.gauged("sro", 96).conjugated(
                     random_unitary(rng, 96)),
                 "complex": lambda: family_model("sro", 128, rng),
                 "n64": lambda: self.gauged("ws", 64)}[case]()
        classify(model, cfg)
        assert _band_rows(model, model.dim) is None
        assert band_calls == []

    def test_routed_shift_kernel_is_exactly_e0(self, cfg):
        frame = kernel_of_adjoint(self.gauged("ws", 128), cfg).frame
        e0 = np.zeros(128)
        e0[0] = 1.0
        assert frame.shape == (128, 1) and np.array_equal(np.abs(frame[:, 0]), e0)

    @pytest.mark.parametrize("family", ["ws", "sro", "hardy"])
    def test_lone_columns_match_a_scan_of_the_power(self, family):
        # the row map's pattern against a scan of every nonzero of T^k (of its
        # transpose for the co-gram); ``first`` matters on the lone columns only
        model = self.gauged(family, 128)
        for k in range(1, 7):
            for outer in (False, True):
                nz = (_matrix_power(model, k).T if outer else _matrix_power(model, k)) != 0
                count, first = nz.sum(axis=0), nz.argmax(axis=0)
                alone = (count == 0) | ((count == 1) & (nz.sum(axis=1)[first] == 1))
                got_alone, got_first = _lone_columns(model, k, outer)
                assert np.array_equal(got_alone, alone), (k, outer)
                assert np.array_equal(got_first[alone], first[alone]), (k, outer)

    def test_fuller_rows_take_the_dense_route(self, band_calls, cfg):
        # a declared band whose rows hold three nonzeros has no row map: its
        # powers, grams and SVD are the dense route's, bit for bit
        rng = np.random.default_rng(96)
        t = np.diag(rng.uniform(1, 2, 96)) + np.diag(rng.uniform(1, 2, 95), -1)
        t += np.diag(rng.uniform(1, 2, 95), 1)
        model = OperatorModel(t, bandwidth=1, window_step=1)
        assert _band_rows(model, 96) is None
        p = t
        for k in range(1, 4):
            if k > 1:
                p = np.matmul(p, t)
            assert np.array_equal(_matrix_power(model, k), p)
            for outer in (False, True):
                dense = TestPowerTableGrams.separate_construction(t, k, outer)
                assert np.array_equal(_power_product(model, k, outer), dense)
        assert np.array_equal(_singular_pairs(model)[1], np.linalg.svd(t)[1])
        assert band_calls == []

    @pytest.mark.parametrize("n", [96, 128, 160])
    @pytest.mark.parametrize("family", ["ws", "sro", "hardy"])
    def test_row_map_is_the_dense_block(self, family, n, cfg):
        # the map of the whole T and of the analysis block, on a vector and a block
        model = self.gauged(family, n)
        rng = np.random.default_rng(n)
        for w in (n, chain_decomposition(model, cfg).w):
            rows, t = _band_rows(model, w), model.matrix[:w, :w]
            for x in (rng.standard_normal(w), rng.standard_normal((w, 3))):
                assert np.array_equal(rows @ x, t @ x), (w, x.ndim)

    @pytest.mark.parametrize("n", [96, 128, 160, 256])
    @pytest.mark.parametrize("family", ["ws", "sro", "hardy"])
    def test_powers_and_grams_match_the_dense_products(self, family, n):
        model = self.gauged(family, n)
        t = model.matrix
        p = t
        for k in range(1, 7):
            if k > 1:
                p = np.matmul(p, t)
            assert np.array_equal(_matrix_power(model, k), p)
            for outer in (False, True):
                dense = TestPowerTableGrams.separate_construction(t, k, outer)
                g = _power_product(model, k, outer)
                if family == "ws":
                    assert np.array_equal(g, dense)
                else:
                    # one product per coupled block sums its terms in another
                    # order: measured up to 0.93 eps ||G||_2
                    bound = 2 * self.eps * np.linalg.norm(dense, 2)
                    assert np.max(np.abs(g - dense)) <= bound, (k, outer)


class TestMemoizedValuesAreShielded:
    """A caller that writes into what a stage returned changes nothing a later
    stage reads: memoized arrays are read-only, report rows are fresh."""

    @pytest.mark.parametrize("n", [8, 128])
    def test_memoized_arrays_are_read_only(self, cfg, n):
        model = real_gauge(weighted_shift([1.0] * (n - 1), n))
        u, s = _singular_pairs(model)
        gram, mask = _window_view(model, 1, False, model.window(2))
        for array in (u, s, gram, mask, kernel_of_adjoint(model, cfg).frame):
            with pytest.raises(ValueError):
                array[0] = 1.0

    def test_an_edited_pair_row_does_not_reach_the_half_check(self, cfg):
        model = weighted_shift([1.0] * 7, 8)
        row = centered_check(model, cfg)
        row["pairs"][0]["residual"] = 5.0
        assert half_centered_check(model, cfg)["pairs"][0]["residual"] == 0.0
        assert centered_check(model, cfg)["pairs"][0]["residual"] == 0.0

    @pytest.mark.parametrize("stage", [half_centered_check, centered_check])
    def test_an_edited_verdict_does_not_reach_the_gate(self, cfg, stage):
        model = weighted_shift([1.0] * 7, 8)
        stage(model, cfg)["verdict"]["half_centered"] = False
        stage(model, cfg)["half_residual"] = 5.0
        assert require_half_centered(model, cfg)["verdict"]["half_centered"]
