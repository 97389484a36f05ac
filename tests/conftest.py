import numpy as np
import pytest

from hclab import (Subspace, ToleranceConfig, aq_operator, from_matrix, shift_plus_rank_one,
                   weighted_shift)
from hclab.chains import _moduli_on_block
from hclab.commutation import _window_gram_norm, _window_view, effective_depth, kernel_of_adjoint
from hclab.subspaces import orthonormalize


@pytest.fixture
def cfg():
    return ToleranceConfig()


@pytest.fixture
def rng():
    return np.random.default_rng(7)


def random_weights(rng, n):
    """Nonzero weights bounded away from zero, with generic phases."""
    return rng.uniform(0.6, 1.4, n) * np.exp(2j * np.pi * rng.uniform(size=n))


def random_unitary(rng, n):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def cauchy_dual(model):
    """The Cauchy dual T (T*T)^{-1} of a model in its own basis: B (B*B)^{-1}
    with B the window(1) columns of T, zero off them, as a fresh truncation
    of the infinite dual would be."""
    w = model.window(1)
    B = model.matrix[:, :w]
    dual = np.zeros_like(model.matrix)
    dual[:, :w] = B @ np.linalg.inv(B.conj().T @ B)
    return from_matrix(dual, exact=False)


def lift(chain, sub):
    """A subspace of the chain's window block in ambient coordinates."""
    return Subspace(chain.model.window_cols(chain.w) @ sub.frame)


def moduli_subspace(model, cfg):
    """M_E and its status, lifted to ambient coordinates: the closure the chain
    starts from, also on inputs that ``chain_decomposition`` rejects (T not
    injective on its window).  E, the grams and their norms are the chain's,
    built here from the model's memo."""
    K = effective_depth(model, cfg)
    w = model.window(K)
    cols = model.window_cols(w)
    coords = cols.conj().T @ kernel_of_adjoint(model, cfg).frame
    E = orthonormalize([coords], rank_tol=cfg.rank_tol)
    grams = tuple(_window_view(model, k, False, w)[0] for k in range(K + 1))
    scales = tuple(_window_gram_norm(model, k, False, w) for k in range(K + 1))
    sub, status = _moduli_on_block(grams, scales, E, cfg)
    return Subspace(cols @ sub.frame), status


def coefficients(relation):
    """The (a, b, c, d) of a relation row."""
    return tuple(relation[key] for key in "abcd")


def three_term(relation):
    """The (a, b + c, d) view of a relation row's coefficients, the three
    terms of a degenerate (n = m) relation."""
    a, b, c, d = coefficients(relation)
    return (a, b + c, d)


def character_value(spectrum, c, k):
    """Character c's value on the k-th family member, k = 0 meaning the identity."""
    return 1.0 if k == 0 else float(spectrum.table[c, k - 1])


def family_model(family, n, rng):
    """A grid family at size n: ws and sro (a = 0.3+0.4i, index 2) with weights
    drawn from ``rng``, hardy (c = 0.5), or aq named as ``aqQ`` or ``aqQrR``."""
    if family == "ws":
        return weighted_shift(random_weights(rng, n - 1), n)
    if family == "sro":
        return shift_plus_rank_one(random_weights(rng, n - 1), 0.3 + 0.4j, 2, n)
    if family == "hardy":
        return shift_plus_rank_one([0.5] * (n - 1), 1.0, 0, n)
    q, _, r = family[2:].partition("r")
    return aq_operator(float(q), float(r) if r else None, n)


@pytest.fixture
def shift32(rng):
    return weighted_shift(random_weights(rng, 31), 32)


@pytest.fixture
def sro32(rng):
    return shift_plus_rank_one(random_weights(rng, 31), 0.3 + 0.4j, 2, 32)


@pytest.fixture
def hardy24():
    return shift_plus_rank_one([0.5] * 23, 1.0, 0, 24)


@pytest.fixture
def aq48():
    return aq_operator(0.5, 5.0, 48)
