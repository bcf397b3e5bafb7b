"""Tests for the network core: init, forward, triplet loss, gradients,
optimizer, pair head, and model serialization."""
import io
import math

import numpy as np
import pytest

from contrastmap.network import (DivergenceError, Gradients, MlpParams,
                                 OptimizerState, TripletBatch, _sigmoid,
                                 flatten_grads, flatten_params, forward,
                                 init_head_params,
                                 init_optimizer, init_params, load_params,
                                 optimizer_step, pair_head_forward,
                                 pair_head_loss_backward, save_params,
                                 triplet_backward, triplet_loss,
                                 unflatten_like)


def _random_batch(rng, n=16, m=10):
    return TripletBatch(rng.standard_normal((n, m)),
                        rng.standard_normal((n, m)),
                        rng.standard_normal((n, m)))


def _fd_gradient(fn, params, h=1e-5):
    """Central finite differences of a scalar function of MlpParams."""
    flat = flatten_params(params)
    grad = np.empty_like(flat)
    for i in range(len(flat)):
        plus = flat.copy()
        plus[i] += h
        minus = flat.copy()
        minus[i] -= h
        grad[i] = (fn(unflatten_like(params, plus))
                   - fn(unflatten_like(params, minus))) / (2 * h)
    return grad


def assert_gradients_close(analytic, numeric, rel_tol=1e-4, abs_tol=1e-8):
    small = np.abs(analytic) < 1e-8
    assert np.all(np.abs(analytic[small] - numeric[small]) < abs_tol)
    big = ~small
    rel = np.abs(analytic[big] - numeric[big]) / np.abs(analytic[big])
    assert np.all(rel < rel_tol)


# --- init ---------------------------------------------------------------------

def test_init_shapes_and_bounds():
    params = init_params([4, 3, 2], seed=7)
    assert [w.shape for w in params.weights] == [(3, 4), (2, 3)]
    assert [b.shape for b in params.biases] == [(3,), (2,)]
    assert np.all(np.abs(params.weights[0]) <= math.sqrt(6 / 7))
    assert all(np.all(b == 0.0) for b in params.biases)


def test_init_deterministic():
    p1 = init_params([4, 3, 2], seed=7)
    p2 = init_params([4, 3, 2], seed=7)
    assert all(np.array_equal(a, b) for a, b in zip(p1.weights, p2.weights))


def test_init_not_a_contraction():
    with pytest.raises(ValueError, match="not a contraction"):
        init_params([4, 8])


def test_head_init_requires_single_logit():
    init_head_params([8, 32, 1])  # expansion allowed for the head
    with pytest.raises(ValueError, match="one logit"):
        init_head_params([8, 32, 2])


# --- forward ------------------------------------------------------------------

def test_forward_single_linear_layer():
    params = MlpParams([2, 2], [np.array([[2.0, 0.0], [0.0, 3.0]])],
                       [np.zeros(2)])
    assert np.allclose(forward(params, np.array([1.0, 1.0])), [2, 3])


def test_forward_zero_weights_returns_bias():
    params = MlpParams([3, 2], [np.zeros((2, 3))], [np.array([0.5, -1.5])])
    for x in (np.zeros(3), np.ones(3), np.array([3.0, -7.0, 2.0])):
        assert np.allclose(forward(params, x), [0.5, -1.5])


def test_forward_tanh_saturation():
    params = init_params([2, 4, 1], seed=0)
    params.weights[0] = np.full((4, 2), 100.0)  # saturating pre-activations
    params.weights[1] = np.ones((1, 4))
    out = forward(params, np.array([1.0, 1.0]))
    assert abs(out[0]) <= 4.0 + 1e-12  # sum of four tanh values in [-1, 1]


def test_forward_dimension_mismatch():
    params = init_params([4, 2], seed=0)
    with pytest.raises(ValueError, match="dimension"):
        forward(params, np.zeros(3))


# --- triplet loss -------------------------------------------------------------

def _identity_map(m):
    return MlpParams([m, m - 1],
                     [np.eye(m - 1, m)], [np.zeros(m - 1)])


def test_loss_zero_at_optimum():
    # identity-like map; synonym parallel to anchor, antonym antiparallel
    params = _identity_map(3)
    batch = TripletBatch(np.array([[1.0, 0.0, 0.0]]),
                         np.array([[2.0, 0.0, 0.0]]),
                         np.array([[-1.0, 0.0, 0.0]]))
    assert triplet_loss(params, batch) == pytest.approx(0.0, abs=1e-9)


def test_loss_constant_map_is_two():
    # zero weights and constant bias: f(x) is the same vector for every input
    params = MlpParams([3, 2], [np.zeros((2, 3))], [np.array([1.0, 2.0])])
    rng = np.random.default_rng(0)
    batch = _random_batch(rng, n=5, m=3)
    assert triplet_loss(params, batch) == pytest.approx(2.0, abs=1e-9)


def test_loss_golden_value():
    rng = np.random.default_rng(1)
    batch = _random_batch(rng, n=16, m=10)
    params = init_params([10, 8, 4], seed=3)
    assert triplet_loss(params, batch) == pytest.approx(1.668555504684118,
                                                        abs=1e-12)


def test_loss_bounds_random():
    rng = np.random.default_rng(2)
    for _ in range(20):
        params = init_params([6, 5, 3], seed=int(rng.integers(1000)))
        batch = _random_batch(rng, n=8, m=6)
        assert 0.0 <= triplet_loss(params, batch) <= 4.0


def test_loss_permutation_invariance():
    rng = np.random.default_rng(3)
    params = init_params([6, 5, 3], seed=1)
    batch = _random_batch(rng, n=10, m=6)
    perm = rng.permutation(10)
    shuffled = TripletBatch(batch.anchors[perm], batch.synonyms[perm],
                            batch.antonyms[perm])
    l1, g1 = triplet_backward(params, batch)
    l2, g2 = triplet_backward(params, shuffled)
    assert l1 == pytest.approx(l2, abs=1e-12)
    assert np.allclose(flatten_grads(g1), flatten_grads(g2), atol=1e-12)


# --- gradients ----------------------------------------------------------------

def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(4)
    params = init_params([10, 8, 4], seed=11)
    batch = _random_batch(rng)
    _, grads = triplet_backward(params, batch)
    numeric = _fd_gradient(lambda p: triplet_loss(p, batch), params)
    assert_gradients_close(flatten_grads(grads), numeric)


def test_gradient_near_zero_at_optimum():
    params = _identity_map(3)
    batch = TripletBatch(np.array([[1.0, 0.0, 0.0]]),
                         np.array([[2.0, 0.0, 0.0]]),
                         np.array([[-1.0, 0.0, 0.0]]))
    _, grads = triplet_backward(params, batch)
    assert np.linalg.norm(flatten_grads(grads)) < 1e-6


def test_gradient_batch_mean():
    rng = np.random.default_rng(5)
    params = init_params([6, 5, 3], seed=1)
    one = _random_batch(rng, n=1, m=6)
    eight = TripletBatch(np.repeat(one.anchors, 8, axis=0),
                         np.repeat(one.synonyms, 8, axis=0),
                         np.repeat(one.antonyms, 8, axis=0))
    _, g1 = triplet_backward(params, one)
    _, g8 = triplet_backward(params, eight)
    assert np.allclose(flatten_grads(g1), flatten_grads(g8), atol=1e-12)


def test_one_small_step_decreases_loss():
    rng = np.random.default_rng(6)
    for seed in range(5):
        params = init_params([8, 6, 3], seed=seed)
        batch = _random_batch(rng, n=12, m=8)
        loss, grads = triplet_backward(params, batch)
        state = init_optimizer(params, learning_rate=1e-4)
        new_params, _ = optimizer_step(params, grads, state)
        assert triplet_loss(new_params, batch) < loss


# --- optimizer ----------------------------------------------------------------

def test_optimizer_zero_gradient():
    params = init_params([4, 2], seed=0)
    zero = Gradients([np.zeros_like(w) for w in params.weights],
                     [np.zeros_like(b) for b in params.biases])
    state = init_optimizer(params)
    new_params, new_state = optimizer_step(params, zero, state)
    assert new_state.step_count == 1
    assert all(np.array_equal(a, b)
               for a, b in zip(new_params.weights, params.weights))


def test_optimizer_scalar_first_step():
    # w=0, g=1, lr=0.1: the bias-corrected first step moves by exactly lr
    params = MlpParams([2, 1], [np.zeros((1, 2))], [np.zeros(1)])
    grads = Gradients([np.array([[1.0, 0.0]])], [np.zeros(1)])
    state = init_optimizer(params, learning_rate=0.1)
    new_params, _ = optimizer_step(params, grads, state)
    assert new_params.weights[0][0, 0] == pytest.approx(-0.1, abs=1e-9)


def test_optimizer_deterministic():
    rng = np.random.default_rng(7)
    params = init_params([4, 2], seed=0)
    grads = Gradients([rng.standard_normal(w.shape) for w in params.weights],
                      [rng.standard_normal(b.shape) for b in params.biases])
    state = init_optimizer(params)
    p1, s1 = optimizer_step(params, grads, state)
    p2, s2 = optimizer_step(params, grads, state)
    assert all(np.array_equal(a, b) for a, b in zip(p1.weights, p2.weights))
    assert s1.step_count == s2.step_count


def test_optimizer_diverged():
    params = init_params([4, 2], seed=0)
    grads = Gradients([np.full(w.shape, np.nan) for w in params.weights],
                      [np.zeros_like(b) for b in params.biases])
    with pytest.raises(DivergenceError, match="diverged"):
        optimizer_step(params, grads, init_optimizer(params))


# --- sigmoid ------------------------------------------------------------------

def _masked_sigmoid(z):
    """The sigmoid as written before: two boolean-mask scatters."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def test_sigmoid_matches_masked_version_bit_for_bit():
    rng = np.random.default_rng(12)
    z = np.concatenate([rng.standard_normal(20_000) * 30.0,
                        rng.uniform(-800.0, 800.0, 20_000),
                        [0.0, -0.0, np.inf, -np.inf, 710.0, -710.0, 745.2, -745.2,
                         1e-300, -1e-300, 5e-324, -5e-324]])
    assert _sigmoid(z).tobytes() == _masked_sigmoid(z).tobytes()


# --- pair head ----------------------------------------------------------------

def test_pair_head_zero_weights():
    head = init_head_params([4, 3, 1], seed=0)
    for w in head.weights:
        w[:] = 0.0
    assert pair_head_forward(head, np.array([1.0, 2.0]),
                             np.array([3.0, 4.0])) == pytest.approx(0.5)


def test_pair_head_probability_range():
    head = init_head_params([4, 3, 1], seed=1)
    rng = np.random.default_rng(8)
    for _ in range(20):
        p = pair_head_forward(head, rng.standard_normal(2) * 100,
                              rng.standard_normal(2) * 100)
        assert 0.0 < p < 1.0


def test_pair_head_gradient_matches_finite_differences():
    rng = np.random.default_rng(9)
    head = init_head_params([8, 5, 1], seed=2)
    U = rng.standard_normal((6, 4))
    V = rng.standard_normal((6, 4))
    y = rng.integers(0, 2, size=6).astype(float)

    def loss_of(h):
        loss, _, _, _ = pair_head_loss_backward(h, U, V, y)
        return loss

    _, grads, dU, dV = pair_head_loss_backward(head, U, V, y)
    numeric = _fd_gradient(loss_of, head)
    assert_gradients_close(flatten_grads(grads), numeric)

    # input gradients dU, dV against finite differences
    h = 1e-6
    for arr, d_arr in ((U, dU), (V, dV)):
        for idx in [(0, 0), (3, 2), (5, 3)]:
            orig = arr[idx]
            arr[idx] = orig + h
            up = loss_of(head)
            arr[idx] = orig - h
            down = loss_of(head)
            arr[idx] = orig
            assert d_arr[idx] == pytest.approx((up - down) / (2 * h), rel=1e-4,
                                               abs=1e-8)


# --- serialization ------------------------------------------------------------

def test_model_round_trip():
    params = init_params([5, 4, 2], seed=13)
    out = io.StringIO()
    save_params(params, out)
    again = load_params(io.StringIO(out.getvalue()))
    assert again.layer_dims == params.layer_dims
    assert again.hidden_activation == params.hidden_activation
    assert all(np.array_equal(a, b) for a, b in zip(again.weights, params.weights))
    assert all(np.array_equal(a, b) for a, b in zip(again.biases, params.biases))


def test_model_load_validates_shapes():
    params = init_params([5, 4, 2], seed=13)
    out = io.StringIO()
    save_params(params, out)
    doc = out.getvalue().replace('"layer_dims": [5, 4, 2]',
                                 '"layer_dims": [5, 3, 2]')
    with pytest.raises(ValueError, match="shape"):
        load_params(io.StringIO(doc))


def test_model_load_rejects_unknown_version():
    with pytest.raises(ValueError, match="format_version"):
        load_params(io.StringIO('{"format_version": 99}'))
