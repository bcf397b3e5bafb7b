"""Tests for the network core: init, forward, triplet loss, gradients,
optimizer, pair head, and model serialization."""
import io
import json
import math

import numpy as np
import pytest

from contrastmap.network import (DivergenceError, MlpParams, _sigmoid, forward, init_optimizer,
                                 init_params, load_params, params_to_dict,
                                 optimizer_step, pair_head_logits,
                                 pair_head_loss_backward, save_params,
                                 triplet_backward, triplet_loss)


def _random_batch(rng, n=16, m=10):
    """Aligned (anchors, synonyms, antonyms) row blocks, each (n, m)."""
    return (rng.standard_normal((n, m)),
            rng.standard_normal((n, m)),
            rng.standard_normal((n, m)))


def _mlp(layer_dims, weights, biases):
    """MlpParams from per-layer arrays, laid out as weights then biases."""
    return MlpParams(layer_dims, np.concatenate([np.ravel(a) for a in weights + biases]))


def _fd_gradient(fn, params, h=1e-5):
    """Central finite differences of a scalar function of MlpParams."""
    flat = params.flat
    grad = np.empty_like(flat)
    for i in range(len(flat)):
        plus = flat.copy()
        plus[i] += h
        minus = flat.copy()
        minus[i] -= h
        grad[i] = (fn(MlpParams(params.layer_dims, plus, params.hidden_activation))
                   - fn(MlpParams(params.layer_dims, minus, params.hidden_activation))) / (2 * h)
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


# --- forward ------------------------------------------------------------------

def test_forward_single_linear_layer():
    params = _mlp([2, 2], [np.array([[2.0, 0.0], [0.0, 3.0]])], [np.zeros(2)])
    assert np.allclose(forward(params, np.array([[1.0, 1.0]])), [[2, 3]])


def test_forward_zero_weights_returns_bias():
    params = _mlp([3, 2], [np.zeros((2, 3))], [np.array([0.5, -1.5])])
    X = np.array([np.zeros(3), np.ones(3), [3.0, -7.0, 2.0]])
    assert np.allclose(forward(params, X), [[0.5, -1.5]] * 3)


def test_forward_tanh_saturation():
    params = init_params([2, 4, 1], seed=0)
    params.weights[0][...] = 100.0  # saturating pre-activations
    params.weights[1][...] = 1.0
    out = forward(params, np.array([[1.0, 1.0]]))
    assert abs(out[0, 0]) <= 4.0 + 1e-12  # sum of four tanh values in [-1, 1]


def test_forward_dimension_mismatch():
    params = init_params([4, 2], seed=0)
    with pytest.raises(ValueError, match="dimension"):
        forward(params, np.zeros((1, 3)))
    with pytest.raises(ValueError, match=r"\(n, m\) matrix"):
        forward(params, np.zeros(4))  # a single vector goes in as a (1, m) matrix


# --- triplet loss -------------------------------------------------------------

def _identity_map(m):
    return _mlp([m, m - 1], [np.eye(m - 1, m)], [np.zeros(m - 1)])


def test_loss_zero_at_optimum():
    # identity-like map; synonym parallel to anchor, antonym antiparallel
    params = _identity_map(3)
    batch = (np.array([[1.0, 0.0, 0.0]]),
             np.array([[2.0, 0.0, 0.0]]),
             np.array([[-1.0, 0.0, 0.0]]))
    assert triplet_loss(params, *batch) == pytest.approx(0.0, abs=1e-9)


def test_loss_constant_map_is_two():
    # zero weights and constant bias: f(x) is the same vector for every input
    params = _mlp([3, 2], [np.zeros((2, 3))], [np.array([1.0, 2.0])])
    rng = np.random.default_rng(0)
    batch = _random_batch(rng, n=5, m=3)
    assert triplet_loss(params, *batch) == pytest.approx(2.0, abs=1e-9)


def test_loss_golden_value():
    rng = np.random.default_rng(1)
    batch = _random_batch(rng, n=16, m=10)
    params = init_params([10, 8, 4], seed=3)
    assert triplet_loss(params, *batch) == pytest.approx(1.668555504684118,
                                                        abs=1e-12)


def test_loss_bounds_random():
    rng = np.random.default_rng(2)
    for _ in range(20):
        params = init_params([6, 5, 3], seed=int(rng.integers(1000)))
        batch = _random_batch(rng, n=8, m=6)
        assert 0.0 <= triplet_loss(params, *batch) <= 4.0


def test_loss_permutation_invariance():
    rng = np.random.default_rng(3)
    params = init_params([6, 5, 3], seed=1)
    batch = _random_batch(rng, n=10, m=6)
    perm = rng.permutation(10)
    l1, g1 = triplet_backward(params, *batch)
    l2, g2 = triplet_backward(params, *(X[perm] for X in batch))
    assert l1 == pytest.approx(l2, abs=1e-12)
    assert np.allclose(g1, g2, atol=1e-12)


# --- gradients ----------------------------------------------------------------

def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(4)
    params = init_params([10, 8, 4], seed=11)
    batch = _random_batch(rng)
    _, grads = triplet_backward(params, *batch)
    numeric = _fd_gradient(lambda p: triplet_loss(p, *batch), params)
    assert_gradients_close(grads, numeric)


def test_gradient_near_zero_at_optimum():
    params = _identity_map(3)
    _, grads = triplet_backward(params, np.array([[1.0, 0.0, 0.0]]),
                                np.array([[2.0, 0.0, 0.0]]),
                                np.array([[-1.0, 0.0, 0.0]]))
    assert np.linalg.norm(grads) < 1e-6


def test_gradient_batch_mean():
    rng = np.random.default_rng(5)
    params = init_params([6, 5, 3], seed=1)
    one = _random_batch(rng, n=1, m=6)
    _, g1 = triplet_backward(params, *one)
    _, g8 = triplet_backward(params, *(np.repeat(X, 8, axis=0) for X in one))
    assert np.allclose(g1, g8, atol=1e-12)


def test_one_small_step_decreases_loss():
    rng = np.random.default_rng(6)
    for seed in range(5):
        params = init_params([8, 6, 3], seed=seed)
        batch = _random_batch(rng, n=12, m=8)
        loss, grads = triplet_backward(params, *batch)
        state = init_optimizer(params, learning_rate=1e-4)
        new_params, _ = optimizer_step(params, grads, state)
        assert triplet_loss(new_params, *batch) < loss


# --- optimizer ----------------------------------------------------------------

def test_optimizer_zero_gradient():
    params = init_params([4, 2], seed=0)
    zero = np.zeros_like(params.flat)
    state = init_optimizer(params, learning_rate=1e-3)
    new_params, new_state = optimizer_step(params, zero, state)
    assert new_state.step_count == 1
    assert all(np.array_equal(a, b)
               for a, b in zip(new_params.weights, params.weights))


def test_optimizer_scalar_first_step():
    # w=0, g=1, lr=0.1: the bias-corrected first step moves by exactly lr
    params = MlpParams([2, 1])
    grads = np.array([1.0, 0.0, 0.0])  # w00, w01, b0
    state = init_optimizer(params, learning_rate=0.1)
    new_params, _ = optimizer_step(params, grads, state)
    assert new_params.weights[0][0, 0] == pytest.approx(-0.1, abs=1e-9)


def test_optimizer_deterministic():
    rng = np.random.default_rng(7)
    params = init_params([4, 2], seed=0)
    grads = rng.standard_normal(params.flat.shape)
    state = init_optimizer(params, learning_rate=1e-3)
    p1, s1 = optimizer_step(params, grads, state)
    p2, s2 = optimizer_step(params, grads, state)
    assert all(np.array_equal(a, b) for a, b in zip(p1.weights, p2.weights))
    assert s1.step_count == s2.step_count


def test_optimizer_diverged():
    params = init_params([4, 2], seed=0)
    grads = np.zeros_like(params.flat)
    grads[:params.weights[0].size] = np.nan
    with pytest.raises(DivergenceError, match="diverged"):
        optimizer_step(params, grads, init_optimizer(params, learning_rate=1e-3))



def _layer_shapes(dims):
    """Weight shapes, then bias shapes, in layer order."""
    return ([(o, i) for i, o in zip(dims[:-1], dims[1:])]
            + [(o,) for o in dims[1:]])


def _split(vec, dims):
    """Per-array copies of a flat vector, cut independently of MlpParams."""
    out, pos = [], 0
    for shape in _layer_shapes(dims):
        out.append(vec[pos:pos + math.prod(shape)].reshape(shape).copy())
        pos += math.prod(shape)
    assert pos == vec.size
    return out


def _per_array_adam(arrays, grads, m, v, t, lr, b1=0.9, b2=0.999, eps=1e-8):
    """The adaptive-moment update as written before the flat layout: one
    loop over every weight and bias array, on copies of the moments."""
    t += 1
    c1 = 1.0 - b1 ** t
    c2 = 1.0 - b2 ** t
    arrays = list(arrays)
    m = [x.copy() for x in m]
    v = [x.copy() for x in v]
    for i, g in enumerate(grads):
        m[i] *= b1
        m[i] += (1.0 - b1) * g
        v[i] *= b2
        v[i] += (1.0 - b2) * g * g
        m_hat = m[i] / c1
        v_hat = v[i] / c2
        arrays[i] = arrays[i] - lr * m_hat / (np.sqrt(v_hat) + eps)
    return arrays, m, v, t


@pytest.mark.parametrize("dims,lr", [([50, 128, 64, 4], 1e-3), ([8, 32, 1], 0.05)])
def test_flat_optimizer_matches_per_array_reference_bit_for_bit(dims, lr):
    rng = np.random.default_rng(14)
    params = init_params(dims, seed=3)
    state = init_optimizer(params, learning_rate=lr)
    arrays = _split(params.flat, dims)
    m = [np.zeros_like(a) for a in arrays]
    v = [np.zeros_like(a) for a in arrays]
    t = 0
    flat_bytes = lambda parts: np.concatenate([a.ravel() for a in parts]).tobytes()
    for k in range(50):
        grad = rng.standard_normal(params.flat.shape) * 10.0 ** (k % 9 - 6)
        grad[rng.random(grad.shape) < 0.05] = 0.0
        params, state = optimizer_step(params, grad, state)
        arrays, m, v, t = _per_array_adam(arrays, _split(grad, dims), m, v, t, lr)
        assert state.step_count == t
        assert params.flat.tobytes() == flat_bytes(arrays)
        assert state.first_moment.tobytes() == flat_bytes(m)
        assert state.second_moment.tobytes() == flat_bytes(v)


def test_optimizer_step_leaves_its_inputs_unchanged():
    params = init_params([6, 5, 3], seed=2)
    state = init_optimizer(params, learning_rate=1e-3)
    grad = np.random.default_rng(15).standard_normal(params.flat.shape)
    before = (params.flat.copy(), grad.copy())
    new_params, new_state = optimizer_step(params, grad, state)
    new_params.flat[:] = 7.0
    new_state.first_moment[:] = 7.0
    assert np.array_equal(params.flat, before[0]) and np.array_equal(grad, before[1])
    assert state.step_count == 0 and not state.first_moment.any()


# --- flat parameter layout ------------------------------------------------------

def test_flat_layout_views():
    dims = [5, 4, 2]
    params = init_params(dims, seed=13)
    assert params.flat.dtype == np.float64 and params.flat.flags.c_contiguous
    parts = _split(params.flat, dims)
    for got, want in zip(params.weights + params.biases, parts):
        assert got.shape == want.shape and np.array_equal(got, want)
        assert np.shares_memory(got, params.flat)
    params.weights[1][1, 2] = 42.0
    params.biases[0][3] = -7.0
    assert params.flat[4 * 5 + 1 * 4 + 2] == 42.0
    assert params.flat[4 * 5 + 2 * 4 + 3] == -7.0
    with pytest.raises(TypeError):
        params.weights[0] = np.zeros((4, 5))  # the views cannot be replaced


def test_flat_layout_wraps_without_copy():
    vec = np.arange(23, dtype=np.float64)
    params = MlpParams([4, 3, 2], vec)
    assert params.flat is vec


def test_flat_layout_survives_save_and_load():
    rng = np.random.default_rng(16)
    for dims, act in (([7, 6, 5, 3], "tanh"), ([6, 4, 1], "relu")):
        params = MlpParams(dims, rng.standard_normal(sum(math.prod(s) for s in _layer_shapes(dims))),
                           act)
        params.flat[0] = -0.0
        params.flat[1] = 5e-324
        out = io.StringIO()
        save_params(params, out)
        again = load_params(io.StringIO(out.getvalue()))
        assert again.flat.tobytes() == params.flat.tobytes()
        assert again.hidden_activation == act


@pytest.mark.parametrize("length", [0, 22, 24])
def test_flat_layout_rejects_wrong_length(length):
    with pytest.raises(ValueError, match="parameter vector"):
        MlpParams([4, 3, 2], np.zeros(length))
    with pytest.raises(ValueError, match="parameter vector"):
        MlpParams([4, 3, 2], np.zeros((1, 23)))

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
    head = init_params([4, 3, 1], seed=0)
    for w in head.weights:
        w[:] = 0.0
    logits = pair_head_logits(head, np.array([[1.0, 2.0]]), np.array([[3.0, 4.0]]))
    assert _sigmoid(logits) == pytest.approx([0.5])


def test_pair_head_probability_range():
    head = init_params([4, 3, 1], seed=1)
    rng = np.random.default_rng(8)
    U, V = rng.standard_normal((20, 2)) * 100, rng.standard_normal((20, 2)) * 100
    p = _sigmoid(pair_head_logits(head, U, V))
    assert p.shape == (20,) and np.all((0.0 < p) & (p < 1.0))


def test_pair_head_gradient_matches_finite_differences():
    rng = np.random.default_rng(9)
    head = init_params([8, 5, 1], seed=2)
    U = rng.standard_normal((6, 4))
    V = rng.standard_normal((6, 4))
    y = rng.integers(0, 2, size=6).astype(float)

    def loss_of(h):
        loss, _, _, _ = pair_head_loss_backward(h, U, V, y)
        return loss

    _, grads, dU, dV = pair_head_loss_backward(head, U, V, y)
    numeric = _fd_gradient(loss_of, head)
    assert_gradients_close(grads, numeric)

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


@pytest.mark.parametrize("dims, activation", [([300, 128, 40], "tanh"), ([80, 32, 1], "relu")],
                         ids=["map", "head"])
def test_save_params_writes_the_json_dump_bytes(dims, activation):
    params = init_params(dims, activation, seed=3)
    params.biases[0][...] = np.linspace(-1.0, 1.0, dims[1])
    params.flat[:4] = [1e-20, 1e16, -0.0, 5e-324]  # repr's exponent and signed-zero forms
    out, reference = io.StringIO(), io.StringIO()
    save_params(params, out)
    json.dump(params_to_dict(params), reference, sort_keys=True)
    reference.write("\n")
    assert out.getvalue() == reference.getvalue()


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
