import numpy as np
import pytest

from ghreplay.linalg import SIGMOID, TANH, activation, matmul
from ghreplay.rng import SeededRng


def test_matmul_identity_exact():
    rng = SeededRng(1)
    a = np.array([[rng.uniform(-5, 5) for _ in range(2)] for _ in range(2)])
    eye = np.eye(2)
    assert np.array_equal(matmul(eye, a), a)
    assert np.array_equal(matmul(a, eye), a)


def test_matmul_hand_example():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    b = np.array([[0.0], [1.0]])
    assert np.array_equal(matmul(a, b), np.array([[2.0], [4.0]]))


def test_matmul_dimension_mismatch_names_shapes():
    with pytest.raises(ValueError, match=r"\(1x3\) @ \(2x2\)"):
        matmul(np.zeros((1, 3)), np.zeros((2, 2)))


def test_matmul_rejects_non_2d():
    with pytest.raises(ValueError, match="2-D"):
        matmul(np.zeros(3), np.zeros((3, 2)))


def test_matmul_associative_within_tolerance():
    rng = SeededRng(2)
    for _ in range(20):
        m, n, k, l = (rng.randbelow(4) + 2 for _ in range(4))
        a = np.array([[rng.uniform(-1, 1) for _ in range(n)] for _ in range(m)])
        b = np.array([[rng.uniform(-1, 1) for _ in range(k)] for _ in range(n)])
        c = np.array([[rng.uniform(-1, 1) for _ in range(l)] for _ in range(k)])
        left = matmul(matmul(a, b), c)
        right = matmul(a, matmul(b, c))
        assert np.max(np.abs(left - right)) < 1e-9


def test_matmul_reports_non_finite_result():
    big = np.full((1, 1), 1e308)
    with pytest.raises(ValueError, match="non-finite"):
        matmul(big, big)


def test_sigmoid_values():
    y = activation(SIGMOID, np.array([[0.0]]))
    assert y[0, 0] == 0.5


def test_sigmoid_extreme_arguments_are_stable():
    with np.errstate(over="raise"):
        y = activation(SIGMOID, np.array([[-1000.0, 1000.0, -1e6, 1e6]]))
    assert y[0, 0] == 0.0
    assert y[0, 1] == 1.0
    assert np.isfinite(y).all()


def test_tanh_odd_function():
    x = np.array([[0.0, 0.7, -0.7, 3.0, -3.0]])
    y = activation(TANH, x)
    assert y[0, 0] == 0.0
    assert y[0, 1] == -y[0, 2]
    assert y[0, 3] == -y[0, 4]


def test_all_activations_finite_up_to_1e6():
    x = np.array([[-1e6, -12.3, 0.0, 12.3, 1e6]])
    for kind in (SIGMOID, TANH):
        assert np.isfinite(activation(kind, x)).all()


def test_activation_rejects_non_finite_input():
    with pytest.raises(ValueError, match="non-finite"):
        activation(SIGMOID, np.array([[np.nan]]))


def test_activation_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown activation"):
        activation("relu", np.zeros((1, 1)))

