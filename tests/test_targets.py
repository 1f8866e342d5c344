import numpy as np
import pytest

from spingate.errors import NotUnitary, UnknownGate
from spingate.linalg import is_unitary
from spingate.targets import (TargetGate, elementary, fredkin,
                              load_target_matrix, resolve_target, toffoli)


def test_toffoli_permutation_action():
    m = toffoli().matrix
    # swaps |110> <-> |111>, fixes everything else (qubit 1 = MSB)
    for i in range(6):
        v = np.zeros(8)
        v[i] = 1.0
        assert np.array_equal(m @ v, v)
    v = np.zeros(8)
    v[6] = 1.0
    assert (m @ v)[7] == 1.0


def test_fredkin_permutation_action():
    m = fredkin().matrix
    v = np.zeros(8)
    v[5] = 1.0  # |101> -> |110>
    assert (m @ v)[6] == 1.0
    for i in (0, 1, 2, 3, 4, 7):
        v = np.zeros(8)
        v[i] = 1.0
        assert np.array_equal(m @ v, v)


def test_named_gates_unitary_involutions():
    for g in (toffoli(), fredkin()):
        assert is_unitary(g.matrix, 1e-12)
        assert np.array_equal(g.matrix @ g.matrix, np.eye(8))
        assert g.n == 3
        assert abs(np.trace(g.matrix) - 6.0) < 1e-14  # 6 fixed basis states


def test_target_matrix_readonly():
    g = toffoli()
    with pytest.raises(ValueError):
        g.matrix[0, 0] = 2.0


def test_target_gate_validation():
    with pytest.raises(NotUnitary):
        TargetGate("bad", np.ones((4, 4)))
    with pytest.raises(NotUnitary):
        TargetGate("rect", np.eye(3))  # 3 is not a power of 2


def test_elementary_catalogue():
    h = elementary("H")
    assert np.max(np.abs(h @ h - np.eye(2))) < 1e-14
    cnot = elementary("CNOT")
    assert np.array_equal(cnot @ cnot, np.eye(4))
    with pytest.raises(UnknownGate):
        elementary("T")


def test_elementary_returns_copies():
    a = elementary("H")
    a[0, 0] = 99.0
    assert elementary("H")[0, 0] != 99.0


def test_resolve_target_names():
    assert resolve_target("toffoli").name == "toffoli"
    assert resolve_target(" Fredkin ").name == "fredkin"
    with pytest.raises(UnknownGate):
        resolve_target("cnot3")


def test_load_target_matrix_roundtrip(tmp_path):
    """A gate written as re,im rows loads back with the file-stem name."""
    m = elementary("CNOT")
    lines = ["# a 4x4 permutation"]
    for row in m:
        lines.append(" ".join(f"{c.real:.1f},{c.imag:.1f}" for c in row))
    path = tmp_path / "mygate.txt"
    path.write_text("\n".join(lines) + "\n")
    g = load_target_matrix(str(path))
    assert g.name == "mygate"
    assert np.array_equal(g.matrix, m)
    assert resolve_target(str(path)).name == "mygate"


def test_load_target_matrix_rejects_bad_files(tmp_path):
    p = tmp_path / "ragged.txt"
    p.write_text("1.0,0.0 0.0,0.0\n0.0,0.0\n")
    with pytest.raises(ValueError, match="has rows of 2 and 1 entries"):
        load_target_matrix(str(p))
    p2 = tmp_path / "notunitary.txt"
    p2.write_text("1.0,0.0 0.0,0.0\n0.0,0.0 2.0,0.0\n")
    with pytest.raises(NotUnitary):
        load_target_matrix(str(p2))
    p3 = tmp_path / "noim.txt"
    p3.write_text("1.0 0.0\n0.0 1.0\n")
    with pytest.raises(ValueError, match="bad matrix entry '1.0'"):
        load_target_matrix(str(p3))
    p4 = tmp_path / "wide.txt"
    p4.write_text("1.0,0.0 0.0,0.0 0.0,0.0\n0.0,0.0 1.0,0.0 0.0,0.0\n")
    with pytest.raises(ValueError, match="is not a square matrix"):
        load_target_matrix(str(p4))
    p5 = tmp_path / "empty.txt"
    p5.write_text("# no rows\n")
    with pytest.raises(ValueError, match="is not a square matrix"):
        load_target_matrix(str(p5))
