"""Term catalogue, assembly, and parameter formatting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from spingate.errors import InvalidQubitCount, LengthMismatch
from spingate.hamiltonian import (PAULI_1Q, HamiltonianSpec, PauliString,
                                  assemble, format_parameters, heisenberg_spec,
                                  parse_parameters, wrap_angles)
from spingate.linalg import kron

CANONICAL_LABELS_3 = ("X1", "Y1", "Z1", "X2", "Y2", "Z2", "X3", "Y3", "Z3",
                      "X1X2", "Y1Y2", "Z1Z2", "X2X3", "Y2Y3", "Z2Z3")


def test_term_count_formula():
    for n in (2, 3, 4, 5):
        assert heisenberg_spec(n).q == 6 * n - 3


def test_canonical_order_n3(spec3):
    assert spec3.labels == CANONICAL_LABELS_3


def test_index_groups(spec3):
    assert spec3.local_indices() == list(range(9))
    assert spec3.local_indices("Z") == [2, 5, 8]
    assert spec3.local_indices("X") == [0, 3, 6]
    assert spec3.coupling_indices() == [9, 10, 11, 12, 13, 14]


def test_pauli_string_matrix_matches_kron():
    p = PauliString("IZX")
    expect = kron(PAULI_1Q["I"], PAULI_1Q["Z"], PAULI_1Q["X"])
    assert np.array_equal(p.matrix(), expect)
    assert p.weight == 2
    assert p.label == "Z2X3"


def test_pauli_string_rejects_bad_letters():
    with pytest.raises(ValueError):
        PauliString("XQZ")
    with pytest.raises(ValueError):
        PauliString("")


def test_invalid_chain_length():
    with pytest.raises(InvalidQubitCount):
        heisenberg_spec(1)
    with pytest.raises(InvalidQubitCount):
        heisenberg_spec("3")


def test_matrices_cached_and_readonly(spec3):
    a = spec3.matrices()
    b = spec3.matrices()
    assert a is b
    assert not a.flags.writeable
    assert a.shape == (15, 8, 8)


def test_nonzeros_rebuild_every_term_matrix(spec3):
    perm, phase = spec3.nonzeros()
    rebuilt = np.zeros_like(spec3.matrices())
    np.put_along_axis(rebuilt, perm[..., None], phase[..., None], axis=-1)
    assert np.array_equal(rebuilt, spec3.matrices())
    assert spec3.nonzeros()[0] is perm
    assert not perm.flags.writeable and not phase.flags.writeable


def test_assemble_hermitian_traceless(spec3, rng):
    for _ in range(20):
        theta = rng.normal(size=spec3.q)
        h = assemble(spec3, theta)
        assert np.max(np.abs(h - h.conj().T)) <= 1e-12
        assert abs(np.trace(h)) <= 1e-12


def test_assemble_single_term(spec3):
    # theta = e_2 picks out Z on site 1: diag(1,1,1,1,-1,-1,-1,-1)
    theta = np.zeros(spec3.q)
    theta[2] = 1.0
    h = assemble(spec3, theta)
    assert np.array_equal(np.diag(h).real, [1, 1, 1, 1, -1, -1, -1, -1])
    assert np.count_nonzero(h - np.diag(np.diag(h))) == 0


def test_assemble_is_linear(spec3, rng):
    a = rng.normal(size=spec3.q)
    b = rng.normal(size=spec3.q)
    lhs = assemble(spec3, a) + 2.0 * assemble(spec3, b)
    rhs = assemble(spec3, a + 2.0 * b)
    assert np.max(np.abs(lhs - rhs)) < 1e-13


def test_assemble_length_check(spec3):
    for call in (assemble, format_parameters):
        with pytest.raises(LengthMismatch):
            call(spec3, np.zeros(14))


def test_wrap_angles_idempotent_bitwise(rng):
    theta = rng.uniform(-np.pi, np.pi, size=50)
    wrapped = wrap_angles(theta)
    assert np.array_equal(wrapped, theta)
    again = wrap_angles(wrapped)
    assert np.array_equal(again, wrapped)


def test_wrap_angles_window(rng):
    theta = rng.uniform(-40.0, 40.0, size=200)
    w = wrap_angles(theta)
    assert np.all(np.abs(w) <= np.pi + 1e-12)
    # shift is always an integer multiple of 2*pi
    k = (theta - w) / (2.0 * np.pi)
    assert np.max(np.abs(k - np.round(k))) < 1e-9


@settings(max_examples=200, deadline=None)
@given(theta=arrays(float, 15, elements=st.floats(-1e3, 1e3)))
def test_format_parse_roundtrip(spec3, theta):
    # format keeps 10 decimals: parsing gives theta to within half a unit
    # in that place, and formatting the parsed values again is exact
    text = format_parameters(spec3, theta)
    back = parse_parameters(text, spec3)
    assert np.all(np.abs(back - theta) <= 5e-11 + 1e-15 * np.abs(theta))
    assert format_parameters(spec3, back) == text
    assert text.splitlines()[0].startswith("X1 0 ")
    assert text.endswith("\n")


def test_parse_rejects_malformed(spec3):
    good = format_parameters(spec3, np.zeros(spec3.q))
    lines = good.splitlines()
    with pytest.raises(ValueError):
        parse_parameters("\n".join(lines[:-1]), spec3)  # one line short
    swapped = "\n".join(["Y1 0 0.0"] + lines[1:])
    with pytest.raises(ValueError):
        parse_parameters(swapped, spec3)
    with pytest.raises(ValueError):
        parse_parameters(good + "\nX1 0 0.0", spec3)  # duplicate index
    with pytest.raises(ValueError, match="malformed parameter line 'X1 0'"):
        parse_parameters("X1 0\n" + good, spec3)  # a value short


def test_parse_skips_comments_and_blanks(spec3):
    text = "# header\n\n" + format_parameters(spec3, np.arange(15.0))
    vals = parse_parameters(text, spec3)
    assert np.allclose(vals, np.arange(15.0))


def test_spec_equality_is_structural():
    a = heisenberg_spec(3)
    b = heisenberg_spec(3)
    assert a == b
    a.matrices()  # cache on one side only; equality must ignore it
    assert a == b


def test_label_free_identity():
    s = HamiltonianSpec(n=2, terms=(PauliString("II"),))
    assert s.labels == ("I",)
