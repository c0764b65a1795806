"""A physical cluster-state reference for the logical step model.

The wire code assumes that measuring one cluster site at angle theta with
outcome m applies X^m H Z_theta to the logical state, with each outcome
equally likely. Here a linear cluster is simulated as a state vector, with
no use of ``measurement_gates``: the input site holds half of a Bell pair
with a reference qubit, so the projected state is the realized gate itself.
"""

import numpy as np
import pytest

from mbqcrb.gatesets import OUTCOME_TRIPLES, block_gates, clifford_group, derandomized_design

PLUS = np.array([1.0, 1.0]) / np.sqrt(2.0)
CZ = np.array([[1.0, 1.0], [1.0, -1.0]])


def cluster_gates(angles, order=None):
    """K[m, out, ref] after projecting sites 1..q of a CZ chain, per outcome string m.

    Axis 0 is the reference qubit, axis 1 the input site (Bell-paired with
    it) and axes 2..q+1 the |+> sites; site k is projected onto
    (|0> + (-1)^m e^{-i theta_k}|1>)/sqrt(2), and its outcome axis takes its
    place. Outcome strings are flattened with the first outcome most significant.
    """
    q = len(angles)
    state = np.eye(2) / np.sqrt(2.0)
    for _ in range(q):
        state = np.multiply.outer(state, PLUS)
    for k in range(1, q + 1):  # CZ between sites k and k+1
        state = state * CZ.reshape((1,) * k + (2, 2) + (1,) * (q - k))
    for k in order or range(1, q + 1):
        phase = np.exp(1j * angles[k - 1])
        bra = np.array([[1.0, phase], [1.0, -phase]]) / np.sqrt(2.0)  # [m, a]: conjugated kets
        state = np.moveaxis(np.tensordot(bra, state, axes=(1, k)), 0, k)
    return np.moveaxis(state, 0, -1).reshape(2**q, 2, 2)


def infidelity(k, gates):
    """1 - |<k|gate>|^2 for each outcome string, between normalised operators."""
    overlap = np.einsum("mij,mij->m", np.conj(gates), k)
    norms = np.einsum("mij,mij->m", np.conj(k), k).real * np.einsum("mij,mij->m", np.conj(gates), gates).real
    return 1.0 - np.abs(overlap) ** 2 / norms


@pytest.mark.parametrize("g", range(24))
def test_clifford_rows_match_block_gates(g):
    angles = clifford_group()[g].angles
    k = cluster_gates(angles)
    assert np.max(infidelity(k, block_gates(angles, np.array(OUTCOME_TRIPLES)))) < 1e-12
    # every outcome string is equally likely, whatever the input
    assert np.allclose(np.einsum("mij,mij->m", np.conj(k), k).real, 2.0**-3, rtol=0, atol=1e-14)


def test_design_elements_match_the_cluster():
    design = derandomized_design(0.3, 1.1)
    k = cluster_gates(design.angles)
    elements = np.stack([u.matrix for u in design.elements])
    assert np.max(infidelity(k, elements)) < 1e-12
    assert np.allclose(np.einsum("mij,mij->m", np.conj(k), k).real, 2.0**-5, rtol=0, atol=1e-14)


def test_projection_order_does_not_matter():
    # without feedforward, the sites may be measured in any order
    angles = derandomized_design(0.3, 1.1).angles
    forward = cluster_gates(angles)
    backward = cluster_gates(angles, order=range(len(angles), 0, -1))
    assert np.allclose(forward, backward, rtol=0, atol=1e-14)
