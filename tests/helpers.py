"""Shared test oracles, independent of the library's kernels.

Operators are assembled from 2x2 primitives with explicit Kronecker
products and projector sums, then chained as dense matrices, so agreement
with the library is a genuine two-route check.
"""

import math
from itertools import product

import numpy as np

from branchcomm.branches import TransferVerdict, evaluate_transfer
from branchcomm.protocol import Message, ProtocolConfig, build_protocol_circuit
from branchcomm.statevec import (
    Circuit,
    GateKind,
    GateOp,
    RegisterLayout,
    StateVector,
    apply_circuit,
    dense_amplitudes,
    zero_state,
)

I2 = np.eye(2, dtype=complex)
X2 = np.array([[0, 1], [1, 0]], dtype=complex)
H2 = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)
P0 = np.array([[1, 0], [0, 0]], dtype=complex)
P1 = np.array([[0, 0], [0, 1]], dtype=complex)


def ry2(theta: float) -> np.ndarray:
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    return np.array([[c, -s], [s, c]], dtype=complex)


def full_operator(total: int, factors: dict[int, np.ndarray]) -> np.ndarray:
    """Kronecker product over qubit positions, position 0 most significant."""
    op = np.array([[1.0]], dtype=complex)
    for q in range(total):
        op = np.kron(op, factors.get(q, I2))
    return op


def controlled_operator(
    total: int, controls: list[int], target_factors: dict[int, np.ndarray]
) -> np.ndarray:
    """Sum over control patterns; the action fires only on all-ones."""
    dim = 1 << total
    out = np.zeros((dim, dim), dtype=complex)
    for pattern in product((0, 1), repeat=len(controls)):
        factors = {c: (P1 if b else P0) for c, b in zip(controls, pattern)}
        if all(pattern):
            factors = {**factors, **target_factors}
        out += full_operator(total, factors)
    return out


def oracle_matrix(op: GateOp, total: int) -> np.ndarray:
    """Dense matrix for one gate, by an independent reading of its semantics."""
    kind = op.kind.value
    if kind == "X":
        return full_operator(total, {op.targets[0]: X2})
    if kind == "H":
        return full_operator(total, {op.targets[0]: H2})
    if kind == "RY":
        return full_operator(total, {op.targets[0]: ry2(op.angle)})
    if kind == "MULTI_X":
        return full_operator(total, {t: X2 for t in op.targets})
    if kind == "CNOT":
        return controlled_operator(total, list(op.controls), {op.targets[0]: X2})
    if kind == "ENCODE_MU":
        writes = {t: X2 for bit, t in zip(op.payload, op.targets) if bit == "1"}
        if not op.controls:
            return full_operator(total, writes)
        return controlled_operator(total, list(op.controls), writes)
    if kind == "TRANSVERSAL_CNOT":
        # The pairs touch distinct qubits, so each CNOT fires on its own
        # control: sum over the control patterns, flipping the target of
        # every control that reads 1.
        dim = 1 << total
        out = np.zeros((dim, dim), dtype=complex)
        for pattern in product((0, 1), repeat=len(op.controls)):
            factors = {}
            for c, t, bit in zip(op.controls, op.targets, pattern):
                factors[c] = P1 if bit else P0
                if bit:
                    factors[t] = X2
            out += full_operator(total, factors)
        return out
    raise ValueError(f"oracle does not know kind {kind!r}")


def oracle_apply(amps: np.ndarray, ops, total: int) -> np.ndarray:
    vec = np.array(amps, dtype=complex)
    for op in ops:
        vec = oracle_matrix(op, total) @ vec
    return vec


def inverse_op(op: GateOp) -> GateOp:
    """Inverse gate: every kind is self-inverse except RY, whose angle flips."""
    if op.kind is GateKind.RY:
        return GateOp.ry(-op.angle, op.targets[0])
    return op


def listed_by_bits(amps) -> list[tuple[int, complex]]:
    """(index, amplitude) of every entry that is not +0.0 in both parts, the
    entries a state built from `amps` lists: signed zeros are kept."""
    return [
        (i, a)
        for i, a in enumerate(np.asarray(amps, dtype=complex).tolist())
        if a or math.copysign(1.0, a.real) < 0 or math.copysign(1.0, a.imag) < 0
    ]


def branch_component(branch) -> np.ndarray:
    """A Branch's projection as a full-length read-only dense array, so
    decompositions can be re-summed and re-projected."""
    return dense_amplitudes(branch.layout, branch.indices, branch.values)


def random_state(layout: RegisterLayout, rng: np.random.Generator) -> StateVector:
    amps = rng.normal(size=layout.dim) + 1j * rng.normal(size=layout.dim)
    return StateVector(layout, amps / np.linalg.norm(amps))


def random_circuit(
    rng: np.random.Generator, layout: RegisterLayout, max_gates: int = 6
) -> Circuit:
    """Random circuit drawing from every gate kind that fits the layout."""
    total = layout.total_qubits
    ops = []
    for _ in range(int(rng.integers(1, max_gates + 1))):
        choice = rng.choice(7)
        qubits = [int(q) for q in rng.permutation(total)]
        if choice == 0:
            ops.append(GateOp.x(qubits[0]))
        elif choice == 1:
            ops.append(GateOp.h(qubits[0]))
        elif choice == 2:
            ops.append(GateOp.ry(float(rng.uniform(0, 2 * np.pi)), qubits[0]))
        elif choice == 3 and total >= 2:
            ops.append(GateOp.cnot(qubits[0], qubits[1]))
        elif choice == 4:
            count = int(rng.integers(1, total + 1))
            ops.append(GateOp.multi_x(sorted(qubits[:count])))
        elif choice == 5 and total >= 2:
            width = int(rng.integers(1, total))
            targets = qubits[:width]
            control = qubits[width] if rng.integers(2) and width < total else None
            payload = "".join(rng.choice(["0", "1"], size=width))
            ops.append(GateOp.encode(payload, targets, control=control))
        elif choice == 6 and total >= 2:
            pairs = int(rng.integers(1, total // 2 + 1))
            ops.append(
                GateOp.transversal_cnot(qubits[:pairs], qubits[pairs : 2 * pairs])
            )
        else:
            ops.append(GateOp.h(qubits[0]))
    return Circuit(layout, tuple(ops))


def dense_G(images) -> np.ndarray:
    """The dense complex128 matrix of a map on basis indices: column j holds
    a 1 in row images[j], so that G|j> = |images[j]>."""
    dim = len(images)
    matrix = np.zeros((dim, dim), dtype=np.complex128)
    for j, image in enumerate(images):
        matrix[image, j] = 1.0
    return matrix


def gram_schmidt_G(bits: str) -> np.ndarray:
    """Memory swap |mu><0| + |0><mu| + sum_j |e_j><e_j|, by construction.

    The e_j complete {|0...0>, |mu>} to an orthonormal basis by Gram-Schmidt
    over the canonical basis in index order, skipping dependent vectors.
    """
    dim = 1 << len(bits)
    zero = np.zeros(dim, dtype=np.complex128)
    zero[0] = 1.0
    target = np.zeros(dim, dtype=np.complex128)
    target[int(bits, 2)] = 1.0

    matrix = np.outer(target, zero.conj()) + np.outer(zero, target.conj())
    basis = [zero, target]
    for k in range(dim):
        v = np.zeros(dim, dtype=np.complex128)
        v[k] = 1.0
        for b in basis:
            v = v - np.vdot(b, v) * b
        norm = np.linalg.norm(v)
        if norm < 1e-6:
            continue
        v = v / norm
        basis.append(v)
        matrix += np.outer(v, v.conj())
    return matrix


def wide_transfer(friend0: str, friend1: str, message: Message) -> TransferVerdict:
    """The whole transfer with a friend that rests in snapshot friend0 and is
    steered to friend1 when Q=1, judged with those snapshots as the two
    branches' friends."""
    circuit = build_protocol_circuit(
        ProtocolConfig(n=message.n), message, friend0, friend1
    )
    final, _ = apply_circuit(zero_state(circuit.layout), circuit)
    return evaluate_transfer(
        final, message, receiver_friend=friend0, sender_friend=friend1
    )


def small_protocol_cases() -> list[tuple[ProtocolConfig, Message]]:
    """(config, message) for every message of width 1 to 3, each with an H
    and an RY preparation, with and without the memory uncompute and the
    branch swap."""
    cases = []
    for n in (1, 2, 3):
        for amp0, amp1 in ((math.sqrt(0.5), math.sqrt(0.5)), (0.6, 0.8)):
            for uncompute, swap in product((True, False), repeat=2):
                config = ProtocolConfig(n, amp0, amp1, uncompute, swap)
                cases += [(config, Message(format(v, f"0{n}b"))) for v in range(1 << n)]
    return cases
