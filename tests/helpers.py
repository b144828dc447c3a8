"""Shared test oracles, independent of the library's kernels.

Operators are assembled from 2x2 primitives with explicit Kronecker
products and projector sums, then chained as dense matrices, so agreement
with the library is a genuine two-route check.
"""

from itertools import product

import numpy as np

from branchcomm.statevec import Circuit, GateOp, RegisterLayout, StateVector

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
        out = np.eye(1 << total, dtype=complex)
        for c, t in zip(op.controls, op.targets):
            out = controlled_operator(total, [c], {t: X2}) @ out
        return out
    raise ValueError(f"oracle does not know kind {kind!r}")


def oracle_apply(amps: np.ndarray, ops, total: int) -> np.ndarray:
    vec = np.array(amps, dtype=complex)
    for op in ops:
        vec = oracle_matrix(op, total) @ vec
    return vec


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
