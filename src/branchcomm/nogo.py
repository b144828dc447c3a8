"""Negative results: what the branch swap provably cannot do.

Three obstructions are implemented and measured here.

* Skipping the memory uncompute leaves the sender's memory entangled with
  the paper, so the post-swap receiver branch carries a memory that reads
  the message: run_no_uncompute_variant exhibits the state and the failing
  verdict.

* Any unitary that swaps a blank memory with a written one must depend on
  the message it preserves: construct_G builds the canonical such swap for
  a fixed message, the identity with rows 0 and int(mu) swapped (dense, so
  limited to GATE_MATRIX_QUBIT_LIMIT message bits), and
  witness_mu_dependence measures the pairwise distance
  ||G(mu1)|0> - G(mu2)|0>|| = sqrt(2) over all distinct message pairs,
  certifying no single message-independent G exists.

* The branch swap permutes branch labels but cannot touch branch weights:
  verify_amplitude_immutability checks the paper-carrying component keeps
  its magnitude across the swap while the R-branch weights exchange.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .branches import (
    TransferVerdict,
    decompose_by_register,
    register_component_magnitude,
    verify_transfer,
)
from .protocol import AMP_TOL, Message, ProtocolConfig, run_protocol
from .statevec import GATE_MATRIX_QUBIT_LIMIT, StateVector

WITNESS_N_LIMIT = 6


@dataclass(frozen=True)
class ClaimReport:
    """Measured verification outcome for one claim."""

    claim: str
    parameters: dict
    measurements: dict
    passed: bool

    def to_dict(self) -> dict:
        return {
            "claim": self.claim,
            "parameters": self.parameters,
            "measurements": self.measurements,
            "pass": self.passed,
        }


@dataclass(frozen=True)
class MemoryPreservingSwapG:
    """Unitary on the memory space swapping |0...0> with |mu>, fixing the rest."""

    mu: Message
    dimension: int
    matrix: np.ndarray = field(compare=False, repr=False)


def construct_G(mu: Message) -> MemoryPreservingSwapG:
    """Canonical memory swap G(mu) = |mu><0| + |0><mu| + sum_j |j><j|.

    The sum runs over j not in {0, k}, k = int(mu), so G is the
    2^n-dimensional identity with rows 0 and k swapped. The matrix is dense
    and read-only; messages wider than GATE_MATRIX_QUBIT_LIMIT bits are
    rejected before anything is allocated. Blank messages are rejected:
    swapping the blank state with itself is vacuous and leaves the lemma
    nothing to say.
    """
    if mu.blank:
        raise ValueError("memory swap is only defined for nonblank messages")
    if mu.n > GATE_MATRIX_QUBIT_LIMIT:
        raise ValueError(
            f"construct_G is dense and limited to {GATE_MATRIX_QUBIT_LIMIT} "
            f"message bits; message has {mu.n}"
        )
    dim = 1 << mu.n
    k = int(mu.bits, 2)
    matrix = np.eye(dim, dtype=np.complex128)
    matrix[[0, k]] = matrix[[k, 0]]
    matrix.setflags(write=False)
    return MemoryPreservingSwapG(mu, dim, matrix)


def run_no_uncompute_variant(
    message: Message, apply_swap: bool = True
) -> tuple[StateVector, TransferVerdict | None]:
    """Run the protocol without the memory uncompute column.

    Returns the final state and, when the swap is applied, the (failing)
    transfer verdict; with the swap disabled there is nothing to judge and
    the verdict is None. Blank messages are rejected as vacuous: with
    nothing written, skipping the uncompute changes nothing.
    """
    if message.blank:
        raise ValueError("the no-uncompute variant is vacuous for a blank message")
    config = ProtocolConfig(
        n=message.n, uncompute_memory=False, apply_branch_swap=apply_swap
    )
    run = run_protocol(config, message)
    verdict = verify_transfer(run, message) if apply_swap else None
    return run.final, verdict


def witness_mu_dependence(n: int) -> ClaimReport:
    """Certify that the memory swap cannot be message-independent at width n.

    For every pair of distinct nonblank messages, ||G(mu1)|0> - G(mu2)|0>||
    must equal ||mu1> - |mu2>|| = sqrt(2) > 0, so no single unitary sends
    |0> to both. Each G is also confirmed unitary. n = 1 has one nonblank
    message and the claim is vacuous there.
    """
    if not 1 <= n <= WITNESS_N_LIMIT:
        raise ValueError(f"witness is dense and limited to n <= {WITNESS_N_LIMIT}")
    dim = 1 << n
    messages = [Message(format(v, f"0{n}b")) for v in range(1, dim)]
    zero = np.zeros(dim, dtype=np.complex128)
    zero[0] = 1.0
    eye = np.eye(dim)

    images: dict[str, np.ndarray] = {}
    max_unitarity_dev = 0.0
    for mu in messages:
        g = construct_G(mu)
        max_unitarity_dev = max(
            max_unitarity_dev,
            float(np.max(np.abs(g.matrix.conj().T @ g.matrix - eye))),
        )
        images[mu.bits] = g.matrix @ zero

    sqrt2 = np.sqrt(2.0)
    pairs = 0
    max_distance_dev = 0.0
    min_distance = np.inf
    for i, mu1 in enumerate(messages):
        basis1 = np.zeros(dim, dtype=np.complex128)
        basis1[int(mu1.bits, 2)] = 1.0
        for mu2 in messages[i + 1 :]:
            pairs += 1
            basis2 = np.zeros(dim, dtype=np.complex128)
            basis2[int(mu2.bits, 2)] = 1.0
            dist = float(np.linalg.norm(images[mu1.bits] - images[mu2.bits]))
            direct = float(np.linalg.norm(basis1 - basis2))
            max_distance_dev = max(
                max_distance_dev, abs(dist - sqrt2), abs(direct - sqrt2)
            )
            min_distance = min(min_distance, dist)

    measurements: dict = {
        "messages": len(messages),
        "pairs": pairs,
        "max_unitarity_deviation": max_unitarity_dev,
    }
    if pairs:
        measurements["max_distance_deviation_from_sqrt2"] = max_distance_dev
        measurements["min_pairwise_distance"] = min_distance
    else:
        measurements["note"] = "vacuous: a single nonblank message admits no pair"
    passed = max_unitarity_dev <= 1e-12 and (pairs == 0 or max_distance_dev <= 1e-12)
    return ClaimReport(
        claim=(
            "memory-preserving swaps are message-dependent: distinct messages "
            "force distinct swap unitaries"
        ),
        parameters={"n": n},
        measurements=measurements,
        passed=passed,
    )


def verify_amplitude_immutability(
    amp0: float, amp1: float, message: Message
) -> ClaimReport:
    """Check the branch swap moves labels, never weights.

    Runs the full protocol with the given preparation amplitudes, measures
    the magnitude of the paper = message component just before the swap
    (checkpoint eq6) and after it, and checks (a) that magnitude is
    unchanged and (b) the R-branch weights are exactly exchanged.
    """
    if message.blank:
        raise ValueError("amplitude immutability needs a message branch; mu is blank")
    config = ProtocolConfig(n=message.n, amp0=amp0, amp1=amp1)
    run = run_protocol(config, message)
    pre = run.checkpoints["eq6"]
    post = run.final

    p_pre = register_component_magnitude(pre, "P", message.bits)
    p_post = register_component_magnitude(post, "P", message.bits)

    def branch_weights(state: StateVector) -> dict[str, float]:
        weights = {"0": 0.0, "1": 0.0}
        for b in decompose_by_register(state, "R"):
            weights[b.label] = abs(b.amplitude)
        return weights

    w_pre = branch_weights(pre)
    w_post = branch_weights(post)
    magnitude_delta = abs(p_pre - p_post)
    exchange_delta = max(
        abs(w_post["0"] - w_pre["1"]), abs(w_post["1"] - w_pre["0"])
    )
    passed = magnitude_delta <= AMP_TOL and exchange_delta <= AMP_TOL
    return ClaimReport(
        claim=(
            "the branch swap relabels branches but cannot change the "
            "paper-carrying component's amplitude"
        ),
        parameters={"amp0": amp0, "amp1": amp1, "message": message.bits},
        measurements={
            "paper_component_magnitude_pre_swap": p_pre,
            "paper_component_magnitude_post_swap": p_post,
            "magnitude_delta": magnitude_delta,
            "branch_weights_pre_swap": w_pre,
            "branch_weights_post_swap": w_post,
            "exchange_delta": exchange_delta,
        },
        passed=passed,
    )
