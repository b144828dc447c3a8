"""Negative results: what the branch swap provably cannot do.

Three obstructions are implemented and measured here.

* Skipping the memory uncompute leaves the sender's memory entangled with
  the paper, so the post-swap receiver branch carries a memory that reads
  the message: run_no_uncompute_variant exhibits the state and the failing
  verdict.

* Any unitary that swaps a blank memory with a written one must depend on
  the message it preserves: construct_G returns the canonical such swap for
  a fixed message as its map on basis indices (G is a permutation; one entry
  per basis state, so limited to GATE_MATRIX_QUBIT_LIMIT message bits), and
  memory_swap_report checks that map exactly, entry by entry.
  witness_mu_dependence measures the pairwise distance
  ||G(mu1)|0> - G(mu2)|0>|| = sqrt(2) over all distinct message pairs,
  certifying no single message-independent G exists.

* The branch swap permutes branch labels but cannot touch branch weights:
  verify_amplitude_immutability checks the paper-carrying component keeps
  its magnitude across the swap while the R-branch weights exchange.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass

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


def construct_G(mu: Message) -> tuple[int, ...]:
    """Canonical memory swap G(mu) = |mu><0| + |0><mu| + sum_j |j><j|.

    The sum runs over j not in {0, k}, k = int(mu), so G exchanges the basis
    states 0 and k and fixes the rest. It is returned as its map on basis
    indices: a tuple p of length 2^n with G|j> = |p[j]>. Messages wider than
    GATE_MATRIX_QUBIT_LIMIT bits are rejected before anything is allocated.
    Blank messages are rejected: swapping the blank state with itself is
    vacuous and leaves the lemma nothing to say.
    """
    if mu.blank:
        raise ValueError("memory swap is only defined for nonblank messages")
    if mu.n > GATE_MATRIX_QUBIT_LIMIT:
        raise ValueError(
            f"construct_G is dense and limited to {GATE_MATRIX_QUBIT_LIMIT} "
            f"message bits; message has {mu.n}"
        )
    k = int(mu.bits, 2)
    images = list(range(1 << mu.n))
    images[0], images[k] = k, 0
    return tuple(images)


def run_no_uncompute_variant(message: Message) -> tuple[StateVector, TransferVerdict]:
    """Run the protocol, branch swap included, without the memory uncompute.

    Returns the final state and its (failing) transfer verdict. Blank
    messages are rejected as vacuous: with nothing written, skipping the
    uncompute changes nothing.
    """
    if message.blank:
        raise ValueError("the no-uncompute variant is vacuous for a blank message")
    run = run_protocol(ProtocolConfig(n=message.n, uncompute_memory=False), message)
    return run.final, verify_transfer(run, message)


def _permutation(mu: Message) -> tuple[int, ...] | None:
    """construct_G(mu) as a tuple if it permutes range(2^n), else None.

    A map of basis states to basis states is unitary exactly when it is a
    permutation: G^T G has a 1 off its diagonal wherever two images collide.
    Each image must be an int; a bool or a float is refused, since True == 1
    and 1.0 == 1 would otherwise compare as exact.
    """
    dim = 1 << mu.n
    images = construct_G(mu)
    if (
        len(images) == dim
        and set(map(type, images)) == {int}
        and 0 <= min(images)
        and max(images) < dim
        and len(set(images)) == dim
    ):
        return tuple(images)
    return None


def witness_mu_dependence(n: int) -> ClaimReport:
    """Certify that the memory swap cannot be message-independent at width n.

    For every pair of distinct nonblank messages, ||G(mu1)|0> - G(mu2)|0>||
    must equal ||mu1> - |mu2>|| = sqrt(2) > 0, so no single unitary sends
    |0> to both. Each G is also confirmed unitary. n = 1 has one nonblank
    message and the claim is vacuous there.
    """
    if not 1 <= n <= WITNESS_N_LIMIT:
        raise ValueError(f"witness is dense and limited to n <= {WITNESS_N_LIMIT}")

    images: list[tuple[int, int | None]] = []
    max_unitarity_dev = 0.0
    for value in range(1, 1 << n):
        p = _permutation(Message(format(value, f"0{n}b")))
        max_unitarity_dev = max(max_unitarity_dev, float(p is None))
        images.append((value, None if p is None else p[0]))

    sqrt2 = math.sqrt(2.0)
    pairs = 0
    max_distance_dev = 0.0
    min_distance = math.inf
    for (value1, image1), (value2, image2) in itertools.combinations(images, 2):
        pairs += 1
        dist = sqrt2 if image1 != image2 else 0.0
        direct = sqrt2 if value1 != value2 else 0.0
        max_distance_dev = max(max_distance_dev, abs(dist - sqrt2), abs(direct - sqrt2))
        min_distance = min(min_distance, dist)

    measurements: dict = {
        "messages": len(images),
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


def memory_swap_report(n: int, values: Sequence[int]) -> ClaimReport:
    """Check G(mu) for each nonblank n-bit message whose integer value is listed.

    Each G must be unitary and self-inverse, and must map 0 to int(mu) and
    int(mu) to 0: it swaps the blank memory with the message and fixes every
    other basis state. A map that does not permute range(2^n) fails all
    three checks. A width past GATE_MATRIX_QUBIT_LIMIT or a value outside
    1..2^n - 1 raises ValueError before any map is built.
    """
    if not 1 <= n <= GATE_MATRIX_QUBIT_LIMIT:
        raise ValueError(
            f"memory swaps are dense and limited to n in 1..{GATE_MATRIX_QUBIT_LIMIT}, got {n}"
        )
    dim = 1 << n
    for value in values:
        if not 1 <= value < dim:
            raise ValueError(f"message value {value} out of range 1..{dim - 1} for n = {n}")
    identity = tuple(range(dim))
    max_unitarity = max_self_inverse = max_action = 0.0
    for value in values:
        p = _permutation(Message(format(value, f"0{n}b")))
        swapped = (value, *range(1, value), 0, *range(value + 1, dim))
        max_unitarity = max(max_unitarity, float(p is None))
        max_self_inverse = max(
            max_self_inverse, float(p is None or tuple(map(p.__getitem__, p)) != identity)
        )
        max_action = max(max_action, float(p != swapped))
    return ClaimReport(
        claim=(
            "each memory swap is unitary, self-inverse, and exchanges the "
            "blank memory with its message while fixing everything else"
        ),
        parameters={"n": n, "messages_checked": len(values)},
        measurements={
            "max_unitarity_deviation": max_unitarity,
            "max_self_inverse_deviation": max_self_inverse,
            "max_action_deviation": max_action,
        },
        passed=max(max_unitarity, max_self_inverse, max_action) <= 1e-12,
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
