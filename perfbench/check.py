"""Independent check of served circuits.

Every circuit the service returns is replayed here, from ``|0...0>``,
by a sparse simulator that shares no code with the program: no
``repro`` import, no ``QCircuit.cnot_cost()``.  A response passes when

* it is ``ok`` and carries its gate list,
* the replayed state equals the requested target up to a global phase
  (fidelity at least ``1 - FIDELITY_TOL``), and
* the CNOTs recounted from the gate list with the paper's Table-I costs
  equal the response's ``cnot_cost``.

Qubit 0 is the most significant bit of a basis index, as in the
program's ``utils/bits.bit_of``.  A gate is a 2x2 matrix on ``target``
that fires when every ``(qubit, phase)`` control matches.
"""

from __future__ import annotations

import cmath
import math

#: a served state must overlap its target to within this (fidelity)
FIDELITY_TOL = 1e-6

#: amplitudes below this magnitude are dropped during the replay
_DROP = 1e-12


def _matrix(gate: dict):
    """The gate's 2x2 matrix as ``((a, b), (c, d))``."""
    name = gate["name"]
    if name in ("x", "cx", "mcx"):
        return ((0.0, 1.0), (1.0, 0.0))
    theta = float(gate["theta"])
    if name in ("ry", "cry", "mcry"):
        c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
        return ((c, -s), (s, c))
    if name in ("rz", "crz"):
        return ((cmath.exp(-0.5j * theta), 0.0),
                (0.0, cmath.exp(0.5j * theta)))
    raise ValueError(f"unknown gate {name!r}")


def gate_cnots(gate: dict) -> int:
    """Table-I CNOT cost of one serialized gate."""
    name = gate["name"]
    k = len(gate["controls"])
    if name in ("x", "ry", "rz"):
        if k:
            raise ValueError(f"{name} with {k} controls")
        return 0
    if name == "cx":
        return 1
    if name in ("cry", "crz"):
        return 2
    if name in ("mcry", "mcx"):
        return 1 << k
    raise ValueError(f"unknown gate {name!r}")


def recount_cnots(circuit: dict) -> int:
    """Sum of Table-I costs over a serialized circuit's gates."""
    return sum(gate_cnots(g) for g in circuit["gates"])


def simulate(circuit: dict) -> dict[int, complex]:
    """Replay a serialized circuit from ``|0...0>``; sparse amplitudes."""
    n = int(circuit["num_qubits"])
    state: dict[int, complex] = {0: 1.0 + 0.0j}
    for gate in circuit["gates"]:
        target = int(gate["target"])
        if not 0 <= target < n:
            raise ValueError(f"target {target} outside {n} qubits")
        tbit = 1 << (n - 1 - target)
        need = 0
        care = 0
        for q, phase in gate["controls"]:
            if not 0 <= int(q) < n or int(q) == target:
                raise ValueError(f"bad control {q} for target {target}")
            bit = 1 << (n - 1 - int(q))
            care |= bit
            if int(phase):
                need |= bit
        (a, b), (c, d) = _matrix(gate)
        out: dict[int, complex] = {}
        done = set()
        for idx in state:
            if idx & care != need:
                out[idx] = out.get(idx, 0.0) + state[idx]
                continue
            low = idx & ~tbit
            if low in done:
                continue
            done.add(low)
            high = low | tbit
            a0 = state.get(low, 0.0)
            a1 = state.get(high, 0.0)
            out[low] = a * a0 + b * a1
            out[high] = c * a0 + d * a1
        state = {i: v for i, v in out.items() if abs(v) > _DROP}
    return state


def fidelity(produced: dict[int, complex], target: dict[int, float]) -> float:
    """``|<target|produced>|^2`` with both sides normalized."""
    norm_t = math.sqrt(sum(abs(v) ** 2 for v in target.values()))
    norm_p = math.sqrt(sum(abs(v) ** 2 for v in produced.values()))
    overlap = sum(complex(v).conjugate() * produced.get(i, 0.0)
                  for i, v in target.items())
    return abs(overlap / (norm_t * norm_p)) ** 2


def check_response(num_qubits: int, target: dict[int, float],
                   response: dict) -> str | None:
    """``None`` when the response is a correct answer, else the reason."""
    if not response.get("ok"):
        return f"not ok: {response.get('error') or response}"
    circuit = response.get("circuit")
    if circuit is None:
        return "response carries no circuit"
    if int(circuit["num_qubits"]) != num_qubits:
        return (f"circuit on {circuit['num_qubits']} qubits, target on "
                f"{num_qubits}")
    try:
        cnots = recount_cnots(circuit)
        produced = simulate(circuit)
    except (KeyError, TypeError, ValueError) as exc:
        return f"malformed circuit: {exc}"
    if cnots != response.get("cnot_cost"):
        return (f"cnot_cost {response.get('cnot_cost')} but the gate list "
                f"costs {cnots}")
    fid = fidelity(produced, target)
    if fid < 1.0 - FIDELITY_TOL:
        return f"fidelity {fid:.9f} with the target"
    return None
