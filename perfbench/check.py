"""Independent answer checking: a small numpy statevector simulator.

The benchmark does not trust the program's own simulator.  A returned
circuit (the wire form of ``circuit_to_dict``: gate ``name``,
``target``, ``controls`` as ``[qubit, phase]`` pairs, optional
``theta``) is applied to ``|0...0>`` here and compared with the
requested target up to a global phase.  Qubit 0 is the most
significant bit of a basis index, as on the wire's bitstrings.

The CNOT cost of each gate is recomputed from the paper's Table I
(``x``/``ry``/``rz`` free, ``cx`` 1, ``cry``/``crz`` 2, ``mcry``/``mcx``
``2**k`` for ``k`` controls) and must equal the reported ``cnot_cost``.
Family targets are also held to :data:`gen.EXPECTED_COST`.
"""

from __future__ import annotations

import math

import numpy as np

from gen import EXPECTED_COST, family_key

FIDELITY_TOL = 1e-6

_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def _ry(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return np.array([[c, -s], [s, c]], dtype=complex)


def _rz(theta: float) -> np.ndarray:
    return np.array([[np.exp(-0.5j * theta), 0.0],
                     [0.0, np.exp(0.5j * theta)]], dtype=complex)


#: gate name -> (2x2 base matrix builder, allowed control counts)
_GATES = {
    "x": (lambda g: _X, (0,)),
    "ry": (lambda g: _ry(g["theta"]), (0,)),
    "rz": (lambda g: _rz(g["theta"]), (0,)),
    "cx": (lambda g: _X, (1,)),
    "cry": (lambda g: _ry(g["theta"]), (1,)),
    "crz": (lambda g: _rz(g["theta"]), (1,)),
    "mcry": (lambda g: _ry(g["theta"]), None),
    "mcx": (lambda g: _X, None),
}


def gate_cost(gate: dict) -> int:
    name, k = gate["name"], len(gate.get("controls", ()))
    if name in ("x", "ry", "rz"):
        return 0
    if name == "cx":
        return 1
    if name in ("cry", "crz"):
        return 2
    if name in ("mcry", "mcx"):
        return 1 << k
    raise ValueError(f"unknown gate {name!r}")


def circuit_cost(circuit: dict) -> int:
    return sum(gate_cost(g) for g in circuit["gates"])


def simulate(circuit: dict) -> np.ndarray:
    """Final statevector of ``circuit`` applied to ``|0...0>``."""
    n = int(circuit["num_qubits"])
    vec = np.zeros(1 << n, dtype=complex)
    vec[0] = 1.0
    idx = np.arange(1 << n)
    for gate in circuit["gates"]:
        name = gate["name"]
        if name not in _GATES:
            raise ValueError(f"unknown gate {name!r}")
        build, arity = _GATES[name]
        controls = gate.get("controls", ())
        if arity is not None and len(controls) not in arity:
            raise ValueError(f"{name} with {len(controls)} controls")
        shift = n - 1 - int(gate["target"])
        sel = ((idx >> shift) & 1) == 0
        for qubit, phase in controls:
            sel &= ((idx >> (n - 1 - int(qubit))) & 1) == int(phase)
        i0 = idx[sel]
        i1 = i0 | (1 << shift)
        mat = build(gate)
        a, b = vec[i0].copy(), vec[i1].copy()
        vec[i0] = mat[0, 0] * a + mat[0, 1] * b
        vec[i1] = mat[1, 0] * a + mat[1, 1] * b
    return vec


def _weight_states(n: int, weights: tuple[int, ...]) -> dict:
    return {format(i, f"0{n}b"): 1.0 for i in range(1 << n)
            if bin(i).count("1") in weights}


def target_vector(request: dict) -> np.ndarray:
    """The normalized target of a request, built from its own fields."""
    if "terms" in request:
        terms = request["terms"]
    elif "ghz" in request:
        n = int(request["ghz"])
        terms = {"0" * n: 1.0, "1" * n: 1.0}
    elif "w" in request:
        terms = _weight_states(int(request["w"]), (1,))
    elif "dicke" in request:
        n, k = request["dicke"]
        terms = _weight_states(int(n), (int(k),))
    else:
        raise ValueError("request carries no target")
    n = len(next(iter(terms)))
    vec = np.zeros(1 << n, dtype=complex)
    for bits, amp in terms.items():
        vec[int(bits, 2)] = float(amp)
    return vec / np.linalg.norm(vec)


def check_answer(request: dict, response: dict) -> str | None:
    """``None`` when ``response`` correctly answers ``request``, else why not.

    An answer must carry a circuit that prepares the target (fidelity
    within :data:`FIDELITY_TOL` of 1), report the circuit's true CNOT
    cost, and, for a family target, hit the expected optimum exactly when
    claimed optimal and never undercut it.
    """
    circuit = response.get("circuit")
    if circuit is None:
        return "answer carries no circuit"
    target = target_vector(request)
    if int(circuit["num_qubits"]) != int(math.log2(target.size)):
        return "circuit register size differs from the target's"
    try:
        produced = simulate(circuit)
    except (KeyError, ValueError, TypeError) as exc:
        return f"unsimulatable circuit: {exc}"
    fidelity = abs(np.vdot(target, produced)) ** 2
    if fidelity < 1.0 - FIDELITY_TOL:
        return f"circuit misses its target (fidelity {fidelity:.9f})"
    cost = circuit_cost(circuit)
    if cost != response.get("cnot_cost"):
        return (f"reported cnot_cost {response.get('cnot_cost')} but the "
                f"circuit costs {cost}")
    key = family_key(request)
    expected = EXPECTED_COST.get(key) if key is not None else None
    if expected is not None:
        optimal = response.get("optimal", response.get("exact_optimal"))
        if cost < expected:
            return f"{key} answered with {cost} < optimum {expected}"
        if optimal and request.get("op") == "exact" and cost != expected:
            return f"{key} claimed optimal at {cost}, expected {expected}"
    return None
