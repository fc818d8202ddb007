"""Tests of the benchmark's own code (no server is started here)."""

from __future__ import annotations

import itertools
import json
import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import gen  # noqa: E402
from check import check_answer, circuit_cost, simulate  # noqa: E402
from stats import SpanRecorder, median, merge_ledgers, tail  # noqa: E402


def _lines(workload: str, seed: int, count: int = 300) -> list[str]:
    plan = gen.plan(workload, seed, seconds=10.0)
    if plan["loop"] == "closed":
        items = itertools.islice(plan["stream"], count)
    else:
        items = (request for _, request in plan["schedule"])
    return [gen.request_line(r) for r in items]


class TestGeneration:
    def test_allocate_splits_exactly(self):
        assert gen.allocate(10, [1.0, 1.0, 1.0]) == [4, 3, 3]
        assert sum(gen.allocate(1200, [0.9, 0.05, 0.04, 0.01])) == 1200

    @pytest.mark.parametrize("workload", gen.WORKLOADS)
    def test_same_seed_same_bytes(self, workload):
        assert _lines(workload, 7) == _lines(workload, 7)

    @pytest.mark.parametrize("workload", gen.WORKLOADS)
    def test_other_seed_other_lines(self, workload):
        assert _lines(workload, 7) != _lines(workload, 8)

    def test_open_loop_due_times_repeat(self):
        first = gen.plan("hot-mix", 3, 5.0)["schedule"]
        again = gen.plan("hot-mix", 3, 5.0)["schedule"]
        assert [due for due, _ in first] == [due for due, _ in again]

    def test_cold_targets_are_distinct(self):
        lines = [json.loads(line) for line in _lines("cold-exact", 1, 500)]
        keys = [json.dumps({k: v for k, v in r.items() if k != "id"},
                           sort_keys=True) for r in lines]
        assert len(set(keys)) == len(keys)

    def test_wire_strips_bench_tags(self):
        line = _lines("pool-affinity", 1, 1)[0]
        assert not any(key.startswith("_") for key in json.loads(line))


class TestTail:
    def test_highest_percentile_with_ten_beyond(self):
        value, pct = tail(range(1, 101))
        assert (value, pct) == (90, 90.0)

    def test_more_samples_reach_higher_percentiles(self):
        value, pct = tail(range(1, 1001))
        assert pct == 99.0 and value == 990

    def test_twenty_samples_fall_back_to_the_median_rung(self):
        assert tail(range(1, 21)) == (10, 50.0)

    def test_too_few_samples_report_the_maximum(self):
        assert tail([3.0, 1.0, 2.0]) == (3.0, 100.0)

    def test_median(self):
        assert median([4, 1, 3, 2]) == 2.5


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class TestSelfTime:
    def test_nested_spans(self):
        clock = FakeClock()
        rec = SpanRecorder(clock)
        rec.enter("server.submit")          # t=0
        clock.now = 1.0
        rec.enter("cache.get")              # t=1
        clock.now = 1.5
        rec.exit()                          # cache.get: 0.5
        rec.enter("engine.astar.step")      # t=1.5
        clock.now = 2.0
        rec.enter("gc.pause")               # t=2
        clock.now = 2.25
        rec.exit()                          # gc: 0.25
        clock.now = 3.0
        rec.exit()                          # engine: 1.5 incl, 1.25 self
        clock.now = 4.0
        rec.exit()                          # submit: 4.0 incl, 2.0 self
        assert rec.incl["server.submit"] == 4.0
        assert rec.self_s["server.submit"] == 2.0
        assert rec.self_s["engine.astar.step"] == 1.25
        assert rec.self_s["gc.pause"] == 0.25
        assert sum(rec.self_s.values()) == rec.incl["server.submit"]

    def test_ledger_subtracts_idle_and_reports_remainder(self):
        clock = FakeClock()
        rec = SpanRecorder(clock)
        rec.enter("idle.select")
        clock.now = 3.0
        rec.exit()
        rec.enter("server.submit")
        clock.now = 5.0
        rec.exit()
        clock.now = 6.0                     # 1 s outside every span
        rec.close_window()
        ledger = rec.ledger()
        assert ledger["busy_s"] == 3.0
        assert ledger["layers"] == {"server": 2.0}
        assert ledger["unattributed_s"] == 1.0

    def test_merge_adds_processes(self):
        dumps = []
        for seconds in (1.0, 2.0):
            clock = FakeClock()
            rec = SpanRecorder(clock)
            rec.enter("cache.get")
            clock.now = seconds
            rec.exit()
            rec.close_window()
            dumps.append(rec.to_dict())
        merged = merge_ledgers(dumps)
        assert merged["incl"]["cache.get"] == 3.0
        assert merged["longest"]["cache.get"] == 2.0
        assert merged["busy_s"] == 3.0 and merged["unattributed_s"] == 0.0


def _gate(name, target, controls=(), theta=None):
    gate = {"name": name, "target": target,
            "controls": [list(c) for c in controls]}
    if theta is not None:
        gate["theta"] = theta
    return gate


def _circuit(n, gates):
    return {"kind": "qcircuit", "num_qubits": n, "gates": gates}


GHZ3 = _circuit(3, [_gate("ry", 0, theta=math.pi / 2),
                    _gate("cx", 1, [(0, 1)]), _gate("cx", 2, [(1, 1)])])

# W(3): split |0> off with weight 1/3, halve the rest, then move |000>
# to |001> under both controls negated
W3 = _circuit(3, [_gate("ry", 0, theta=2 * math.asin(1 / math.sqrt(3))),
                  _gate("cry", 1, [(0, 0)], theta=math.pi / 2),
                  _gate("mcx", 2, [(0, 0), (1, 0)])])


class TestChecker:
    def test_ghz_circuit_prepares_ghz(self):
        response = {"ok": True, "cnot_cost": 2, "optimal": True,
                    "circuit": GHZ3}
        assert check_answer({"op": "exact", "ghz": 3}, response) is None

    def test_w3_circuit_prepares_w3(self):
        assert circuit_cost(W3) == 6
        response = {"ok": True, "cnot_cost": 6, "exact_optimal": False,
                    "circuit": W3}
        assert check_answer({"op": "prepare", "w": 3}, response) is None
        assert check_answer({"op": "prepare", "terms": {
            "001": 1.0, "010": 1.0, "100": 1.0}}, response) is None

    def test_wrong_circuit_is_refused(self):
        broken = _circuit(3, GHZ3["gates"][:2])
        response = {"ok": True, "cnot_cost": 1, "circuit": broken}
        problem = check_answer({"op": "exact", "ghz": 3}, response)
        assert problem is not None and "misses its target" in problem

    def test_misreported_cost_is_refused(self):
        response = {"ok": True, "cnot_cost": 1, "circuit": GHZ3}
        assert "reported cnot_cost" in check_answer(
            {"op": "exact", "ghz": 3}, response)

    def test_claimed_optimum_must_match_the_table(self):
        response = {"ok": True, "cnot_cost": 6, "optimal": True,
                    "circuit": W3}
        assert "claimed optimal" in check_answer({"op": "exact", "w": 3},
                                                 response)

    def test_simulator_gate_order(self):
        # qubit 0 is the most significant bit: X on qubit 0 of two
        # qubits gives basis index 2
        vec = simulate(_circuit(2, [_gate("x", 0)]))
        assert abs(vec[2]) == pytest.approx(1.0)


class TestManifest:
    def test_benchmark_json_matches_the_layer_map(self):
        manifest = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
        layers = json.loads((BENCH / "layers.json").read_text())
        assert [m["name"] for m in manifest["per_layer"]] == \
            [m["name"] for m in layers["per_layer"]]
        assert {w["name"] for w in manifest["workloads"]} <= \
            set(gen.WORKLOADS)
