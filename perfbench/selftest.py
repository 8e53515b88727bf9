"""The benchmark's own tests.

Run from the root of a checkout::

    python3 -m pytest -q perfbench/selftest.py

(The file is named so the repository's default test collection does not
pick it up: the smoke runs below start benchmark processes.)
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import calib  # noqa: E402
import check  # noqa: E402
import gen  # noqa: E402
from workloads import tail  # noqa: E402

BELL = {"kind": "qcircuit", "num_qubits": 2, "gates": [
    {"name": "ry", "target": 0, "controls": [], "theta": math.pi / 2},
    {"name": "cx", "target": 1, "controls": [[0, 1]]},
]}


def _bell_response(circuit=BELL, cost=1):
    return {"ok": True, "cnot_cost": cost, "circuit": circuit}


class TestCheck:
    target = {0b00: 1.0, 0b11: 1.0}

    def test_accepts_a_correct_circuit(self):
        assert check.check_response(2, self.target, _bell_response()) is None

    def test_rejects_one_flipped_angle(self):
        flipped = json.loads(json.dumps(BELL))
        flipped["gates"][0]["theta"] = -math.pi / 2
        reason = check.check_response(2, self.target,
                                      _bell_response(flipped))
        assert reason is not None and "fidelity" in reason

    def test_rejects_a_wrong_cnot_cost(self):
        reason = check.check_response(2, self.target,
                                      _bell_response(cost=2))
        assert reason is not None and "cnot_cost" in reason

    def test_qubit_zero_is_the_most_significant_bit(self):
        x0 = {"kind": "qcircuit", "num_qubits": 3, "gates": [
            {"name": "x", "target": 0, "controls": []}]}
        assert check.simulate(x0) == {0b100: 1.0}

    def test_negated_control_and_table_one_costs(self):
        circuit = {"kind": "qcircuit", "num_qubits": 3, "gates": [
            {"name": "cx", "target": 2, "controls": [[0, 0]]},
            {"name": "mcry", "target": 1, "controls": [[0, 1], [2, 1]],
             "theta": 1.0},
            {"name": "crz", "target": 0, "controls": [[1, 1]],
             "theta": 0.5}]}
        assert check.recount_cnots(circuit) == 1 + 4 + 2
        # control on |0> fires from |000>: X lands on qubit 2
        assert check.simulate({**circuit, "gates": circuit["gates"][:1]}) \
            == {0b001: 1.0}

    def test_rejects_a_served_circuit_with_a_flipped_angle(self):
        sys.path.insert(0, str(ROOT / "src"))
        from repro.service.server import SynthesisService

        item = gen.dense_items(3, n4=1, n5=0)[0]
        response = SynthesisService().handle(dict(item.request))
        assert check.check_response(4, item.target, response) is None
        angled = [g for g in response["circuit"]["gates"]
                  if abs(g.get("theta", 0.0)) > 1e-3]
        angled[0]["theta"] = -angled[0]["theta"]
        assert check.check_response(4, item.target, response) is not None


class TestGenerators:
    def test_same_seed_same_requests(self):
        for make in (lambda s: gen.dense_items(s, 5, 1),
                     lambda s: gen.sparse_items(s, 1),
                     lambda s: gen.mix_items(s, 60, 2)):
            first = [(i.request, i.target) for i in make(7)]
            again = [(i.request, i.target) for i in make(7)]
            other = [(i.request, i.target) for i in make(8)]
            assert first == again
            assert first != other

    def test_relabelling_keeps_the_optimal_cost(self):
        sys.path.insert(0, str(ROOT / "src"))
        import numpy as np
        from repro.service.server import SynthesisService

        base = gen._random_item(np.random.default_rng(1), "exact", 4, 4,
                                False)
        costs = set()
        for seed in range(3):
            item = gen.relabel(np.random.default_rng(seed), base)
            assert sorted(item.target.values()) == \
                sorted(base.target.values())
            response = SynthesisService().handle(dict(item.request))
            assert response["optimal"]
            assert check.check_response(4, item.target, response) is None
            costs.add(response["cnot_cost"])
        assert len(costs) == 1

    def test_sparse_rows_follow_the_paper(self):
        assert (8, 16) in gen.SPARSE_ROWS and (8, 32) not in gen.SPARSE_ROWS
        assert all(n * m < 2 ** n for n, m in gen.SPARSE_ROWS)

    def test_mix_shares_do_not_depend_on_the_seed(self):
        def shares(seed):
            items = gen.mix_items(seed, 60, 3)
            kinds = sorted((i.kind, i.num_qubits, len(i.target))
                           for i in items)
            distinct = {(i.num_qubits, tuple(sorted(i.target.items())))
                        for i in items if i.kind == "exact"}
            return kinds.count(("prepare", 4, 8)), len(items), \
                len(distinct)

        assert shares(1) == shares(2) == (3, 63, 20)

    def test_targets_match_requests(self):
        for item in gen.mix_items(2, 40, 1) + gen.fixture_items(20)[0]:
            terms = item.request.get("terms")
            if terms is not None:
                assert {int(b, 2): a for b, a in terms.items()} == \
                    item.target


class TestNormalization:
    def test_factor_scales_to_the_reference_host(self):
        assert calib.normalization_factor([0.010, 0.010], 0.005) == 0.5
        assert calib.normalization_factor([0.002, 0.003], 0.005) == 2.0
        with pytest.raises(ValueError):
            calib.normalization_factor([])

    def test_ticks_are_subtracted_from_in_flight_time(self):
        from workloads import Timer

        cal = calib.Calibrator()
        timer = Timer(cal)
        cal.tick()
        cal.tick()
        assert timer.elapsed() < cal.spent_s

    def test_tail_is_the_highest_percentile_with_ten_beyond(self):
        values = [float(v) for v in range(40)]
        assert tail(values) == (29.0, 75.0, 40)
        assert tail([1.0, 3.0, 2.0]) == (3.0, 100.0, 3)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload",
                         ["prepare_dense", "prepare_sparse", "serve_mix"])
def test_smoke_run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {m["name"] for m in config["per_layer" if trace
                                      else "end_to_end"]}
    assert set(result["metrics"]) == names
