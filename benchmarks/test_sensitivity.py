"""Sensitivity sweeps over the substrate's design knobs.

Section 7 lists "more detailed metrics, including cycle time, power, and
area" as future work; the sweepable knobs here are the architectural
ones our model exposes: grid size, network hop delay, revitalize
broadcast cost and streaming-channel bandwidth.  Each sweep asserts the
physically-sensible monotonic trend.
"""

from repro.machine import MachineConfig, MachineParams
from repro.perf import SweepPoint, run_points


def sweep(kernel_name, config, param_values, records=256):
    points = [
        SweepPoint(kernel=kernel_name, config=config, params=params,
                   records=records)
        for params in param_values
    ]
    return [result.cycles for result in run_points(points)]


def test_grid_size_scaling(one_shot):
    """4x4 -> 8x8 -> 16x16: parallel kernels keep speeding up."""
    grids = [MachineParams(rows=4, cols=4),
             MachineParams(rows=8, cols=8),
             MachineParams(rows=16, cols=16)]

    result = one_shot(
        lambda: {
            "fft/S": sweep("fft", MachineConfig.S(), grids),
            "convert/S-O": sweep("convert", MachineConfig.S_O(), grids),
        }
    )
    for label, cycles in result.items():
        assert cycles[0] > cycles[1] > cycles[2], (label, cycles)
    print()
    for label, cycles in result.items():
        print(f"{label:14s} 4x4={cycles[0]}  8x8={cycles[1]}  16x16={cycles[2]}")


def test_hop_delay_sensitivity(one_shot):
    """Slower mesh hops hurt communication-heavy kernels."""
    hops = [MachineParams(hop_cycles=h) for h in (0.5, 1.0, 2.0)]
    result = one_shot(
        lambda: sweep("rijndael", MachineConfig.S_O_D(), hops, records=64)
    )
    assert result[0] < result[1] < result[2]
    print(f"\nrijndael S-O-D cycles at hop 0.5/1/2: {result}")


def test_revitalize_cost_sensitivity(one_shot):
    """The revitalize broadcast taxes every SIMD window."""
    costs = [MachineParams(revitalize_delay=d) for d in (0, 16, 64)]
    result = one_shot(lambda: sweep("fft", MachineConfig.S(), costs))
    assert result[0] < result[1] < result[2]
    print(f"\nfft S cycles at revitalize 0/16/64: {result}")


def test_channel_bandwidth_sensitivity(one_shot):
    """Streaming-channel bandwidth bounds record-hungry kernels."""
    channels = [MachineParams(channel_words_per_cycle=w) for w in (1, 4, 16)]
    result = one_shot(lambda: sweep("dct", MachineConfig.S_O(), channels,
                                    records=64))
    assert result[0] >= result[1] >= result[2]
    assert result[0] > result[2]
    print(f"\ndct S-O cycles at channel bw 1/4/16: {result}")
